//! Little-endian binary primitives for the snapshot's `META` and `MODEL`
//! blobs.
//!
//! Everything is written length-prefixed so a reader can validate sizes
//! before allocating; all multi-byte values are little-endian. The format
//! deliberately avoids any external serialisation dependency.

use crate::{Result, ServeError};
use sigma_matrix::DenseMatrix;
use std::io::{Read, Write};

/// Hard ceiling on any single length field, guarding against allocating
/// gigabytes from a corrupt or adversarial length prefix (1 billion
/// elements ≈ 4 GB of `f32`, far above any supported graph).
const MAX_LEN: u64 = 1 << 30;

fn corrupt(reason: impl Into<String>) -> ServeError {
    ServeError::Corrupt {
        reason: reason.into(),
    }
}

/// Reads a checked length prefix.
fn read_len<R: Read>(r: &mut R, what: &str) -> Result<usize> {
    let len = read_u64(r)?;
    if len > MAX_LEN {
        return Err(corrupt(format!(
            "{what} length {len} exceeds the format limit"
        )));
    }
    Ok(len as usize)
}

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn write_f32<W: Write>(w: &mut W, v: f32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn read_f32<R: Read>(r: &mut R) -> Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

pub(crate) fn write_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn read_f64<R: Read>(r: &mut R) -> Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

pub(crate) fn write_string<W: Write>(w: &mut W, s: &str) -> Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

pub(crate) fn read_string<R: Read>(r: &mut R) -> Result<String> {
    let len = read_len(r, "string")?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| corrupt("string section is not valid UTF-8"))
}

fn write_f32_slice<W: Write>(w: &mut W, values: &[f32]) -> Result<()> {
    write_u64(w, values.len() as u64)?;
    for &v in values {
        write_f32(w, v)?;
    }
    Ok(())
}

fn read_f32_vec<R: Read>(r: &mut R, what: &str) -> Result<Vec<f32>> {
    let len = read_len(r, what)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(read_f32(r)?);
    }
    Ok(out)
}

pub(crate) fn write_dense<W: Write>(w: &mut W, m: &DenseMatrix) -> Result<()> {
    write_u64(w, m.rows() as u64)?;
    write_u64(w, m.cols() as u64)?;
    write_f32_slice(w, m.as_slice())?;
    Ok(())
}

pub(crate) fn read_dense<R: Read>(r: &mut R) -> Result<DenseMatrix> {
    let rows = read_len(r, "dense rows")?;
    let cols = read_len(r, "dense cols")?;
    let data = read_f32_vec(r, "dense values")?;
    DenseMatrix::from_vec(rows, cols, data)
        .map_err(|e| corrupt(format!("dense matrix section is inconsistent: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 7).unwrap();
        write_u64(&mut buf, u64::MAX - 3).unwrap();
        write_f32(&mut buf, -1.25).unwrap();
        write_f64(&mut buf, std::f64::consts::PI).unwrap();
        write_string(&mut buf, "snapshot-α").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_u32(&mut r).unwrap(), 7);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(read_f32(&mut r).unwrap(), -1.25);
        assert_eq!(read_f64(&mut r).unwrap(), std::f64::consts::PI);
        assert_eq!(read_string(&mut r).unwrap(), "snapshot-α");
        assert!(r.is_empty());
    }

    #[test]
    fn dense_round_trips() {
        let dense = DenseMatrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32 * 0.5 - 3.0);
        let mut buf = Vec::new();
        write_dense(&mut buf, &dense).unwrap();
        assert_eq!(read_dense(&mut buf.as_slice()).unwrap(), dense);
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        write_dense(&mut buf, &DenseMatrix::filled(2, 2, 1.0)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_dense(&mut buf.as_slice()),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert!(matches!(
            read_string(&mut buf.as_slice()),
            Err(ServeError::Corrupt { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 2).unwrap();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_string(&mut buf.as_slice()),
            Err(ServeError::Corrupt { .. })
        ));
    }
}
