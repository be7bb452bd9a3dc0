//! The snapshot format: fixed-endian, 64-byte-aligned sections behind a
//! header table.
//!
//! ## Layout
//!
//! ```text
//! offset 0   magic            8 bytes  b"SIGMASNP"
//! offset 8   version          u32 LE   = 3
//! offset 12  section_count    u32 LE
//! offset 16  section table    section_count × 32-byte entries
//!            ┌ tag      [u8; 8]  ASCII, space-padded
//!            ├ offset   u64 LE   absolute, multiple of 64
//!            ├ len      u64 LE   payload bytes (not padded)
//!            ├ crc32    u32 LE   IEEE CRC32 of the payload
//!            └ pad      u32      zero
//! ...        section payloads, each starting on a 64-byte boundary
//! ```
//!
//! Array sections (`ADJ_*`, `OP_*`, `FEAT`, `EMB`) are raw little-endian
//! element arrays — `u64` row pointers, `u32` column indices, `f32`
//! values — so a little-endian 64-bit host can serve them in place after
//! mapping the file, with no decode step: a row-pointer section is the
//! `&[usize]` a CSR view reads. `META` and `MODEL` are small
//! length-prefixed blobs in the [`crate::codec`] encoding; `MODEL` stores
//! the [`ModelSnapshot`] with its operator *stripped* (the operator lives
//! in the `OP_*` array sections and is re-attached on decode).
//!
//! ## Checksums
//!
//! Each section's `crc32` is the IEEE CRC32 of its payload (reflected
//! polynomial `0xEDB8_8320`, all-ones initial register, final complement —
//! zlib's and PNG's), and [`crc32`] is the one routine that computes it,
//! for the writer and for `MappedSnapshot::verify`. It reads sixteen
//! 256-entry tables built at compile time: `T[0][i]` is the register after
//! shifting byte `i` out bit by bit, and `T[k][i]` is `T[k-1][i]` pushed
//! through one more zero byte, `(T[k-1][i] >> 8) ^ T[0][T[k-1][i] & 0xFF]` —
//! so `T[k][i]` is what byte `i` contributes to the register `k` bytes
//! later. A 16-byte block then costs sixteen independent lookups XORed
//! together (byte `p` in `T[15-p]`, the register folded into the first
//! four bytes) instead of sixteen dependent steps; what is left of a slice
//! after its last whole block goes through `T[0]` a byte at a time. The
//! lookups of one block still wait on the previous block's register, so
//! two slices are checksummed at a time, their blocks interleaved, which
//! keeps a second chain of loads in flight: sections have their own CRCs
//! already, so nothing has to be combined afterwards.

use crate::codec;
use crate::{Result, ServeError};
use sigma::snapshot::{MlpWeights, ModelSnapshot};
use sigma::AggregatorKind;
use std::io::{Read, Write};

/// Bytes before the section table: magic + version + section count.
pub(crate) const PRELUDE_LEN: usize = 16;
/// Size of one section-table entry.
pub(crate) const ENTRY_LEN: usize = 32;
/// Every section payload starts on this boundary.
pub(crate) const SECTION_ALIGN: usize = 64;
/// Hard ceiling on the section count (the format defines 10 tags; the margin
/// tolerates future additive tags without admitting garbage counts).
pub(crate) const MAX_SECTIONS: usize = 64;

/// Section tags (8 bytes, ASCII, space-padded).
pub(crate) const TAG_META: [u8; 8] = *b"META    ";
/// Adjacency row pointers (`u64`).
pub(crate) const TAG_ADJ_PTR: [u8; 8] = *b"ADJ_PTR ";
/// Adjacency column indices (`u32`).
pub(crate) const TAG_ADJ_IDX: [u8; 8] = *b"ADJ_IDX ";
/// Adjacency values (`f32`).
pub(crate) const TAG_ADJ_VAL: [u8; 8] = *b"ADJ_VAL ";
/// Operator row pointers.
pub(crate) const TAG_OP_PTR: [u8; 8] = *b"OP_PTR  ";
/// Operator column indices.
pub(crate) const TAG_OP_IDX: [u8; 8] = *b"OP_IDX  ";
/// Operator values.
pub(crate) const TAG_OP_VAL: [u8; 8] = *b"OP_VAL  ";
/// Node features `X`, row-major `f32`.
pub(crate) const TAG_FEAT: [u8; 8] = *b"FEAT    ";
/// Precomputed embeddings `H`, row-major `f32` (optional).
pub(crate) const TAG_EMB: [u8; 8] = *b"EMB     ";
/// Model blob (weights + hyper-parameters, operator stripped).
pub(crate) const TAG_MODEL: [u8; 8] = *b"MODEL   ";

/// Renders a tag for error messages (trailing pad stripped).
pub(crate) fn tag_str(tag: &[u8; 8]) -> String {
    String::from_utf8_lossy(tag).trim_end().to_string()
}

/// How many bytes one step of [`crc32`] consumes, and so how many tables
/// it reads: table `k` is the CRC of a byte followed by `k` zero bytes.
const SLICES: usize = 16;

const fn slice_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; SLICES] = slice_tables();

/// Folds one 16-byte block into a CRC register: the register meets the
/// first four bytes, and byte `p` of the block reads table `15 - p`.
#[inline(always)]
fn fold_block(crc: u32, b: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    t[15][(head & 0xFF) as usize]
        ^ t[14][((head >> 8) & 0xFF) as usize]
        ^ t[13][((head >> 16) & 0xFF) as usize]
        ^ t[12][(head >> 24) as usize]
        ^ t[11][b[4] as usize]
        ^ t[10][b[5] as usize]
        ^ t[9][b[6] as usize]
        ^ t[8][b[7] as usize]
        ^ t[7][b[8] as usize]
        ^ t[6][b[9] as usize]
        ^ t[5][b[10] as usize]
        ^ t[4][b[11] as usize]
        ^ t[3][b[12] as usize]
        ^ t[2][b[13] as usize]
        ^ t[1][b[14] as usize]
        ^ t[0][b[15] as usize]
}

/// One slice being checksummed: where its CRC goes, the bytes not yet
/// folded in, and the register.
struct Lane<'a> {
    slot: usize,
    rest: &'a [u8],
    crc: u32,
}

impl Lane<'_> {
    /// Runs the lane alone to the end of its slice — whole blocks, then the
    /// tail a byte at a time — and stores the CRC in the lane's slot.
    fn finish(mut self, out: &mut [u32]) {
        let mut blocks = self.rest.chunks_exact(SLICES);
        for b in &mut blocks {
            self.crc = fold_block(self.crc, b);
        }
        for &b in blocks.remainder() {
            self.crc = (self.crc >> 8) ^ CRC_TABLES[0][((self.crc ^ b as u32) & 0xFF) as usize];
        }
        out[self.slot] = !self.crc;
    }
}

/// IEEE CRC32 (the zlib/PNG polynomial) of each slice, slice-by-16, two
/// slices in flight at a time — the one checksum routine of the format,
/// behind both [`SectionWriter::write_to`] and `MappedSnapshot::verify`.
pub(crate) fn crc32(slices: &[&[u8]]) -> Vec<u32> {
    let mut out = vec![0u32; slices.len()];
    let mut pending = slices.iter().enumerate().map(|(slot, &rest)| Lane {
        slot,
        rest,
        crc: !0,
    });
    let mut lanes = [pending.next(), pending.next()];
    while let [Some(x), Some(y)] = &mut lanes {
        // Both lanes advance, block by block in turn, through as many whole
        // blocks as the shorter one has left.
        let shared = x.rest.len().min(y.rest.len()) / SLICES * SLICES;
        let (xs, ys) = (&x.rest[..shared], &y.rest[..shared]);
        for (p, q) in xs.chunks_exact(SLICES).zip(ys.chunks_exact(SLICES)) {
            x.crc = fold_block(x.crc, p);
            y.crc = fold_block(y.crc, q);
        }
        x.rest = &x.rest[shared..];
        y.rest = &y.rest[shared..];
        // The shorter lane (both, on a tie) is down to its tail: finish it
        // and start the next slice in its place.
        for lane in &mut lanes {
            if let Some(done) = lane.take_if(|l| l.rest.len() < SLICES) {
                done.finish(&mut out);
                *lane = pending.next();
            }
        }
    }
    for last in lanes.into_iter().flatten() {
        last.finish(&mut out);
    }
    out
}

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
pub(crate) fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Accumulates `(tag, payload)` pairs and emits the container: prelude,
/// CRC-stamped header table, then 64-byte-aligned payloads.
pub(crate) struct SectionWriter {
    sections: Vec<([u8; 8], Vec<u8>)>,
}

impl SectionWriter {
    pub(crate) fn new() -> Self {
        Self {
            sections: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, tag: [u8; 8], payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    pub(crate) fn write_to<W: Write>(self, w: &mut W) -> Result<()> {
        let table_end = PRELUDE_LEN + ENTRY_LEN * self.sections.len();
        w.write_all(&crate::SNAPSHOT_MAGIC[..])?;
        codec::write_u32(w, crate::SNAPSHOT_VERSION)?;
        codec::write_u32(w, self.sections.len() as u32)?;
        // Header table: offsets are assigned in push order, each payload
        // starting on the next 64-byte boundary after the previous one.
        let payloads: Vec<&[u8]> = self.sections.iter().map(|(_, p)| &p[..]).collect();
        let mut offset = align_up(table_end);
        for ((tag, payload), crc) in self.sections.iter().zip(crc32(&payloads)) {
            w.write_all(tag)?;
            codec::write_u64(w, offset as u64)?;
            codec::write_u64(w, payload.len() as u64)?;
            codec::write_u32(w, crc)?;
            codec::write_u32(w, 0)?;
            offset = align_up(offset + payload.len());
        }
        // Payloads, padded out to alignment with zeros.
        let mut pos = table_end;
        for (_, payload) in &self.sections {
            let start = align_up(pos);
            w.write_all(&vec![0u8; start - pos])?;
            w.write_all(payload)?;
            pos = start + payload.len();
        }
        Ok(())
    }
}

/// The decoded META section: graph dimensions, serving scalars, and the
/// shape facts needed to cross-check every array section's byte length
/// before anything is trusted.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaInfo {
    pub tag: String,
    pub effective_alpha: f64,
    pub num_nodes: u64,
    pub feature_dim: u64,
    pub num_classes: u64,
    pub adj_nnz: u64,
    pub has_operator: bool,
    pub op_nnz: u64,
    pub has_embeddings: bool,
}

pub(crate) fn encode_meta(meta: &MetaInfo) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    codec::write_string(&mut buf, &meta.tag)?;
    codec::write_f64(&mut buf, meta.effective_alpha)?;
    codec::write_u64(&mut buf, meta.num_nodes)?;
    codec::write_u64(&mut buf, meta.feature_dim)?;
    codec::write_u64(&mut buf, meta.num_classes)?;
    codec::write_u64(&mut buf, meta.adj_nnz)?;
    codec::write_u32(&mut buf, meta.has_operator as u32)?;
    codec::write_u64(&mut buf, meta.op_nnz)?;
    codec::write_u32(&mut buf, meta.has_embeddings as u32)?;
    Ok(buf)
}

pub(crate) fn decode_meta(mut bytes: &[u8]) -> Result<MetaInfo> {
    let r = &mut bytes;
    let meta = MetaInfo {
        tag: codec::read_string(r)?,
        effective_alpha: codec::read_f64(r)?,
        num_nodes: codec::read_u64(r)?,
        feature_dim: codec::read_u64(r)?,
        num_classes: codec::read_u64(r)?,
        adj_nnz: codec::read_u64(r)?,
        has_operator: codec::read_u32(r)? != 0,
        op_nnz: codec::read_u64(r)?,
        has_embeddings: codec::read_u32(r)? != 0,
    };
    Ok(meta)
}

/// Serialises row pointers as `u64` little-endian.
pub(crate) fn encode_indptr(indptr: &[usize]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(indptr.len() * 8);
    for &p in indptr {
        buf.extend_from_slice(&(p as u64).to_le_bytes());
    }
    buf
}

/// Serialises `u32` column indices little-endian.
pub(crate) fn encode_u32s(vals: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vals.len() * 4);
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Serialises `f32` values little-endian.
pub(crate) fn encode_f32s(vals: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vals.len() * 4);
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

fn encode_aggregator(kind: AggregatorKind) -> u32 {
    match kind {
        AggregatorKind::SimRank => 0,
        AggregatorKind::SimRankTimesA => 1,
        AggregatorKind::Ppr => 2,
        AggregatorKind::None => 3,
    }
}

fn decode_aggregator(tag: u32) -> Result<AggregatorKind> {
    Ok(match tag {
        0 => AggregatorKind::SimRank,
        1 => AggregatorKind::SimRankTimesA,
        2 => AggregatorKind::Ppr,
        3 => AggregatorKind::None,
        t => {
            return Err(ServeError::Corrupt {
                reason: format!("unknown aggregator tag {t}"),
            })
        }
    })
}

fn write_mlp<W: Write>(w: &mut W, stack: &MlpWeights) -> Result<()> {
    codec::write_u64(w, stack.len() as u64)?;
    for (weight, bias) in stack {
        codec::write_dense(w, weight)?;
        codec::write_dense(w, bias)?;
    }
    Ok(())
}

fn read_mlp<R: Read>(r: &mut R) -> Result<MlpWeights> {
    let layers = codec::read_u64(r)?;
    if layers > 1024 {
        return Err(ServeError::Corrupt {
            reason: format!("implausible MLP depth {layers}"),
        });
    }
    let mut stack = Vec::with_capacity(layers as usize);
    for _ in 0..layers {
        let weight = codec::read_dense(r)?;
        let bias = codec::read_dense(r)?;
        stack.push((weight, bias));
    }
    Ok(stack)
}

/// Encodes a [`ModelSnapshot`] as the `MODEL` section blob, with the
/// operator slot forced empty (the operator rides in the `OP_*` array
/// sections instead, so it can be mapped, not decoded).
pub(crate) fn encode_model_blob(model: &ModelSnapshot) -> Result<Vec<u8>> {
    let mut w = Vec::new();
    codec::write_f64(&mut w, model.delta)?;
    codec::write_f64(&mut w, model.alpha)?;
    match model.alpha_raw {
        Some(raw) => {
            codec::write_u32(&mut w, 1)?;
            codec::write_f32(&mut w, raw)?;
        }
        None => codec::write_u32(&mut w, 0)?,
    }
    codec::write_f32(&mut w, model.dropout)?;
    codec::write_u32(&mut w, encode_aggregator(model.aggregator))?;
    // Operator slot: always "absent" in the blob.
    codec::write_u32(&mut w, 0)?;
    write_mlp(&mut w, &model.mlp_a)?;
    write_mlp(&mut w, &model.mlp_x)?;
    write_mlp(&mut w, &model.mlp_h)?;
    Ok(w)
}

/// Decodes a `MODEL` blob. The returned snapshot has `operator: None`; the
/// caller re-attaches it from the `OP_*` sections.
pub(crate) fn decode_model_blob(mut bytes: &[u8]) -> Result<ModelSnapshot> {
    let r = &mut bytes;
    let delta = codec::read_f64(r)?;
    let alpha = codec::read_f64(r)?;
    let alpha_raw = match codec::read_u32(r)? {
        0 => None,
        1 => Some(codec::read_f32(r)?),
        t => {
            return Err(ServeError::Corrupt {
                reason: format!("invalid alpha_raw tag {t}"),
            })
        }
    };
    let dropout = codec::read_f32(r)?;
    let aggregator = decode_aggregator(codec::read_u32(r)?)?;
    if codec::read_u32(r)? != 0 {
        return Err(ServeError::Corrupt {
            reason: "MODEL blob carries an inline operator; it belongs in the OP_* sections".into(),
        });
    }
    let mlp_a = read_mlp(r)?;
    let mlp_x = read_mlp(r)?;
    let mlp_h = read_mlp(r)?;
    Ok(ModelSnapshot {
        delta,
        alpha,
        alpha_raw,
        dropout,
        aggregator,
        operator: None,
        mlp_a,
        mlp_x,
        mlp_h,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sigma_testutil::reference::crc32_bitwise;

    /// The shipped routine on one slice.
    fn crc32(data: &[u8]) -> u32 {
        super::crc32(&[data])[0]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn every_table_entry_agrees_with_the_bitwise_definition() {
        // One 16-byte block reads one entry of each table: byte `p` indexes
        // table `15 - p` (the first four through the all-ones initial
        // register, which permutes the 256 values without dropping any), so
        // sweeping each byte over every value touches all 16 × 256 entries.
        let base: [u8; 16] = *b"sigma-snapshot!!";
        for p in 0..SLICES {
            for v in 0..=255u8 {
                let mut block = base;
                block[p] = v;
                assert_eq!(crc32(&block), crc32_bitwise(&block), "byte {p} = {v}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every length 0…80 at every start alignment 0…15 of one shared
        /// buffer: empty input, tail only, body only, and up to five blocks
        /// with every tail length, wherever the slice starts.
        #[test]
        fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment(
            buf in prop::collection::vec(any::<u8>(), 96),
        ) {
            for start in 0..SLICES {
                for len in 0..=80 {
                    let slice = &buf[start..start + len];
                    prop_assert!(
                        crc32(slice) == crc32_bitwise(slice),
                        "start {}, len {}",
                        start,
                        len
                    );
                }
            }
        }

        /// Multi-kilobyte buffers whose length lands on, just before and
        /// just after a block boundary.
        #[test]
        fn crc32_matches_the_bitwise_definition_on_long_buffers(
            buf in prop::collection::vec(any::<u8>(), 2048usize..6144),
            start in 0usize..16,
            blocks in 100usize..120,
            tail in 0usize..16,
        ) {
            for len in [blocks * SLICES - 1, blocks * SLICES, blocks * SLICES + tail] {
                let slice = &buf[start..start + len];
                prop_assert!(
                    crc32(slice) == crc32_bitwise(slice),
                    "start {}, len {}",
                    start,
                    len
                );
            }
            let rest = &buf[start..];
            prop_assert_eq!(crc32(rest), crc32_bitwise(rest));
        }

        /// Any list of slices — empty ones, tails only, equal lengths that
        /// retire both lanes at once, one long slice outliving several
        /// short ones — gets each slice's own CRC, in order.
        #[test]
        fn crc32_of_a_slice_list_is_each_slices_own_crc(
            buf in prop::collection::vec(any::<u8>(), 1024),
            cuts in prop::collection::vec((0usize..512, 0usize..512), 0..9),
            twin in 0usize..9,
        ) {
            let mut slices: Vec<&[u8]> = cuts.iter().map(|&(at, len)| &buf[at..at + len]).collect();
            if let Some(&(_, len)) = cuts.get(twin) {
                slices.push(&buf[7..7 + len]);
            }
            let want: Vec<u32> = slices.iter().map(|s| crc32_bitwise(s)).collect();
            prop_assert_eq!(super::crc32(&slices), want);
        }
    }

    #[test]
    fn section_writer_aligns_and_stamps() {
        let mut sw = SectionWriter::new();
        sw.push(TAG_META, vec![1, 2, 3]);
        sw.push(TAG_FEAT, vec![9; 70]);
        let mut buf = Vec::new();
        sw.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], &crate::SNAPSHOT_MAGIC[..]);
        assert_eq!(
            u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            crate::SNAPSHOT_VERSION
        );
        assert_eq!(u32::from_le_bytes(buf[12..16].try_into().unwrap()), 2);
        // First entry.
        assert_eq!(&buf[16..24], &TAG_META);
        let off0 = u64::from_le_bytes(buf[24..32].try_into().unwrap()) as usize;
        let len0 = u64::from_le_bytes(buf[32..40].try_into().unwrap()) as usize;
        let crc0 = u32::from_le_bytes(buf[40..44].try_into().unwrap());
        assert_eq!(off0 % SECTION_ALIGN, 0);
        assert_eq!(len0, 3);
        assert_eq!(&buf[off0..off0 + 3], &[1, 2, 3]);
        assert_eq!(crc0, crc32(&[1, 2, 3]));
        // Second entry starts on the next aligned boundary.
        let off1 = u64::from_le_bytes(buf[56..64].try_into().unwrap()) as usize;
        assert_eq!(off1 % SECTION_ALIGN, 0);
        assert!(off1 >= off0 + 3);
        assert_eq!(&buf[off1..off1 + 70], &[9u8; 70]);
    }

    #[test]
    fn meta_round_trips() {
        let meta = MetaInfo {
            tag: "demo".into(),
            effective_alpha: 0.375,
            num_nodes: 11,
            feature_dim: 5,
            num_classes: 3,
            adj_nnz: 40,
            has_operator: true,
            op_nnz: 31,
            has_embeddings: false,
        };
        let bytes = encode_meta(&meta).unwrap();
        assert_eq!(decode_meta(&bytes).unwrap(), meta);
    }
}
