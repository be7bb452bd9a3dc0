//! SIMD-shaped scalar kernels: the innermost loops of every hot path.
//!
//! Every kernel here is written as *autovectorisable safe Rust*: fixed-width
//! 8-lane blocks over `chunks_exact`, with per-lane accumulators the
//! compiler can map 1:1 onto vector registers. There is deliberately no
//! `std::arch` intrinsic and no `unsafe` — the lane structure in the source
//! *is* the semantics, so the numerical result is identical whether the
//! backend emits AVX2, NEON, or plain scalar code.
//!
//! ## The canonical-reduction-order contract
//!
//! The element-wise kernel ([`axpy`]) has no cross-lane reduction: each
//! output element is a pure function of the matching input elements, so its
//! results are bit-identical to the naive `zip` loop by construction.
//!
//! Reducing kernels ([`dot`]) fix **one canonical order** and never deviate
//! from it: lane `l` accumulates elements `l, l + 8, l + 16, …` in index
//! order, the 8 lane sums are combined by the fixed binary tree
//! `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, and the `len % 8` tail is
//! accumulated sequentially and added last. A compiler that vectorises the
//! lane loop computes exactly this expression; one that does not computes it
//! scalar-ly — the bits cannot differ. The parity tests in
//! `tests/parallel_parity.rs` (and the `#[cfg(test)]` references below) pin
//! the contract against straightforward scalar re-implementations.

/// Lane width of the register-blocked kernels. Eight `f32`s fill one AVX2
/// register (and two NEON registers); the value is part of the canonical
/// reduction order of [`dot`] and must never change silently.
pub const LANES: usize = 8;

/// `out[i] += s * x[i]` — the axpy row update at the heart of `spmm`,
/// `spmm_transpose`, `spmm_rows` and the dense `matmul` /
/// `matmul_transpose_self` accumulation.
///
/// Element-wise: bit-identical to the naive loop at any vector width.
///
/// # Panics
/// In debug builds, panics if the slices differ in length; in release the
/// shorter length wins (callers always pass equal lengths).
#[inline]
pub fn axpy(out: &mut [f32], s: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy operands must match");
    let mut oc = out.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (ov, xv) in oc.by_ref().zip(xc.by_ref()) {
        for (o, &v) in ov.iter_mut().zip(xv.iter()) {
            *o += s * v;
        }
    }
    for (o, &v) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o += s * v;
    }
}

/// Dot product in the canonical 8-lane reduction order (see the module
/// docs): the kernel behind `matmul_transpose_other` (`dX = dY·Wᵀ`).
///
/// The result is a pure function of the operands — independent of thread
/// count, compiler vectorisation choices, and target ISA — but it is *not*
/// the left-to-right sequential sum (lane-striped partial sums are combined
/// by a fixed tree). Callers that need the historical sequential order do
/// not exist anymore; the canonical order is the contract.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot operands must match");
    let mut lanes = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (av, bv) in ac.by_ref().zip(bc.by_ref()) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(av.iter()).zip(bv.iter()) {
            *acc += x * y;
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    reduce_lanes(lanes) + tail
}

/// The fixed lane-combination tree of the canonical reduction order. Public
/// so parity tests (and future reducing kernels) can share the exact
/// expression instead of re-deriving it.
#[inline]
pub fn reduce_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value noise (splitmix-style finaliser).
    fn pseudo(i: usize, seed: u64) -> f32 {
        let mut h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    }

    fn noise(len: usize, seed: u64) -> Vec<f32> {
        (0..len).map(|i| pseudo(i, seed)).collect()
    }

    /// Scalar reference for [`dot`]: the same canonical order written as
    /// plain indexed loops, retained to pin the contract.
    #[allow(clippy::needless_range_loop)] // indexed on purpose: mirrors the contract prose
    fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        let blocks = a.len() / LANES;
        for blk in 0..blocks {
            for l in 0..LANES {
                let i = blk * LANES + l;
                lanes[l] += a[i] * b[i];
            }
        }
        let mut tail = 0.0f32;
        for i in blocks * LANES..a.len() {
            tail += a[i] * b[i];
        }
        ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
            + tail
    }

    #[test]
    fn axpy_matches_naive_loop_bitwise() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let x = noise(len, 1);
            let s = 0.37f32;
            let mut fast = noise(len, 2);
            let mut naive = fast.clone();
            axpy(&mut fast, s, &x);
            for (o, &v) in naive.iter_mut().zip(&x) {
                *o += s * v;
            }
            for (a, b) in fast.iter().zip(&naive) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn dot_matches_scalar_reference_bitwise() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 255, 256, 1031] {
            let a = noise(len, 4);
            let b = noise(len, 5);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_reference(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn dot_is_close_to_f64_reference() {
        let a = noise(4096, 6);
        let b = noise(4096, 7);
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        assert!((dot(&a, &b) as f64 - exact).abs() < 1e-2);
    }
}
