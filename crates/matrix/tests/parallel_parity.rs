//! Serial/parallel parity: every kernel refactored onto the shared
//! `sigma-parallel` pool must produce **bitwise identical** results at every
//! thread count. These properties force the global pool to 1 and 4 threads
//! and compare `f32` bit patterns — no tolerance. Inputs are sized above
//! `sigma_parallel::MIN_PARALLEL_WORK` so the parallel path actually runs.
//!
//! CI additionally runs the whole suite under `SIGMA_NUM_THREADS=1` and
//! `SIGMA_NUM_THREADS=4`, so any thread-count-dependent result also fails
//! the ordinary kernel tests.

use proptest::prelude::*;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_testutil::at_pool_width;

/// Deterministic value noise in `[-1, 1)` (splitmix-style finaliser).
fn pseudo(i: usize, j: usize, seed: u64) -> f32 {
    let mut h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| pseudo(i, j, seed))
}

/// A sparse matrix with expected density `density` and noise values.
fn sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    let mut triplets = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            if (pseudo(i, j, seed ^ 0xA5A5) as f64 + 1.0) / 2.0 < density {
                triplets.push((i, j, pseudo(i, j, seed)));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

/// A power-law ("skewed-degree") sparse matrix: row `i` holds roughly
/// `rows / (i + 1)` entries, so the first few rows carry most of the nnz —
/// the worst case for equal-row-count partitioning and the motivating
/// input for the nnz-balanced planner.
fn skewed(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let mut triplets = Vec::new();
    for i in 0..rows {
        let nnz = (rows / (i + 1)).clamp(1, cols);
        for e in 0..nnz {
            // Spread deterministically over the columns; duplicates sum.
            let j = (e * 31 + i * 7 + seed as usize) % cols;
            triplets.push((i, j, pseudo(i, e, seed)));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

fn assert_bitwise_eq(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (idx, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: bit mismatch at flat index {idx}: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Runs `f` under 1 thread and under 4 threads — each call holding the
/// binary's pool-width lock, so a sibling test cannot flip the width under
/// it — and returns both results.
fn at_1_and_4_threads<R>(f: impl Fn() -> R) -> (R, R) {
    (at_pool_width(1, &f), at_pool_width(4, &f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn spmm_parallel_is_bitwise_identical(seed in 0u64..1_000_000, f in 16usize..40) {
        // ~300·300·0.05 = 4.5k nnz; × f ≥ 72k flops — well above the
        // parallel threshold.
        let m = sparse(300, 300, 0.05, seed);
        let x = dense(300, f, seed ^ 1);
        let (serial, parallel) = at_1_and_4_threads(|| m.spmm(&x).unwrap());
        assert_bitwise_eq(&serial, &parallel, "spmm");
    }

    #[test]
    fn spmm_transpose_parallel_is_bitwise_identical(seed in 0u64..1_000_000, f in 16usize..40) {
        // Rectangular on purpose: output rows = columns of the operator.
        let m = sparse(320, 250, 0.05, seed);
        let x = dense(320, f, seed ^ 2);
        let (serial, parallel) = at_1_and_4_threads(|| m.spmm_transpose(&x).unwrap());
        assert_bitwise_eq(&serial, &parallel, "spmm_transpose");
    }

    #[test]
    fn spmm_rows_parallel_is_bitwise_identical(seed in 0u64..1_000_000) {
        let m = sparse(300, 300, 0.08, seed);
        let x = dense(300, 32, seed ^ 3);
        // Batch with duplicates and arbitrary order.
        let rows: Vec<usize> = (0..600).map(|i| (i * 7 + seed as usize) % 300).collect();
        let (serial, parallel) = at_1_and_4_threads(|| m.spmm_rows(&rows, &x).unwrap());
        assert_bitwise_eq(&serial, &parallel, "spmm_rows");
    }

    #[test]
    fn spgemm_parallel_is_identical(seed in 0u64..1_000_000) {
        // nnz(a) + nnz(b) ≈ 2·300·300·0.2 = 36k ≥ the parallel threshold.
        let a = sparse(300, 300, 0.2, seed);
        let b = sparse(300, 300, 0.2, seed ^ 4);
        let (serial, parallel) = at_1_and_4_threads(|| a.spgemm(&b).unwrap());
        // CSR equality is structural + exact f32 values.
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn matmul_parallel_is_bitwise_identical(seed in 0u64..1_000_000, k in 32usize..64) {
        let a = dense(120, k, seed);
        let b = dense(k, 90, seed ^ 5);
        let (serial, parallel) = at_1_and_4_threads(|| a.matmul(&b).unwrap());
        assert_bitwise_eq(&serial, &parallel, "matmul");
    }

    #[test]
    fn matmul_transpose_variants_are_bitwise_identical(seed in 0u64..1_000_000) {
        let a = dense(200, 48, seed);
        let b = dense(200, 56, seed ^ 6);
        let (serial, parallel) = at_1_and_4_threads(|| a.matmul_transpose_self(&b).unwrap());
        assert_bitwise_eq(&serial, &parallel, "matmul_transpose_self");

        let c = dense(130, 48, seed ^ 7);
        let (serial, parallel) = at_1_and_4_threads(|| a.matmul_transpose_other(&c).unwrap());
        assert_bitwise_eq(&serial, &parallel, "matmul_transpose_other");
    }
}

// ---------------------------------------------------------------------------
// Scalar references for the SIMD-shaped kernels.
//
// These re-implement the canonical accumulation orders as plain loops: the
// optimised kernels (8-lane `sigma_matrix::kernels`, nnz-balanced blocks)
// must match them bit for bit at every thread count. They are the
// "pre-optimisation scalar path" the micro-opt bench also checks against.
// ---------------------------------------------------------------------------

/// Serial scalar spmm: per-row, per-entry, left-to-right over the feature
/// dimension — the historical kernel order.
fn reference_spmm(m: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    let f = x.cols();
    let mut out = DenseMatrix::zeros(m.rows(), f);
    for r in 0..m.rows() {
        for (c, v) in m.row_iter(r) {
            let x_row = x.row(c);
            let out_row = out.row_mut(r);
            for j in 0..f {
                out_row[j] += v * x_row[j];
            }
        }
    }
    out
}

/// Serial scalar transposed spmm: the historical scatter over input rows.
fn reference_spmm_transpose(m: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    let f = x.cols();
    let mut out = DenseMatrix::zeros(m.cols(), f);
    for r in 0..m.rows() {
        for (c, v) in m.row_iter(r) {
            let x_row = x.row(r);
            let out_row = out.row_mut(c);
            for j in 0..f {
                out_row[j] += v * x_row[j];
            }
        }
    }
    out
}

/// Scalar reference for `matmul_transpose_other`'s canonical 8-lane dot:
/// lane `l` sums elements `l, l+8, …` in index order, lanes combine by the
/// fixed tree `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, tail added last.
fn reference_dot_canonical(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = sigma_matrix::kernels::LANES;
    let mut lanes = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    for blk in 0..blocks {
        for l in 0..LANES {
            lanes[l] += a[blk * LANES + l] * b[blk * LANES + l];
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

fn reference_matmul_transpose_other(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out.set(i, j, reference_dot_canonical(a.row(i), b.row(j)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Skewed-degree graphs: nnz-balanced blocks cut rows unevenly, which
    /// must never show in the bits.
    #[test]
    fn skewed_spmm_matches_scalar_reference_at_1_and_4_threads(seed in 0u64..1_000_000) {
        let m = skewed(400, 400, seed);
        let x = dense(400, 24, seed ^ 11);
        let expect = reference_spmm(&m, &x);
        let (serial, parallel) = at_1_and_4_threads(|| m.spmm(&x).unwrap());
        assert_bitwise_eq(&serial, &expect, "skewed spmm vs scalar reference (1t)");
        assert_bitwise_eq(&parallel, &expect, "skewed spmm vs scalar reference (4t)");
    }

    #[test]
    fn skewed_spmm_transpose_matches_scalar_reference_at_1_and_4_threads(
        seed in 0u64..1_000_000,
    ) {
        // Transposing the skew puts the mass in a few *columns* — the
        // output rows of spmm_transpose — stressing the column histogram
        // planner and the hoisted column windows.
        let m = skewed(380, 300, seed);
        let x = dense(380, 20, seed ^ 12);
        let expect = reference_spmm_transpose(&m, &x);
        let (serial, parallel) = at_1_and_4_threads(|| m.spmm_transpose(&x).unwrap());
        assert_bitwise_eq(&serial, &expect, "skewed spmm_transpose vs reference (1t)");
        assert_bitwise_eq(&parallel, &expect, "skewed spmm_transpose vs reference (4t)");
    }

    #[test]
    fn skewed_spgemm_is_thread_count_independent(seed in 0u64..1_000_000) {
        let a = skewed(300, 300, seed);
        let b = skewed(300, 300, seed ^ 13);
        let (serial, parallel) = at_1_and_4_threads(|| a.spgemm(&b).unwrap());
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn matmul_transpose_other_matches_canonical_reference(seed in 0u64..1_000_000) {
        // Feature widths straddling the 8-lane boundary exercise block,
        // tail, and mixed reductions.
        for k in [7usize, 8, 9, 48, 51] {
            let a = dense(120, k, seed);
            let b = dense(90, k, seed ^ 14);
            let expect = reference_matmul_transpose_other(&a, &b);
            let (serial, parallel) = at_1_and_4_threads(|| a.matmul_transpose_other(&b).unwrap());
            assert_bitwise_eq(&serial, &expect, "mto vs canonical reference (1t)");
            assert_bitwise_eq(&parallel, &expect, "mto vs canonical reference (4t)");
        }
    }
}

#[test]
fn skewed_spmm_rows_is_bitwise_stable_across_a_thread_sweep() {
    let m = skewed(350, 350, 7);
    let x = dense(350, 24, 8);
    // A batch dominated by the heavy head rows plus a light tail: the
    // weighted planner cuts this very unevenly by row count.
    let rows: Vec<usize> = (0..700)
        .map(|i| if i % 3 == 0 { i % 5 } else { i % 350 })
        .collect();
    let reference = at_pool_width(1, || m.spmm_rows(&rows, &x).unwrap());
    for threads in [2usize, 4, 8] {
        let result = at_pool_width(threads, || m.spmm_rows(&rows, &x).unwrap());
        assert_bitwise_eq(
            &reference,
            &result,
            &format!("skewed spmm_rows at {threads} threads"),
        );
    }
}

#[test]
fn spmm_is_bitwise_stable_across_a_thread_sweep() {
    let m = sparse(400, 400, 0.04, 99);
    let x = dense(400, 24, 17);
    let reference = at_pool_width(1, || m.spmm(&x).unwrap());
    for threads in [2usize, 3, 4, 8] {
        let result = at_pool_width(threads, || m.spmm(&x).unwrap());
        assert_bitwise_eq(&reference, &result, &format!("spmm at {threads} threads"));
    }
}
