//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic identities the rest of the SIGMA reproduction
//! relies on: agreement between sparse and dense kernels, transpose
//! involution, and shape/structure invariants of top-k pruning and row
//! normalization — and pin the shipped sparse kernels, bit for bit and at
//! every pool width, to the scalar references in `sigma-testutil`.

use proptest::prelude::*;
use sigma_matrix::{CsrMatrix, CsrView, DenseMatrix, MatrixError};
use sigma_testutil::at_pool_width;
use sigma_testutil::reference::{spgemm_reference, spmm_reference, spmm_transpose_reference};

const MAX_DIM: usize = 10;

fn dense_strategy(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data).expect("sized buffer"))
}

/// Raw triplets with indices in `[0, MAX_DIM)`; tests remap them into the
/// actual matrix shape with a modulo so shapes can vary independently.
fn raw_triplets() -> impl Strategy<Value = Vec<(usize, usize, f32)>> {
    prop::collection::vec((0..MAX_DIM, 0..MAX_DIM, -5.0f32..5.0), 0..60)
}

fn remap(trips: &[(usize, usize, f32)], rows: usize, cols: usize) -> Vec<(usize, usize, f32)> {
    trips
        .iter()
        .map(|&(r, c, v)| (r % rows, c % cols, v))
        .collect()
}

fn dense_from_seed(rows: usize, cols: usize, seed: &[f32]) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        let idx = (i * cols + j) % seed.len().max(1);
        seed.get(idx).copied().unwrap_or(0.0)
    })
}

/// `CsrView::validate_structure` as three whole-array sweeps — every
/// `indptr` step, then every column's range, then every row's order — the
/// ranking the one-pass check must reproduce, with the offending row named.
fn validate_by_sweeps(
    (rows, cols): (usize, usize),
    indptr: &[usize],
    indices: &[u32],
) -> Result<(), MatrixError> {
    if indptr.windows(2).any(|w| w[1] < w[0]) {
        return Err(MatrixError::InvalidShape {
            rows,
            cols,
            len: indices.len(),
        });
    }
    let row_cols = |r: usize| &indices[indptr[r]..indptr[r + 1]];
    for r in 0..rows {
        if let Some(&c) = row_cols(r).iter().find(|&&c| c as usize >= cols) {
            return Err(MatrixError::IndexOutOfBounds {
                row: r,
                col: c as usize,
                shape: (rows, cols),
            });
        }
    }
    for r in 0..rows {
        if row_cols(r).windows(2).any(|w| w[1] < w[0]) {
            return Err(MatrixError::UnsortedRow { row: r });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_pass_structure_check_agrees_with_three_sweeps(
        rows in 1..MAX_DIM, cols in 1..MAX_DIM,
        trips in raw_triplets(),
        damage in prop::collection::vec((0u32..2, 0usize..64, 0u32..24), 0..4),
    ) {
        let m = CsrMatrix::from_triplets(rows, cols, &remap(&trips, rows, cols)).unwrap();
        let mut indptr = m.indptr().to_vec();
        let mut indices = m.indices().to_vec();
        // Overwrite interior row pointers (the endpoints are `new`'s to
        // check) and column indices with arbitrary small values.
        for (target, at, value) in damage {
            if target == 0 && rows > 1 {
                indptr[1 + at % (rows - 1)] = value as usize;
            } else if !indices.is_empty() {
                let slot = at % indices.len();
                indices[slot] = value;
            }
        }
        let view = CsrView::new(rows, cols, &indptr, &indices, m.values()).unwrap();
        prop_assert_eq!(
            view.validate_structure(),
            validate_by_sweeps((rows, cols), &indptr, &indices)
        );
    }

    #[test]
    fn spmm_agrees_with_dense_matmul(
        rows in 1..MAX_DIM, inner in 1..MAX_DIM, cols in 1..MAX_DIM,
        trips in raw_triplets(),
        seed in prop::collection::vec(-3.0f32..3.0, 1..32),
    ) {
        let sparse = CsrMatrix::from_triplets(rows, inner, &remap(&trips, rows, inner)).unwrap();
        let rhs = dense_from_seed(inner, cols, &seed);
        let via_sparse = sparse.spmm(&rhs).unwrap();
        let via_dense = sparse.to_dense().matmul(&rhs).unwrap();
        prop_assert_eq!(via_sparse.shape(), via_dense.shape());
        for (a, b) in via_sparse.as_slice().iter().zip(via_dense.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "spmm mismatch: {} vs {}", a, b);
        }
    }

    #[test]
    fn spmm_transpose_agrees_with_transposed_dense(
        rows in 1..MAX_DIM, cols in 1..MAX_DIM, feat in 1..MAX_DIM,
        trips in raw_triplets(),
        seed in prop::collection::vec(-3.0f32..3.0, 1..32),
    ) {
        let sparse = CsrMatrix::from_triplets(rows, cols, &remap(&trips, rows, cols)).unwrap();
        let rhs = dense_from_seed(rows, feat, &seed);
        let fused = sparse.spmm_transpose(&rhs).unwrap();
        let explicit = sparse.transpose().spmm(&rhs).unwrap();
        prop_assert_eq!(fused.shape(), explicit.shape());
        for (a, b) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn spgemm_agrees_with_dense(
        rows in 1..MAX_DIM, inner in 1..MAX_DIM, cols in 1..MAX_DIM,
        t1 in raw_triplets(), t2 in raw_triplets(),
    ) {
        let a = CsrMatrix::from_triplets(rows, inner, &remap(&t1, rows, inner)).unwrap();
        let b = CsrMatrix::from_triplets(inner, cols, &remap(&t2, inner, cols)).unwrap();
        let sparse = a.spgemm(&b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert!((sparse.get(r, c) - dense.get(r, c)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn csr_transpose_is_involution(rows in 1..MAX_DIM, cols in 1..MAX_DIM, trips in raw_triplets()) {
        let sparse = CsrMatrix::from_triplets(rows, cols, &remap(&trips, rows, cols)).unwrap();
        prop_assert_eq!(sparse.transpose().transpose(), sparse);
    }

    #[test]
    fn dense_matmul_is_associative(
        a in dense_strategy(4, 3),
        b in dense_strategy(3, 5),
        c in dense_strategy(5, 2),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-1);
        }
    }

    #[test]
    fn dense_transpose_matmul_identities(a in dense_strategy(5, 4), b in dense_strategy(5, 3)) {
        // Aᵀ·B via the fused kernel equals the explicit formulation.
        let fused = a.matmul_transpose_self(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        for (x, y) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // A·Bᵀ via the fused kernel equals the explicit formulation.
        let c = DenseMatrix::from_fn(2, 4, |i, j| (i + j) as f32 * 0.3 - 0.5);
        let fused2 = a.matmul_transpose_other(&c).unwrap();
        let explicit2 = a.matmul(&c.transpose()).unwrap();
        for (x, y) in fused2.as_slice().iter().zip(explicit2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn top_k_bounds_row_nnz(rows in 1..MAX_DIM, cols in 1..MAX_DIM, k in 1usize..6, trips in raw_triplets()) {
        let sparse = CsrMatrix::from_triplets(rows, cols, &remap(&trips, rows, cols)).unwrap();
        let pruned = sparse.top_k_per_row(k);
        for r in 0..rows {
            prop_assert!(pruned.row_nnz(r) <= k);
            prop_assert!(pruned.row_nnz(r) <= sparse.row_nnz(r));
        }
        // Pruning never increases the Frobenius norm.
        prop_assert!(pruned.frobenius_norm() <= sparse.frobenius_norm() + 1e-5);
    }

    #[test]
    fn row_normalize_produces_stochastic_rows(rows in 1..MAX_DIM, cols in 1..MAX_DIM, trips in raw_triplets()) {
        let positive: Vec<(usize, usize, f32)> = remap(&trips, rows, cols)
            .into_iter()
            .map(|(r, c, v)| (r, c, v.abs() + 0.01))
            .collect();
        let mut sparse = CsrMatrix::from_triplets(rows, cols, &positive).unwrap();
        sparse.row_normalize();
        for (r, sum) in sparse.row_sums().iter().enumerate() {
            if sparse.row_nnz(r) > 0 {
                prop_assert!((sum - 1.0).abs() < 1e-4);
            } else {
                prop_assert_eq!(*sum, 0.0);
            }
        }
    }

    #[test]
    fn dense_sparse_round_trip(rows in 1..MAX_DIM, cols in 1..MAX_DIM, trips in raw_triplets()) {
        let sparse = CsrMatrix::from_triplets(rows, cols, &remap(&trips, rows, cols)).unwrap();
        let round = CsrMatrix::from_dense(&sparse.to_dense(), 0.0);
        // Round trip preserves every stored value (possibly dropping explicit zeros).
        for r in 0..rows {
            for c in 0..cols {
                prop_assert!((sparse.get(r, c) - round.get(r, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn linear_combination_matches_elementwise(
        a in dense_strategy(6, 4),
        b in dense_strategy(6, 4),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
    ) {
        let combo = a.linear_combination(alpha, beta, &b).unwrap();
        for i in 0..6 {
            for j in 0..4 {
                let expect = alpha * a.get(i, j) + beta * b.get(i, j);
                prop_assert!((combo.get(i, j) - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn select_rows_preserves_content(a in dense_strategy(7, 3), idx in prop::collection::vec(0usize..7, 1..10)) {
        let sel = a.select_rows(&idx).unwrap();
        prop_assert_eq!(sel.rows(), idx.len());
        for (dst, &src) in idx.iter().enumerate() {
            prop_assert_eq!(sel.row(dst), a.row(src));
        }
    }
}

const PIN_DIM: usize = 480;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sized so that `2 · nnz` (the `spgemm` estimate; `nnz · f` for the
    /// other two) clears `sigma_parallel::MIN_PARALLEL_WORK` and the fan-out
    /// really runs at 2 and 4 threads, with rows skewed towards the low ids
    /// so the nnz-balanced planner cuts uneven ranges.
    #[test]
    fn shipped_kernels_equal_the_scalar_references_at_every_pool_width(
        n in 400usize..PIN_DIM, f in 8usize..25,
        trips in prop::collection::vec((0..PIN_DIM, 0..PIN_DIM, -5.0f32..5.0), 24_000..28_000),
        seed in prop::collection::vec(-3.0f32..3.0, 1..32),
    ) {
        let skewed: Vec<(usize, usize, f32)> = trips
            .iter()
            .map(|&(r, c, v)| ((r * r / PIN_DIM) % n, c % n, v))
            .collect();
        let m = CsrMatrix::from_triplets(n, n, &skewed).unwrap();
        assert!(2 * m.nnz() >= sigma_parallel::MIN_PARALLEL_WORK, "nnz {}", m.nnz());
        let x = dense_from_seed(n, f, &seed);
        let want_spmm = bits(spmm_reference(&m, &x).as_slice());
        let want_spmm_transpose = bits(spmm_transpose_reference(&m, &x).as_slice());
        let want_spgemm = spgemm_reference(&m, &m);

        for threads in [1usize, 2, 4] {
            let (spmm, spmm_transpose, spgemm) = at_pool_width(threads, || {
                (
                    bits(m.spmm(&x).unwrap().as_slice()),
                    bits(m.spmm_transpose(&x).unwrap().as_slice()),
                    m.spgemm(&m).unwrap(),
                )
            });
            prop_assert!(spmm == want_spmm, "spmm at {} thread(s)", threads);
            prop_assert!(
                spmm_transpose == want_spmm_transpose,
                "spmm_transpose at {} thread(s)",
                threads
            );
            prop_assert_eq!(spgemm.indptr(), want_spgemm.indptr());
            prop_assert_eq!(spgemm.indices(), want_spgemm.indices());
            prop_assert!(
                bits(spgemm.values()) == bits(want_spgemm.values()),
                "spgemm at {} thread(s)",
                threads
            );
        }
    }
}
