//! Eval-mode forward passes from exported weights.
//!
//! The serve-side encoder runs the snapshot's borrowed `(weight, bias)`
//! stacks through [`sigma_nn::infer_parts`], which is the pass
//! [`sigma_nn::Mlp::infer`] — the trainer's evaluation forward — runs, so
//! the resulting embeddings are identical to the training-side eval forward
//! *by construction*: the same layer code executes, not a re-implementation
//! of it, and it copies neither a weight, its input nor any activation.
//! Every layer's bias shape and the chaining of consecutive layers are
//! checked as the pass runs.

use crate::Result;
use sigma::snapshot::{MlpWeights, ModelSnapshot};
use sigma_matrix::{CsrMatrix, DenseMatrix, DenseView};

/// Runs an exported MLP on a dense input (eval mode: ReLU between layers,
/// no dropout).
pub fn mlp_infer_dense(stack: &MlpWeights, input: &DenseMatrix) -> Result<DenseMatrix> {
    Ok(sigma_nn::infer_parts(stack, |w| input.matmul(w))?)
}

/// Runs an exported MLP whose first layer consumes a sparse input (the
/// `MLP_A(A)` path).
pub fn mlp_infer_sparse(stack: &MlpWeights, input: &CsrMatrix) -> Result<DenseMatrix> {
    Ok(sigma_nn::infer_parts(stack, |w| input.spmm(w))?)
}

/// Computes the full-graph embedding `H` of Eq. 4 from a model snapshot:
/// `H = MLP_H(δ·MLP_X(X) + (1−δ)·MLP_A(A))`.
pub fn compute_embeddings(
    model: &ModelSnapshot,
    features: &DenseMatrix,
    adjacency: &CsrMatrix,
) -> Result<DenseMatrix> {
    let h_a = mlp_infer_sparse(&model.mlp_a, adjacency)?;
    let h_x = mlp_infer_dense(&model.mlp_x, features)?;
    let combined = h_x.linear_combination(model.delta as f32, (1.0 - model.delta) as f32, &h_a)?;
    mlp_infer_dense(&model.mlp_h, &combined)
}

/// Computes the embedding rows of the listed nodes only.
///
/// `adjacency` must be the *full* `n × n` adjacency; the listed rows are
/// gathered out of it before the encoder runs. Every operation in the
/// encoder stack (GEMM, SpMM, bias, ReLU) is row-local with a fixed per-row
/// accumulation order, so the returned rows are **bitwise identical** to the
/// corresponding rows of [`compute_embeddings`] on the same inputs — the
/// property that lets the engine's incremental repair patch `H` rows in
/// place after an edge edit instead of re-encoding the whole graph.
pub fn compute_embeddings_rows(
    model: &ModelSnapshot,
    features: DenseView<'_>,
    adjacency: &CsrMatrix,
    rows: &[usize],
) -> Result<DenseMatrix> {
    compute_embeddings(
        model,
        &features.select_rows(rows)?,
        &adjacency.gather_rows(rows)?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_inference_matches_manual_two_layer() {
        // y = relu(x·W1 + b1)·W2 + b2 computed by hand on tiny matrices.
        let w1 = DenseMatrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]).unwrap();
        let b1 = DenseMatrix::from_rows(&[&[0.1, -0.2]]).unwrap();
        let w2 = DenseMatrix::from_rows(&[&[2.0], &[1.0]]).unwrap();
        let b2 = DenseMatrix::from_rows(&[&[-1.0]]).unwrap();
        let stack = vec![(w1, b1), (w2, b2)];
        let x = DenseMatrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        // Layer 1: [1*1 + 1*0.5 + 0.1, 1*-1 + 1*2 - 0.2] = [1.6, 0.8]
        // ReLU: unchanged. Layer 2: 1.6*2 + 0.8*1 - 1 = 3.0.
        let y = mlp_infer_dense(&stack, &x).unwrap();
        assert_eq!(y.shape(), (1, 1));
        assert!((y.get(0, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_first_layer_matches_dense_equivalent() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]).unwrap();
        let w1 = DenseMatrix::from_fn(3, 4, |i, j| (i + j) as f32 * 0.3 - 0.4);
        let b1 = DenseMatrix::from_fn(1, 4, |_, j| j as f32 * 0.05);
        let w2 = DenseMatrix::from_fn(4, 2, |i, j| (i as f32 - j as f32) * 0.2);
        let b2 = DenseMatrix::zeros(1, 2);
        let stack = vec![(w1, b1), (w2, b2)];
        let sparse = mlp_infer_sparse(&stack, &a).unwrap();
        let dense = mlp_infer_dense(&stack, &a.to_dense()).unwrap();
        for (s, d) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!((s - d).abs() < 1e-6);
        }
    }

    #[test]
    fn row_sliced_embeddings_match_the_full_encode_bitwise() {
        use sigma::snapshot::ModelSnapshot;
        use sigma::AggregatorKind;
        let n = 12usize;
        let f = 5usize;
        let hidden = 7usize;
        let classes = 3usize;
        let layer = |rows: usize, cols: usize, scale: f32| {
            (
                DenseMatrix::from_fn(rows, cols, move |i, j| {
                    ((i * 31 + j * 17) % 13) as f32 * scale - 0.4
                }),
                DenseMatrix::from_fn(1, cols, move |_, j| j as f32 * 0.03 - 0.1),
            )
        };
        let model = ModelSnapshot {
            delta: 0.55,
            alpha: 0.3,
            alpha_raw: None,
            dropout: 0.0,
            aggregator: AggregatorKind::SimRank,
            operator: None,
            mlp_a: vec![layer(n, hidden, 0.11), layer(hidden, hidden, 0.07)],
            mlp_x: vec![layer(f, hidden, 0.09), layer(hidden, hidden, 0.05)],
            mlp_h: vec![layer(hidden, classes, 0.13)],
        };
        let features = DenseMatrix::from_fn(n, f, |i, j| ((i * 7 + j) % 5) as f32 * 0.3 - 0.6);
        let adjacency = CsrMatrix::from_triplets(
            n,
            n,
            &(0..n)
                .flat_map(|i| [(i, (i + 1) % n, 1.0f32), ((i + 1) % n, i, 1.0f32)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let full = compute_embeddings(&model, &features, &adjacency).unwrap();
        let rows = [0usize, 3, 4, 11];
        let sliced = compute_embeddings_rows(&model, features.view(), &adjacency, &rows).unwrap();
        assert_eq!(sliced.shape(), (rows.len(), classes));
        for (i, &r) in rows.iter().enumerate() {
            let full_bits: Vec<u32> = full.row(r).iter().map(|v| v.to_bits()).collect();
            let sliced_bits: Vec<u32> = sliced.row(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(full_bits, sliced_bits, "H row {r} is not bitwise equal");
        }
    }

    #[test]
    fn malformed_layer_shapes_are_rejected_not_truncated() {
        // Bias narrower than the weight's output width must error, not
        // silently bias only the first columns.
        let stack = vec![(DenseMatrix::zeros(2, 3), DenseMatrix::zeros(1, 2))];
        let x = DenseMatrix::zeros(4, 2);
        assert!(mlp_infer_dense(&stack, &x).is_err());
        // Non-chaining consecutive layers must error too.
        let stack = vec![
            (DenseMatrix::zeros(2, 3), DenseMatrix::zeros(1, 3)),
            (DenseMatrix::zeros(4, 2), DenseMatrix::zeros(1, 2)),
        ];
        assert!(mlp_infer_dense(&stack, &x).is_err());
    }
}
