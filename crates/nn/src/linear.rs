//! Fully-connected layer with manual backpropagation.

use crate::{xavier_uniform, NnError, Optimizer, Result};
use rand::Rng;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_parallel::ThreadPool;

/// A dense linear layer `Y = X·W + b`.
///
/// [`Linear::forward`] / [`Linear::forward_sparse`] cache the layer input —
/// nothing else — for the backward pass. For the LINKX/SIGMA `MLP(A)`
/// component the input is the sparse adjacency matrix;
/// [`Linear::forward_sparse`] computes `A·W` without densifying `A` (the
/// paper stresses this keeps the cost at `O(m·f)`).
///
/// Three passes read the parameters, each computing only what its caller
/// uses:
///
/// * [`Linear::backward_params`] accumulates `dW = Xᵀ·dY` and `db = 1ᵀ·dY`.
///   It is the whole backward pass of a *leaf* layer — one whose input is a
///   constant of the graph (`X`, `A`) — and `O(m·f)` on a sparse input, so
///   a training step of `MLP_A(A)` is as sparse as its forward pass.
/// * [`Linear::backward`] is `backward_params` plus `dX = dY·Wᵀ`, for inner
///   layers whose input is an activation. A sparse input has no such
///   gradient (it would be a dense `n × n` matrix with respect to the
///   adjacency): after `forward_sparse` it returns
///   [`NnError::NoSparseInputGradient`].
/// * [`Linear::forward_inference`] takes `&self` and caches nothing; it is
///   what [`crate::Mlp::infer`] runs.
///
/// Every matrix product here (`X·W`, `A·W`, `Xᵀ·dY`, `dY·Wᵀ`) runs on the
/// shared [`sigma_parallel::ThreadPool`] via the `sigma-matrix` kernels, and
/// the bias broadcast is row-partitioned on the same pool — all with
/// bitwise-deterministic results, so training is reproducible across
/// `SIGMA_NUM_THREADS` settings. The `db` column reduction stays serial: its
/// accumulation order would otherwise depend on the partition.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: DenseMatrix,
    bias: DenseMatrix,
    grad_weight: DenseMatrix,
    grad_bias: DenseMatrix,
    cached_input: CachedInput,
}

/// The input of the last caching forward pass.
#[derive(Debug, Clone)]
enum CachedInput {
    None,
    Dense(DenseMatrix),
    Sparse(CsrMatrix),
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self {
            weight: xavier_uniform(in_features, out_features, rng),
            bias: DenseMatrix::zeros(1, out_features),
            grad_weight: DenseMatrix::zeros(in_features, out_features),
            grad_bias: DenseMatrix::zeros(1, out_features),
            cached_input: CachedInput::None,
        }
    }

    /// Rebuilds a layer from exported parameters (snapshot restore path).
    ///
    /// `weight` must be `in × out` and `bias` must be `1 × out`; gradients
    /// and caches start cleared, so the layer is immediately usable for both
    /// inference and further training.
    pub fn from_parts(weight: DenseMatrix, bias: DenseMatrix) -> Result<Self> {
        if bias.rows() != 1 || bias.cols() != weight.cols() {
            return Err(sigma_matrix::MatrixError::DimensionMismatch {
                op: "Linear::from_parts",
                lhs: weight.shape(),
                rhs: bias.shape(),
            }
            .into());
        }
        let (in_features, out_features) = weight.shape();
        Ok(Self {
            weight,
            bias,
            grad_weight: DenseMatrix::zeros(in_features, out_features),
            grad_bias: DenseMatrix::zeros(1, out_features),
            cached_input: CachedInput::None,
        })
    }

    /// Exports the trainable parameters as `(weight, bias)` clones.
    pub fn export_parts(&self) -> (DenseMatrix, DenseMatrix) {
        (self.weight.clone(), self.bias.clone())
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// Immutable access to the weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// Immutable access to the bias row vector.
    pub fn bias(&self) -> &DenseMatrix {
        &self.bias
    }

    /// Number of trainable scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.cols()
    }

    /// Forward pass on a dense input, caching the input for backward.
    pub fn forward(&mut self, input: &DenseMatrix) -> Result<DenseMatrix> {
        let out = self.forward_inference(input)?;
        self.cached_input = CachedInput::Dense(input.clone());
        Ok(out)
    }

    /// Forward pass on a sparse input (e.g. the adjacency matrix in
    /// `MLP(A)`), caching the input for [`Linear::backward_params`].
    pub fn forward_sparse(&mut self, input: &CsrMatrix) -> Result<DenseMatrix> {
        let out = self.forward_inference_sparse(input)?;
        self.cached_input = CachedInput::Sparse(input.clone());
        Ok(out)
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, input: &DenseMatrix) -> Result<DenseMatrix> {
        with_bias(input.matmul(&self.weight)?, &self.bias)
    }

    /// Sparse-input forward pass without caching (inference only).
    pub(crate) fn forward_inference_sparse(&self, input: &CsrMatrix) -> Result<DenseMatrix> {
        with_bias(input.spmm(&self.weight)?, &self.bias)
    }

    /// Parameter half of the backward pass: accumulates `dW = Xᵀ·dY` and
    /// `db = 1ᵀ·dY` and computes no input gradient. This is all a leaf layer
    /// needs, and the only backward pass a sparse-input layer has.
    ///
    /// Returns [`NnError::MissingForwardCache`] if no caching forward pass
    /// preceded this call.
    pub fn backward_params(&mut self, grad_output: &DenseMatrix) -> Result<()> {
        let grad_w = match &self.cached_input {
            CachedInput::Dense(x) => x.matmul_transpose_self(grad_output)?,
            CachedInput::Sparse(a) => a.spmm_transpose(grad_output)?,
            CachedInput::None => return Err(NnError::MissingForwardCache { layer: "Linear" }),
        };
        self.grad_weight.add_assign(&grad_w)?;
        // db: column sums of dY, rows ascending (serial, see the type docs).
        let grad_bias = self.grad_bias.row_mut(0);
        for r in 0..grad_output.rows() {
            for (acc, &v) in grad_bias.iter_mut().zip(grad_output.row(r)) {
                *acc += v;
            }
        }
        Ok(())
    }

    /// Full backward pass of an inner layer: [`Linear::backward_params`],
    /// then returns `dX = dY·Wᵀ`.
    ///
    /// Returns [`NnError::MissingForwardCache`] if no caching forward pass
    /// preceded this call and [`NnError::NoSparseInputGradient`] after
    /// [`Linear::forward_sparse`].
    pub fn backward(&mut self, grad_output: &DenseMatrix) -> Result<DenseMatrix> {
        if matches!(self.cached_input, CachedInput::Sparse(_)) {
            return Err(NnError::NoSparseInputGradient { layer: "Linear" });
        }
        self.backward_params(grad_output)?;
        Ok(grad_output.matmul_transpose_other(&self.weight)?)
    }

    /// Clears accumulated gradients and cached activations.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    /// Applies the accumulated gradients with `optimizer`. `key_base` must be
    /// unique per layer within a model (each layer consumes two keys).
    pub fn apply_gradients(
        &mut self,
        optimizer: &mut dyn Optimizer,
        key_base: usize,
    ) -> Result<()> {
        optimizer.update(key_base, &mut self.weight, &self.grad_weight)?;
        optimizer.update(key_base + 1, &mut self.bias, &self.grad_bias)?;
        Ok(())
    }

    /// L2 norm of the accumulated weight gradient (diagnostics/tests).
    pub fn grad_norm(&self) -> f32 {
        (self.grad_weight.frobenius_norm().powi(2) + self.grad_bias.frobenius_norm().powi(2)).sqrt()
    }
}

/// `out` plus the `1 × out.cols()` row `bias` on every row: how every
/// forward pass ends, with the parameters borrowed. Row-partitioned on the
/// pool, each output row touched by exactly one thread, so the result
/// matches the serial loop bitwise.
pub(crate) fn with_bias(mut out: DenseMatrix, bias: &DenseMatrix) -> Result<DenseMatrix> {
    if bias.rows() != 1 || bias.cols() != out.cols() {
        return Err(sigma_matrix::MatrixError::DimensionMismatch {
            op: "bias",
            lhs: out.shape(),
            rhs: bias.shape(),
        }
        .into());
    }
    let (bias, width) = (bias.row(0), out.cols());
    if width == 0 {
        return Ok(out);
    }
    let broadcast = |_first_row: usize, block: &mut [f32]| {
        for row in block.chunks_exact_mut(width) {
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    };
    let pool = ThreadPool::global();
    if pool.should_parallelize(out.rows().saturating_mul(width)) {
        pool.par_row_blocks_mut(out.as_mut_slice(), width, broadcast);
    } else {
        broadcast(0, out.as_mut_slice());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::bits;
    use crate::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Linear {
        /// Bit patterns of the accumulated `(dW, db)`, for the bitwise pins
        /// here and in `mlp.rs`.
        pub(crate) fn grad_bits(&self) -> (Vec<u32>, Vec<u32>) {
            (bits(&self.grad_weight), bits(&self.grad_bias))
        }
    }

    fn finite_difference_check(
        layer: &mut Linear,
        input: &DenseMatrix,
        row: usize,
        col: usize,
        params_only: bool,
    ) -> (f32, f32) {
        // Loss = sum of outputs. dLoss/dW[row][col] analytically vs numerically.
        let ones = DenseMatrix::filled(input.rows(), layer.out_features(), 1.0);
        layer.zero_grad();
        let _ = layer.forward(input).unwrap();
        if params_only {
            layer.backward_params(&ones).unwrap();
        } else {
            let _ = layer.backward(&ones).unwrap();
        }
        let analytic = layer.grad_weight.get(row, col);

        let eps = 1e-3;
        let mut plus = layer.clone();
        plus.weight.set(row, col, plus.weight.get(row, col) + eps);
        let out_plus = plus.forward_inference(input).unwrap().sum();
        let mut minus = layer.clone();
        minus.weight.set(row, col, minus.weight.get(row, col) - eps);
        let out_minus = minus.forward_inference(input).unwrap().sum();
        let numeric = (out_plus - out_minus) / (2.0 * eps);
        (analytic, numeric)
    }

    #[test]
    fn forward_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = DenseMatrix::filled(4, 3, 0.0);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), (4, 2));
        // Zero input means output equals bias (zero-initialised).
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(layer.num_parameters(), 3 * 2 + 2);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(3, 2, &mut rng);
        let dy = DenseMatrix::zeros(4, 2);
        assert!(matches!(
            layer.backward(&dy),
            Err(NnError::MissingForwardCache { .. })
        ));
        assert!(matches!(
            layer.backward_params(&dy),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = DenseMatrix::from_fn(5, 4, |i, j| ((i + 2 * j) as f32).sin());
        for &(r, c, params_only) in &[(0, 0, false), (2, 1, false), (3, 2, false), (2, 1, true)] {
            let (analytic, numeric) = finite_difference_check(&mut layer, &x, r, c, params_only);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "grad mismatch at ({r},{c}): {analytic} vs {numeric}"
            );
        }
    }

    /// `(dW, db)` bits the way the layer computed them before
    /// `backward_params` existed: `0 + Xᵀ·dY`, and `db` summed into a
    /// temporary with `get`/`set` and then added.
    fn reference_grad_bits(grad_w: DenseMatrix, dy: &DenseMatrix) -> (Vec<u32>, Vec<u32>) {
        let mut dw = DenseMatrix::zeros(grad_w.rows(), grad_w.cols());
        dw.add_assign(&grad_w).unwrap();
        let mut db = DenseMatrix::zeros(1, dy.cols());
        for r in 0..dy.rows() {
            for (j, &v) in dy.row(r).iter().enumerate() {
                db.set(0, j, db.get(0, j) + v);
            }
        }
        let mut grad_b = DenseMatrix::zeros(1, dy.cols());
        grad_b.add_assign(&db).unwrap();
        (bits(&dw), bits(&grad_b))
    }

    #[test]
    fn backward_and_backward_params_leave_identical_gradient_bits() {
        // Sized above the pool's dispatch floor so 2 and 4 threads really fan out.
        let mut rng = StdRng::seed_from_u64(8);
        let x = DenseMatrix::from_fn(600, 64, |i, j| ((i * 13 + j * 7) as f32 * 0.37).sin());
        let a = CsrMatrix::from_triplets(
            600,
            64,
            &(0..600 * 6)
                .map(|e| (e / 6, (e * 11 + e / 6) % 64, ((e % 9) as f32 - 4.0) * 0.25))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let dy = DenseMatrix::from_fn(600, 48, |i, j| ((i + 3 * j) as f32 * 0.11).cos());
        let layer = Linear::new(64, 48, &mut rng);
        crate::test_support::at_each_pool_width(|threads| {
            let mut full = layer.clone();
            full.forward(&x).unwrap();
            full.backward(&dy).unwrap();
            let mut params = layer.clone();
            params.forward(&x).unwrap();
            params.backward_params(&dy).unwrap();
            let reference = reference_grad_bits(x.matmul_transpose_self(&dy).unwrap(), &dy);
            assert_eq!(
                full.grad_bits(),
                reference,
                "dense backward, {threads} threads"
            );
            assert_eq!(
                params.grad_bits(),
                reference,
                "dense backward_params, {threads} threads"
            );

            let mut sparse = layer.clone();
            sparse.forward_sparse(&a).unwrap();
            sparse.backward_params(&dy).unwrap();
            let reference = reference_grad_bits(a.spmm_transpose(&dy).unwrap(), &dy);
            assert_eq!(
                sparse.grad_bits(),
                reference,
                "sparse backward_params, {threads} threads"
            );
        });
    }

    #[test]
    fn a_sparse_input_has_no_input_gradient() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Linear::new(3, 2, &mut rng);
        let a = CsrMatrix::from_triplets(4, 3, &[(0, 1, 1.0), (3, 2, -1.0)]).unwrap();
        layer.forward_sparse(&a).unwrap();
        assert_eq!(
            layer.backward(&DenseMatrix::zeros(4, 2)),
            Err(NnError::NoSparseInputGradient { layer: "Linear" })
        );
        // The refusal accumulated nothing, and the parameter pass still runs.
        assert_eq!(layer.grad_norm(), 0.0);
        layer
            .backward_params(&DenseMatrix::filled(4, 2, 1.0))
            .unwrap();
        assert!(layer.grad_norm() > 0.0);
    }

    #[test]
    fn sparse_forward_matches_dense_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let sparse =
            CsrMatrix::from_triplets(4, 3, &[(0, 1, 1.0), (2, 0, 2.0), (3, 2, -1.0)]).unwrap();
        let dense = sparse.to_dense();
        let y_sparse = layer.forward_sparse(&sparse).unwrap();
        let y_dense = layer.forward(&dense).unwrap();
        for (a, b) in y_sparse.as_slice().iter().zip(y_dense.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sparse_backward_matches_dense_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let sparse =
            CsrMatrix::from_triplets(4, 3, &[(0, 1, 1.0), (2, 0, 2.0), (3, 2, -1.0)]).unwrap();
        let dense = sparse.to_dense();
        let dy = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f32 * 0.5);

        let mut l1 = Linear::new(3, 2, &mut rng);
        let mut l2 = l1.clone();
        l1.forward_sparse(&sparse).unwrap();
        l1.backward_params(&dy).unwrap();
        l2.forward(&dense).unwrap();
        l2.backward_params(&dy).unwrap();
        for (a, b) in l1
            .grad_weight
            .as_slice()
            .iter()
            .zip(l2.grad_weight.as_slice())
        {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn from_parts_round_trip_and_validation() {
        let mut rng = StdRng::seed_from_u64(21);
        let layer = Linear::new(3, 2, &mut rng);
        let (w, b) = layer.export_parts();
        let restored = Linear::from_parts(w.clone(), b.clone()).unwrap();
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i as f32 - j as f32) * 0.5);
        assert_eq!(
            layer.forward_inference(&x).unwrap(),
            restored.forward_inference(&x).unwrap()
        );
        // Mis-shaped bias is rejected.
        assert!(Linear::from_parts(w, DenseMatrix::zeros(1, 5)).is_err());
        assert!(Linear::from_parts(DenseMatrix::zeros(3, 2), DenseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = DenseMatrix::filled(3, 2, 1.0);
        let dy = DenseMatrix::filled(3, 2, 1.0);
        layer.forward(&x).unwrap();
        layer.backward(&dy).unwrap();
        assert!(layer.grad_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_norm(), 0.0);
    }

    #[test]
    fn apply_gradients_moves_parameters_downhill() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(2, 1, &mut rng);
        let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        // Loss = sum(Y), dY = 1 => weights should decrease under SGD.
        let before = layer.weight.clone();
        let mut opt = Sgd::new(0.1);
        layer.forward(&x).unwrap();
        layer.backward(&DenseMatrix::filled(2, 1, 1.0)).unwrap();
        layer.apply_gradients(&mut opt, 0).unwrap();
        assert!(layer.weight.get(0, 0) < before.get(0, 0));
        assert!(layer.weight.get(1, 0) < before.get(1, 0));
    }
}
