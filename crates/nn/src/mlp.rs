//! Multi-layer perceptron built from [`Linear`] layers, ReLU and dropout.
//!
//! SIGMA, LINKX and most baselines embed node features and the adjacency
//! matrix with small MLPs (`MLP_X`, `MLP_A`, `MLP_H` in Eq. 4 of the paper).
//! [`Mlp`] implements the shared structure with manual backpropagation: a
//! training forward pass caches every layer's input, hidden pre-activation
//! and dropout mask, and a backward pass replays them in reverse. An
//! evaluation pass ([`Mlp::infer`]) caches nothing; [`infer_parts`] runs the
//! same pass over borrowed, exported weights.

use crate::linear::with_bias;
use crate::{
    dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, NnError, Optimizer, Result,
};
use rand::Rng;
use sigma_matrix::{CsrMatrix, DenseMatrix};

/// Configuration of an [`Mlp`].
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub in_features: usize,
    /// Hidden width used by every intermediate layer.
    pub hidden: usize,
    /// Output dimensionality.
    pub out_features: usize,
    /// Total number of linear layers (`1` = a single linear map).
    pub num_layers: usize,
    /// Dropout probability applied after every hidden activation.
    pub dropout: f32,
}

impl MlpConfig {
    /// Convenience constructor with zero dropout.
    pub fn new(in_features: usize, hidden: usize, out_features: usize, num_layers: usize) -> Self {
        Self {
            in_features,
            hidden,
            out_features,
            num_layers: num_layers.max(1),
            dropout: 0.0,
        }
    }

    /// Sets the dropout probability.
    pub fn with_dropout(mut self, dropout: f32) -> Self {
        self.dropout = dropout;
        self
    }
}

/// Cached intermediate state of one forward pass, consumed by `backward`.
#[derive(Debug, Default)]
struct ForwardCache {
    /// Pre-activation outputs of each hidden layer (input to ReLU).
    pre_activations: Vec<DenseMatrix>,
    /// Dropout masks applied after each hidden activation.
    dropout_masks: Vec<DropoutMask>,
}

/// A feed-forward network `Linear → ReLU → Dropout → … → Linear`.
///
/// * [`Mlp::forward`] / [`Mlp::forward_sparse`] with `training = true` apply
///   dropout and cache what a backward pass needs: each layer's input, each
///   hidden pre-activation (moved, not copied) and each dropout mask.
/// * [`Mlp::backward`] accumulates every layer's `dW`, `db` and returns the
///   gradient with respect to the input — for an MLP fed by another layer's
///   activation (`MLP_H`).
/// * [`Mlp::backward_params`] accumulates the same `dW`, `db`, bit for bit,
///   and stops there — for an MLP fed by a constant of the graph (`MLP_X(X)`,
///   `MLP_A(A)`), whose input gradient nobody reads. It is the only backward
///   pass after [`Mlp::forward_sparse`], and keeps `MLP_A(A)` at `O(m·f)`
///   per step: the input gradient of an `n × n` adjacency is `n × n` dense.
/// * [`Mlp::infer`] / [`Mlp::infer_sparse`] are the evaluation pass: `&self`,
///   no dropout, no RNG, no cache. `forward(.., training = false, ..)` is
///   exactly this, so a backward pass after it is
///   [`NnError::MissingForwardCache`].
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    dropout: f32,
    cache: Option<ForwardCache>,
}

impl Mlp {
    /// Builds an MLP according to `config`, initialising weights from `rng`.
    pub fn new<R: Rng + ?Sized>(config: MlpConfig, rng: &mut R) -> Self {
        let mut layers = Vec::with_capacity(config.num_layers);
        if config.num_layers == 1 {
            layers.push(Linear::new(config.in_features, config.out_features, rng));
        } else {
            layers.push(Linear::new(config.in_features, config.hidden, rng));
            for _ in 1..config.num_layers - 1 {
                layers.push(Linear::new(config.hidden, config.hidden, rng));
            }
            layers.push(Linear::new(config.hidden, config.out_features, rng));
        }
        Self {
            layers,
            dropout: config.dropout,
            cache: None,
        }
    }

    /// Rebuilds an MLP from restored layers (snapshot restore path).
    ///
    /// Consecutive layers must chain (`out_features` of layer `i` equals
    /// `in_features` of layer `i + 1`) and at least one layer is required.
    pub fn from_layers(layers: Vec<Linear>, dropout: f32) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidHyperParameter {
                name: "num_layers",
                value: 0.0,
            });
        }
        if !(0.0..1.0).contains(&dropout) {
            return Err(NnError::InvalidHyperParameter {
                name: "dropout",
                value: dropout as f64,
            });
        }
        for pair in layers.windows(2) {
            if pair[0].out_features() != pair[1].in_features() {
                return Err(sigma_matrix::MatrixError::DimensionMismatch {
                    op: "Mlp::from_layers",
                    lhs: (pair[0].in_features(), pair[0].out_features()),
                    rhs: (pair[1].in_features(), pair[1].out_features()),
                }
                .into());
            }
        }
        Ok(Self {
            layers,
            dropout,
            cache: None,
        })
    }

    /// Exports every layer's parameters in order, as `(weight, bias)` pairs.
    pub fn export_weights(&self) -> Vec<(DenseMatrix, DenseMatrix)> {
        self.layers.iter().map(Linear::export_parts).collect()
    }

    /// Immutable access to the linear layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The configured dropout probability.
    pub fn dropout(&self) -> f32 {
        self.dropout
    }

    /// Number of linear layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.layers.last().map(Linear::out_features).unwrap_or(0)
    }

    /// Total trainable parameter count.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Linear::num_parameters).sum()
    }

    /// Number of optimizer keys this model consumes (two per layer).
    pub fn num_parameter_keys(&self) -> usize {
        self.layers.len() * 2
    }

    /// Forward pass on a dense input. With `training = true` dropout is
    /// active and activations are cached for [`Mlp::backward`] /
    /// [`Mlp::backward_params`]; with `training = false` this is
    /// [`Mlp::infer`] and no backward pass may follow.
    pub fn forward<R: Rng + ?Sized>(
        &mut self,
        input: &DenseMatrix,
        training: bool,
        rng: &mut R,
    ) -> Result<DenseMatrix> {
        if !training {
            self.cache = None;
            return self.infer(input);
        }
        let first = self.layers[0].forward(input)?;
        self.forward_rest(first, rng)
    }

    /// Forward pass whose *first* layer consumes a sparse matrix (used for
    /// `MLP_A(A)`); subsequent layers are dense. `training` as in
    /// [`Mlp::forward`].
    pub fn forward_sparse<R: Rng + ?Sized>(
        &mut self,
        input: &CsrMatrix,
        training: bool,
        rng: &mut R,
    ) -> Result<DenseMatrix> {
        if !training {
            self.cache = None;
            return self.infer_sparse(input);
        }
        let first = self.layers[0].forward_sparse(input)?;
        self.forward_rest(first, rng)
    }

    fn forward_rest<R: Rng + ?Sized>(
        &mut self,
        first: DenseMatrix,
        rng: &mut R,
    ) -> Result<DenseMatrix> {
        let mut cache = ForwardCache::default();
        let mut current = first;
        for layer in &mut self.layers[1..] {
            // Hidden activation of the previous layer's output.
            let activated = relu_forward(&current);
            cache.pre_activations.push(current);
            let (dropped, mask) = dropout_forward(&activated, self.dropout, true, rng);
            cache.dropout_masks.push(mask);
            current = layer.forward(&dropped)?;
        }
        self.cache = Some(cache);
        Ok(current)
    }

    /// Evaluation pass on a dense input: ReLU between layers, no dropout,
    /// nothing cached. Bitwise equal to `forward(input, false, ..)`.
    pub fn infer(&self, input: &DenseMatrix) -> Result<DenseMatrix> {
        self.infer_rest(self.layers[0].forward_inference(input)?)
    }

    /// Evaluation pass whose first layer consumes a sparse matrix.
    pub fn infer_sparse(&self, input: &CsrMatrix) -> Result<DenseMatrix> {
        self.infer_rest(self.layers[0].forward_inference_sparse(input)?)
    }

    fn infer_rest(&self, first: DenseMatrix) -> Result<DenseMatrix> {
        let rest = self.layers[1..].iter();
        infer_rest(first, rest.map(|layer| (layer.weight(), layer.bias())))
    }

    /// Backward pass. Accumulates parameter gradients in every layer and
    /// returns the gradient with respect to the (dense) input of the first
    /// layer.
    pub fn backward(&mut self, grad_output: &DenseMatrix) -> Result<DenseMatrix> {
        let grad = self.backward_to_first(grad_output)?;
        self.layers[0].backward(grad.as_ref().unwrap_or(grad_output))
    }

    /// Backward pass of an MLP whose input is a constant: accumulates the
    /// parameter gradients [`Mlp::backward`] would, bit for bit, and computes
    /// no input gradient.
    pub fn backward_params(&mut self, grad_output: &DenseMatrix) -> Result<()> {
        let grad = self.backward_to_first(grad_output)?;
        self.layers[0].backward_params(grad.as_ref().unwrap_or(grad_output))
    }

    /// Backpropagates through layers `L-1 … 1` and returns the gradient with
    /// respect to the first layer's output (`None` for a single layer, where
    /// that is `grad_output` itself).
    fn backward_to_first(&mut self, grad_output: &DenseMatrix) -> Result<Option<DenseMatrix>> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Mlp" })?;
        let mut grad = None;
        for layer_idx in (1..self.layers.len()).rev() {
            let d_dropped =
                self.layers[layer_idx].backward(grad.as_ref().unwrap_or(grad_output))?;
            let d_activated = cache.dropout_masks[layer_idx - 1].backward(&d_dropped);
            grad = Some(relu_backward(
                &d_activated,
                &cache.pre_activations[layer_idx - 1],
            ));
        }
        Ok(grad)
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Applies accumulated gradients. `key_base` is the first optimizer key
    /// this model may use; it consumes [`Mlp::num_parameter_keys`] keys.
    pub fn apply_gradients(
        &mut self,
        optimizer: &mut dyn Optimizer,
        key_base: usize,
    ) -> Result<()> {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_gradients(optimizer, key_base + 2 * i)?;
        }
        Ok(())
    }

    /// Sum of gradient norms across layers (diagnostics/tests).
    pub fn grad_norm(&self) -> f32 {
        self.layers.iter().map(Linear::grad_norm).sum()
    }
}

/// Evaluation pass of an MLP held as borrowed `(weight, bias)` layers, the
/// form [`Mlp::export_weights`] exports: bit for bit [`Mlp::infer`] (or
/// [`Mlp::infer_sparse`]) of [`Mlp::from_layers`] over the same layers, with
/// no weight copied. `product(w)` is the input times the first layer's
/// weight, `X·W` or `A·W`. Errors on an empty stack, a bias that is not a
/// `1 × out` row, or layers that do not chain.
pub fn infer_parts(
    layers: &[(DenseMatrix, DenseMatrix)],
    product: impl FnOnce(&DenseMatrix) -> sigma_matrix::Result<DenseMatrix>,
) -> Result<DenseMatrix> {
    let empty = NnError::InvalidHyperParameter {
        name: "num_layers",
        value: 0.0,
    };
    let ((weight, bias), rest) = layers.split_first().ok_or(empty)?;
    infer_rest(
        with_bias(product(weight)?, bias)?,
        rest.iter().map(|(w, b)| (w, b)),
    )
}

/// The layers after the first: ReLU, then `X·W + b`, for each.
fn infer_rest<'a>(
    first: DenseMatrix,
    mut rest: impl Iterator<Item = (&'a DenseMatrix, &'a DenseMatrix)>,
) -> Result<DenseMatrix> {
    rest.try_fold(first, |current, (weight, bias)| {
        with_bias(relu_forward(&current).matmul(weight)?, bias)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::bits;
    use crate::{accuracy, softmax_cross_entropy_masked, Adam};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn xor_like_data() -> (DenseMatrix, Vec<usize>) {
        // A 2D dataset that a linear model cannot separate but a 2-layer MLP can.
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                let a = (i % 2) as f32;
                let b = ((i / 2) % 2) as f32;
                vec![a + 0.01 * (i as f32), b - 0.01 * (i as f32)]
            })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = DenseMatrix::from_rows(&refs).unwrap();
        let labels = (0..40)
            .map(|i| ((i % 2) ^ ((i / 2) % 2)) as usize)
            .collect();
        (x, labels)
    }

    #[test]
    fn single_layer_is_linear_map() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(MlpConfig::new(3, 99, 2, 1), &mut rng);
        assert_eq!(mlp.num_layers(), 1);
        assert_eq!(mlp.out_features(), 2);
        let x = DenseMatrix::filled(5, 3, 1.0);
        let y = mlp.forward(&x, false, &mut rng).unwrap();
        assert_eq!(y.shape(), (5, 2));
    }

    #[test]
    fn deep_config_builds_expected_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(MlpConfig::new(10, 16, 3, 4), &mut rng);
        assert_eq!(mlp.num_layers(), 4);
        assert_eq!(
            mlp.num_parameters(),
            (10 * 16 + 16) + 2 * (16 * 16 + 16) + (16 * 3 + 3)
        );
        assert_eq!(mlp.num_parameter_keys(), 8);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(MlpConfig::new(2, 4, 2, 2), &mut rng);
        assert!(matches!(
            mlp.backward(&DenseMatrix::zeros(1, 2)),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn gradients_match_finite_differences_through_two_layers() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mlp = Mlp::new(MlpConfig::new(3, 5, 2, 2), &mut rng);
        let x = DenseMatrix::from_fn(6, 3, |i, j| ((i * 3 + j) as f32 * 0.37).sin());
        let labels = vec![0, 1, 0, 1, 0, 1];
        let mask: Vec<usize> = (0..6).collect();

        // Analytic gradient of the input.
        let logits = mlp.forward(&x, true, &mut rng).unwrap();
        let (_, dlogits) = softmax_cross_entropy_masked(&logits, &labels, &mask).unwrap();
        mlp.zero_grad();
        let dx = mlp.backward(&dlogits).unwrap();

        // Numeric gradient w.r.t. a few input entries (dropout disabled =>
        // forward in eval mode is the same function).
        let eps = 1e-2;
        for &(r, c) in &[(0usize, 0usize), (3, 2), (5, 1)] {
            let mut plus = x.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let lp = {
                let logits = mlp.forward(&plus, false, &mut rng).unwrap();
                softmax_cross_entropy_masked(&logits, &labels, &mask)
                    .unwrap()
                    .0
            };
            let mut minus = x.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let lm = {
                let logits = mlp.forward(&minus, false, &mut rng).unwrap();
                softmax_cross_entropy_masked(&logits, &labels, &mask)
                    .unwrap()
                    .0
            };
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.get(r, c) - numeric).abs() < 5e-2,
                "input grad mismatch at ({r},{c}): {} vs {}",
                dx.get(r, c),
                numeric
            );
        }
    }

    #[test]
    fn two_layer_mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let (x, labels) = xor_like_data();
        let mask: Vec<usize> = (0..x.rows()).collect();
        let mut mlp = Mlp::new(MlpConfig::new(2, 16, 2, 2), &mut rng);
        let mut opt = Adam::new(0.05);
        for _ in 0..200 {
            opt.begin_step();
            let logits = mlp.forward(&x, true, &mut rng).unwrap();
            let (_, dlogits) = softmax_cross_entropy_masked(&logits, &labels, &mask).unwrap();
            mlp.zero_grad();
            mlp.backward(&dlogits).unwrap();
            mlp.apply_gradients(&mut opt, 0).unwrap();
        }
        let logits = mlp.forward(&x, false, &mut rng).unwrap();
        let acc = accuracy(&logits, &labels, &mask).unwrap();
        assert!(acc > 0.9, "XOR accuracy too low: {acc}");
    }

    #[test]
    fn sparse_first_layer_matches_dense() {
        let mut rng = StdRng::seed_from_u64(3);
        let sparse =
            CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
                .unwrap();
        let dense = sparse.to_dense();
        let cfg = MlpConfig::new(4, 8, 3, 2);
        let mut rng_clone = StdRng::seed_from_u64(99);
        let mut m1 = Mlp::new(cfg, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(3);
        // Rebuild with the same seed so weights match.
        let mut m2 = Mlp::new(cfg, &mut rng2);
        let y1 = m1.forward_sparse(&sparse, false, &mut rng_clone).unwrap();
        let y2 = m2.forward(&dense, false, &mut rng_clone).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn export_import_round_trip_preserves_forward() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut original = Mlp::new(MlpConfig::new(4, 8, 3, 3).with_dropout(0.3), &mut rng);
        let weights = original.export_weights();
        assert_eq!(weights.len(), 3);
        let layers: Vec<Linear> = weights
            .into_iter()
            .map(|(w, b)| Linear::from_parts(w, b).unwrap())
            .collect();
        let mut restored = Mlp::from_layers(layers, original.dropout()).unwrap();
        assert_eq!(restored.num_layers(), original.num_layers());
        assert_eq!(restored.num_parameters(), original.num_parameters());
        let x = DenseMatrix::from_fn(5, 4, |i, j| ((i * 5 + j) as f32 * 0.21).cos());
        let y1 = original.forward(&x, false, &mut rng).unwrap();
        let y2 = restored.forward(&x, false, &mut rng).unwrap();
        assert_eq!(
            y1, y2,
            "restored MLP must be bitwise-identical in eval mode"
        );
        // The restored model is trainable: a training step works immediately.
        restored.forward(&x, true, &mut rng).unwrap();
        restored.backward(&DenseMatrix::filled(5, 3, 1.0)).unwrap();
        assert!(restored.grad_norm() > 0.0);
    }

    fn sparse_input(rows: usize, cols: usize) -> CsrMatrix {
        let triplets: Vec<_> = (0..rows * 5)
            .map(|e| (e / 5, (e * 7 + e / 5) % cols, ((e % 7) as f32 - 3.0) * 0.2))
            .collect();
        CsrMatrix::from_triplets(rows, cols, &triplets).unwrap()
    }

    #[test]
    fn backward_params_accumulates_the_gradients_backward_does_bit_for_bit() {
        // Sized above the pool's dispatch floor so 2 and 4 threads really fan out.
        let cfg = MlpConfig::new(40, 48, 6, 3).with_dropout(0.2);
        let x = DenseMatrix::from_fn(500, 40, |i, j| ((i * 3 + j * 5) as f32 * 0.23).sin());
        let dy = DenseMatrix::from_fn(500, 6, |i, j| ((i + 2 * j) as f32 * 0.19).cos());
        let trained = |params_only: bool| {
            let mut rng = StdRng::seed_from_u64(17);
            let mut mlp = Mlp::new(cfg, &mut rng);
            mlp.forward(&x, true, &mut rng).unwrap();
            if params_only {
                mlp.backward_params(&dy).unwrap();
            } else {
                mlp.backward(&dy).unwrap();
            }
            mlp.layers.iter().map(Linear::grad_bits).collect::<Vec<_>>()
        };
        crate::test_support::at_each_pool_width(|threads| {
            let full = trained(false);
            assert_eq!(full.len(), 3);
            assert!(full.iter().all(|(dw, _)| dw.iter().any(|&b| b != 0)));
            assert_eq!(full, trained(true), "{threads} threads");
        });
    }

    #[test]
    fn infer_is_the_caching_forward_without_dropout_bit_for_bit() {
        let x = DenseMatrix::from_fn(9, 6, |i, j| ((i * 6 + j) as f32 * 0.31).sin());
        let a = sparse_input(9, 6);
        for num_layers in [1, 3] {
            let mut rng = StdRng::seed_from_u64(19);
            let mut mlp = Mlp::new(
                MlpConfig::new(6, 8, 4, num_layers).with_dropout(0.2),
                &mut rng,
            );
            // Same weights, dropout 0: its *training* path is the eval
            // arithmetic run through the caching layers.
            let mut caching = Mlp::from_layers(mlp.layers.clone(), 0.0).unwrap();
            let dense = bits(&caching.forward(&x, true, &mut rng).unwrap());
            assert_eq!(bits(&mlp.infer(&x).unwrap()), dense);
            assert_eq!(bits(&mlp.forward(&x, false, &mut rng).unwrap()), dense);
            let sparse = bits(&caching.forward_sparse(&a, true, &mut rng).unwrap());
            assert_eq!(bits(&mlp.infer_sparse(&a).unwrap()), sparse);
            assert_eq!(
                bits(&mlp.forward_sparse(&a, false, &mut rng).unwrap()),
                sparse
            );
            // The same pass over the exported, borrowed weights.
            let parts = mlp.export_weights();
            assert_eq!(bits(&infer_parts(&parts, |w| x.matmul(w)).unwrap()), dense);
            assert_eq!(bits(&infer_parts(&parts, |w| a.spmm(w)).unwrap()), sparse);
        }
        assert!(infer_parts(&[], |w| x.matmul(w)).is_err());
    }

    #[test]
    fn an_eval_forward_is_not_followed_by_backward() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut mlp = Mlp::new(MlpConfig::new(3, 4, 2, 2).with_dropout(0.2), &mut rng);
        let x = DenseMatrix::filled(5, 3, 1.0);
        let dy = DenseMatrix::filled(5, 2, 1.0);
        // Even with a training pass before it: the eval pass drops that cache.
        mlp.forward(&x, true, &mut rng).unwrap();
        let (mut used, mut untouched) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
        mlp.forward(&x, false, &mut used).unwrap();
        assert_eq!(
            used.gen::<u64>(),
            untouched.gen::<u64>(),
            "eval draws nothing"
        );
        assert!(matches!(
            mlp.backward(&dy),
            Err(NnError::MissingForwardCache { layer: "Mlp" })
        ));
        assert!(matches!(
            mlp.backward_params(&dy),
            Err(NnError::MissingForwardCache { layer: "Mlp" })
        ));
        assert_eq!(mlp.grad_norm(), 0.0);
    }

    #[test]
    fn a_sparse_first_layer_trains_through_backward_params_only() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut mlp = Mlp::new(MlpConfig::new(6, 8, 3, 2), &mut rng);
        let a = sparse_input(9, 6);
        let dy = DenseMatrix::filled(9, 3, 1.0);
        mlp.forward_sparse(&a, true, &mut rng).unwrap();
        assert_eq!(
            mlp.backward(&dy),
            Err(NnError::NoSparseInputGradient { layer: "Linear" })
        );
        mlp.zero_grad();
        mlp.forward_sparse(&a, true, &mut rng).unwrap();
        mlp.backward_params(&dy).unwrap();
        assert!(mlp.layers.iter().all(|l| l.grad_norm() > 0.0));
    }

    #[test]
    fn from_layers_rejects_inconsistent_stacks() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = Linear::new(4, 8, &mut rng);
        let b = Linear::new(9, 3, &mut rng); // 8 != 9: does not chain
        assert!(Mlp::from_layers(vec![a.clone(), b], 0.0).is_err());
        assert!(Mlp::from_layers(vec![], 0.0).is_err());
        assert!(Mlp::from_layers(vec![a], 1.0).is_err());
    }

    #[test]
    fn zero_grad_clears_all_layers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(MlpConfig::new(2, 4, 2, 3), &mut rng);
        let x = DenseMatrix::filled(3, 2, 1.0);
        let y = mlp.forward(&x, true, &mut rng).unwrap();
        mlp.backward(&DenseMatrix::filled(3, y.cols(), 1.0))
            .unwrap();
        assert!(mlp.grad_norm() > 0.0);
        mlp.zero_grad();
        assert_eq!(mlp.grad_norm(), 0.0);
    }
}
