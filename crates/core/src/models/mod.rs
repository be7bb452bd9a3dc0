//! Model implementations: SIGMA, its iterative variant, and every baseline
//! compared in the paper's evaluation.
//!
//! Each module implements [`crate::Model`] with explicit forward/backward
//! passes. Propagation operators (`Â`, `S`, `Π_ppr`, ...) are constants from
//! the [`crate::GraphContext`], so backpropagation through them is a
//! transposed SpMM; only the MLP weights (and, for GPR-GNN / learnable-α
//! SIGMA, a small coefficient vector) are trainable.
//!
//! LINKX, SIGMA and GloGNN share one embedding stage, `Decoupled`:
//! `δ·MLP_X(X) + (1−δ)·MLP_A(A)` read by `MLP_H` (SIGMA Eq. 4). They differ
//! only in the aggregation around `MLP_H`: LINKX has none (it is
//! [`sigma_model::SigmaModel`] with [`sigma_model::AggregatorKind::None`]),
//! SIGMA applies the context's constant operator after `MLP_H`, and GloGNN
//! runs its iterative global step before it.

pub mod acmgcn;
pub mod appnp;
pub mod gat;
pub mod gcn;
pub mod gcnii;
pub mod glognn;
pub mod gprgnn;
pub mod h2gcn;
pub mod mixhop;
pub mod mlp;
pub mod pprgo;
pub mod sgc;
pub mod sigma_iterative;
pub mod sigma_model;

use crate::{GraphContext, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_nn::{Mlp, MlpConfig, Optimizer};
use std::time::{Duration, Instant};

/// The decoupled embedding stage of LINKX, SIGMA and GloGNN:
/// `MLP_A(A)` and `MLP_X(X)` mixed by the feature factor `δ`, and the
/// `MLP_H` that reads the mix (directly, or after an aggregation).
///
/// `A` and `X` are constants, so their MLPs take parameter gradients only
/// ([`Mlp::backward_params`]): a step costs `O(m·f + n·f²)`, and no `n × n`
/// input gradient is ever formed.
#[derive(Debug)]
pub(crate) struct Decoupled {
    pub(crate) mlp_a: Mlp,
    pub(crate) mlp_x: Mlp,
    pub(crate) mlp_h: Mlp,
    pub(crate) delta: f64,
}

impl Decoupled {
    /// Draws `MLP_A`, `MLP_X` and `MLP_H` from `rng`, in that order.
    pub(crate) fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        rng: &mut R,
    ) -> Self {
        let hidden = hyper.hidden;
        let mlp = |input, out, layers| {
            MlpConfig::new(input, hidden, out, layers).with_dropout(hyper.dropout)
        };
        Self {
            mlp_a: Mlp::new(mlp(ctx.num_nodes(), hidden, 1), rng),
            mlp_x: Mlp::new(mlp(ctx.feature_dim(), hidden, 1), rng),
            mlp_h: Mlp::new(mlp(hidden, ctx.num_classes(), hyper.num_layers), rng),
            delta: hyper.delta,
        }
    }

    /// `δ·MLP_X(X) + (1−δ)·MLP_A(A)`, the input of `MLP_H` (or of GloGNN's
    /// aggregation).
    pub(crate) fn embed(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let h_a = self.mlp_a.forward_sparse(ctx.adjacency(), training, rng)?;
        let h_x = self.mlp_x.forward(ctx.features(), training, rng)?;
        Ok(h_x.linear_combination(self.delta as f32, (1.0 - self.delta) as f32, &h_a)?)
    }

    /// The backward of [`Decoupled::embed`]: accumulates the parameter
    /// gradients of `MLP_X` and `MLP_A` from the gradient of the mix.
    pub(crate) fn backward_embed(&mut self, grad: DenseMatrix) -> Result<()> {
        let (d_x, d_a) = split_by_delta(grad, self.delta);
        self.mlp_x.backward_params(&d_x)?;
        self.mlp_a.backward_params(&d_a)?;
        Ok(())
    }

    pub(crate) fn zero_grad(&mut self) {
        self.mlp_a.zero_grad();
        self.mlp_x.zero_grad();
        self.mlp_h.zero_grad();
    }

    /// Steps `MLP_A`, `MLP_X` and `MLP_H` from optimizer key 0 and returns
    /// the first key left free for the owning model's own parameters.
    pub(crate) fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<usize> {
        let mut key = 0;
        for mlp in [&mut self.mlp_a, &mut self.mlp_x, &mut self.mlp_h] {
            mlp.apply_gradients(optimizer, key)?;
            key += mlp.num_parameter_keys();
        }
        Ok(key)
    }

    pub(crate) fn num_parameters(&self) -> usize {
        self.mlp_a.num_parameters() + self.mlp_x.num_parameters() + self.mlp_h.num_parameters()
    }
}

/// Applies `operator · dense`, accumulating elapsed wall-clock time into
/// `timer`. All models route their propagation SpMMs through this helper so
/// the trainer can report the Table VII "AGG" column.
pub(crate) fn timed_spmm(
    operator: &CsrMatrix,
    dense: &DenseMatrix,
    timer: &mut Duration,
) -> Result<DenseMatrix> {
    let start = Instant::now();
    let out = operator.spmm(dense)?;
    *timer += start.elapsed();
    Ok(out)
}

/// Applies `operatorᵀ · dense`, accumulating elapsed time into `timer`.
pub(crate) fn timed_spmm_transpose(
    operator: &CsrMatrix,
    dense: &DenseMatrix,
    timer: &mut Duration,
) -> Result<DenseMatrix> {
    let start = Instant::now();
    let out = operator.spmm_transpose(dense)?;
    *timer += start.elapsed();
    Ok(out)
}

/// Splits the gradient of `δ·H_X + (1−δ)·H_A` into its two branches,
/// `(δ·g, (1−δ)·g)`.
pub(crate) fn split_by_delta(grad: DenseMatrix, delta: f64) -> (DenseMatrix, DenseMatrix) {
    let d_x = grad.map(|v| v * delta as f32);
    let mut d_a = grad;
    d_a.scale((1.0 - delta) as f32);
    (d_x, d_a)
}

/// Extracts a contiguous block of columns `[start, start + width)` as a new
/// matrix (used by concatenating models such as MixHop and H2GCN to split the
/// gradient of a concatenation).
pub(crate) fn slice_columns(matrix: &DenseMatrix, start: usize, width: usize) -> DenseMatrix {
    DenseMatrix::from_fn(matrix.rows(), width, |i, j| matrix.get(i, start + j))
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for model unit tests.

    use crate::{ContextBuilder, GraphContext};
    use sigma_datasets::{generate, GeneratorConfig, Split};
    use sigma_simrank::PprConfig;

    /// A small heterophilous dataset with every optional operator enabled.
    pub fn small_context() -> GraphContext {
        let cfg = GeneratorConfig::new(80, 6.0, 3, 10)
            .with_homophily(0.2)
            .with_feature_snr(1.5, 0.8)
            .with_name("test-hetero");
        let data = generate(&cfg, 7).unwrap();
        ContextBuilder::new(data)
            .with_simrank_topk(8)
            .with_ppr(PprConfig {
                top_k: Some(8),
                ..PprConfig::default()
            })
            .with_two_hop()
            .build()
            .unwrap()
    }

    /// A 60/20/20 split over the test context.
    pub fn split_for(ctx: &GraphContext) -> Split {
        Split::stratified(ctx.labels(), 0.6, 0.2, 3).unwrap()
    }

    /// Trains `model` for `epochs` full-batch Adam steps and returns
    /// (initial train accuracy, final train accuracy).
    pub fn train_briefly(
        model: &mut dyn crate::Model,
        ctx: &GraphContext,
        split: &Split,
        epochs: usize,
    ) -> (f32, f32) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sigma_nn::{accuracy, softmax_cross_entropy_masked, Adam, Optimizer};

        let mut rng = StdRng::seed_from_u64(0);
        let logits = model.forward(ctx, false, &mut rng).unwrap();
        let initial = accuracy(&logits, ctx.labels(), &split.train).unwrap();
        let mut opt = Adam::new(0.03);
        for _ in 0..epochs {
            opt.begin_step();
            let logits = model.forward(ctx, true, &mut rng).unwrap();
            let (_, grad) =
                softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
            model.zero_grad();
            model.backward(ctx, &grad).unwrap();
            model.apply_gradients(&mut opt).unwrap();
        }
        let logits = model.forward(ctx, false, &mut rng).unwrap();
        let final_acc = accuracy(&logits, ctx.labels(), &split.train).unwrap();
        (initial, final_acc)
    }
}
