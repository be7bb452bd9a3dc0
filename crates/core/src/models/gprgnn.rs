//! GPR-GNN: Generalized PageRank GNN (Chien et al. 2021).
//!
//! `Z = Σ_{k=0}^{K} γ_k · Â^k · H` with `H = MLP(X)` and *learnable* hop
//! weights `γ_k`, initialised to the PPR profile `α(1−α)^k`. Learnable
//! weights let the model down-weight noisy hops under heterophily, but the
//! aggregation remains local and iterative.

use crate::models::{timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{Mlp, MlpConfig, Optimizer};
use std::time::Duration;

/// The GPR-GNN baseline.
#[derive(Debug)]
pub struct GprGnn {
    mlp: Mlp,
    /// Hop weights `γ`, shape `1 × (K+1)`.
    gamma: DenseMatrix,
    gamma_grad: DenseMatrix,
    hops: usize,
    /// Cached `Â^k · H` for every hop of the last forward pass.
    cache: Option<Vec<DenseMatrix>>,
    agg_time: Duration,
}

impl GprGnn {
    /// Builds the model for the given context.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        let config = MlpConfig::new(
            ctx.feature_dim(),
            hyper.hidden,
            ctx.num_classes(),
            hyper.num_layers.max(2),
        )
        .with_dropout(hyper.dropout);
        let hops = hyper.hops;
        let alpha = hyper.alpha.clamp(0.05, 0.95);
        let gamma = DenseMatrix::from_fn(1, hops + 1, |_, k| {
            (alpha * (1.0 - alpha).powi(k as i32)) as f32
        });
        Self {
            mlp: Mlp::new(config, rng),
            gamma_grad: DenseMatrix::zeros(1, hops + 1),
            gamma,
            hops,
            cache: None,
            agg_time: Duration::ZERO,
        }
    }

    /// The current hop-weight vector `γ`.
    pub fn gamma(&self) -> &DenseMatrix {
        &self.gamma
    }
}

impl Model for GprGnn {
    fn name(&self) -> &'static str {
        "GPRGNN"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let h = self.mlp.forward(ctx.features(), training, rng)?;
        let a_hat = ctx.sym_adj();
        let mut hop_features = Vec::with_capacity(self.hops + 1);
        hop_features.push(h.clone());
        for k in 1..=self.hops {
            let next = timed_spmm(a_hat, &hop_features[k - 1], &mut self.agg_time)?;
            hop_features.push(next);
        }
        let mut z = DenseMatrix::zeros(h.rows(), h.cols());
        for (k, hk) in hop_features.iter().enumerate() {
            z.add_scaled(self.gamma.get(0, k), hk)?;
        }
        self.cache = Some(hop_features);
        Ok(z)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let hop_features = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "GprGnn" })?;
        let a_hat = ctx.sym_adj();
        // dγ_k = <Â^k H, dZ>.
        for (k, hk) in hop_features.iter().enumerate() {
            let mut prod = hk.clone();
            prod.hadamard_assign(grad_logits)?;
            self.gamma_grad
                .set(0, k, self.gamma_grad.get(0, k) + prod.sum());
        }
        // dH = Σ_k γ_k (Âᵀ)^k dZ, computed by repeatedly applying Âᵀ.
        let mut d_h = DenseMatrix::zeros(grad_logits.rows(), grad_logits.cols());
        let mut current = grad_logits.clone();
        d_h.add_scaled(self.gamma.get(0, 0), &current)?;
        for k in 1..=self.hops {
            current = timed_spmm_transpose(a_hat, &current, &mut self.agg_time)?;
            d_h.add_scaled(self.gamma.get(0, k), &current)?;
        }
        self.mlp.backward_params(&d_h)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.mlp.zero_grad();
        self.gamma_grad.fill_zero();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.mlp.apply_gradients(optimizer, 0)?;
        let key = self.mlp.num_parameter_keys();
        optimizer.update(key, &mut self.gamma, &self.gamma_grad)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.mlp.num_parameters() + self.gamma.cols()
    }

    fn take_aggregation_time(&mut self) -> Duration {
        std::mem::take(&mut self.agg_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{small_context, split_for, train_briefly};
    use rand::SeedableRng;
    use sigma_nn::softmax_cross_entropy_masked;

    #[test]
    fn forward_shape_and_ppr_initialisation() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let hyper = ModelHyperParams::small().with_alpha(0.2);
        let model = GprGnn::new(&ctx, &hyper, &mut rng);
        // γ_0 = α, γ_1 = α(1−α), monotonically decreasing.
        assert!((model.gamma().get(0, 0) - 0.2).abs() < 1e-6);
        assert!(model.gamma().get(0, 1) < model.gamma().get(0, 0));
        let mut model = model;
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
    }

    #[test]
    fn gamma_gradient_matches_finite_differences() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small().with_dropout(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = GprGnn::new(&ctx, &hyper, &mut rng);

        let logits = model.forward(&ctx, true, &mut rng).unwrap();
        let (_, dlogits) =
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
        model.zero_grad();
        model.backward(&ctx, &dlogits).unwrap();
        let analytic = model.gamma_grad.get(0, 1);

        let eps = 1e-2f32;
        let loss_with_gamma = |model: &mut GprGnn, value: f32, rng: &mut StdRng| -> f32 {
            model.gamma.set(0, 1, value);
            let logits = model.forward(&ctx, false, rng).unwrap();
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train)
                .unwrap()
                .0
        };
        let g0 = model.gamma.get(0, 1);
        let lp = loss_with_gamma(&mut model, g0 + eps, &mut rng);
        let lm = loss_with_gamma(&mut model, g0 - eps, &mut rng);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2,
            "gamma gradient mismatch: {analytic} vs {numeric}"
        );
    }

    #[test]
    fn learns_and_adapts_gamma() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = GprGnn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let before = model.gamma().clone();
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05);
        assert_ne!(&before, model.gamma(), "hop weights should adapt");
    }
}
