//! LINKX (Lim et al. 2021), the decoupled heterophilous baseline SIGMA's
//! architecture extends.
//!
//! `H_A = MLP_A(A)`, `H_X = MLP_X(X)`, `logits = MLP_H(δ·H_X + (1−δ)·H_A)` —
//! the same embedding pipeline as SIGMA Eq. (4), without any propagation /
//! aggregation step. The `MLP_A(A)` product is computed with sparse-dense
//! multiplication so the cost stays `O(m·f)` (paper Section III-C).

use crate::models::split_by_delta;
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{Mlp, MlpConfig, Optimizer};

/// The LINKX baseline.
#[derive(Debug)]
pub struct Linkx {
    mlp_a: Mlp,
    mlp_x: Mlp,
    mlp_h: Mlp,
    delta: f64,
}

impl Linkx {
    /// Builds the model for the given context.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        let hidden = hyper.hidden;
        let mlp_a = Mlp::new(
            MlpConfig::new(ctx.num_nodes(), hidden, hidden, 1).with_dropout(hyper.dropout),
            rng,
        );
        let mlp_x = Mlp::new(
            MlpConfig::new(ctx.feature_dim(), hidden, hidden, 1).with_dropout(hyper.dropout),
            rng,
        );
        let mlp_h = Mlp::new(
            MlpConfig::new(hidden, hidden, ctx.num_classes(), hyper.num_layers)
                .with_dropout(hyper.dropout),
            rng,
        );
        Self {
            mlp_a,
            mlp_x,
            mlp_h,
            delta: hyper.delta,
        }
    }
}

impl Model for Linkx {
    fn name(&self) -> &'static str {
        "LINKX"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let h_a = self.mlp_a.forward_sparse(ctx.adjacency(), training, rng)?;
        let h_x = self.mlp_x.forward(ctx.features(), training, rng)?;
        let combined =
            h_x.linear_combination(self.delta as f32, (1.0 - self.delta) as f32, &h_a)?;
        Ok(self.mlp_h.forward(&combined, training, rng)?)
    }

    fn backward(&mut self, _ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let (d_x, d_a) = split_by_delta(self.mlp_h.backward(grad_logits)?, self.delta);
        self.mlp_x.backward_params(&d_x)?;
        self.mlp_a.backward_params(&d_a)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.mlp_a.zero_grad();
        self.mlp_x.zero_grad();
        self.mlp_h.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        let mut key = 0;
        self.mlp_a.apply_gradients(optimizer, key)?;
        key += self.mlp_a.num_parameter_keys();
        self.mlp_x.apply_gradients(optimizer, key)?;
        key += self.mlp_x.num_parameter_keys();
        self.mlp_h.apply_gradients(optimizer, key)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.mlp_a.num_parameters() + self.mlp_x.num_parameters() + self.mlp_h.num_parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{small_context, split_for, train_briefly};
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Linkx::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
    }

    #[test]
    fn learns_under_heterophily() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Linkx::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 80);
        assert!(
            final_acc > initial + 0.1 || final_acc > 0.85,
            "LINKX failed to learn: {initial} -> {final_acc}"
        );
    }

    #[test]
    fn delta_extremes_isolate_branches() {
        // δ = 1 uses only features; δ = 0 uses only the adjacency embedding.
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(2);
        let mut only_x = Linkx::new(&ctx, &ModelHyperParams::small().with_delta(1.0), &mut rng);
        let mut only_a = Linkx::new(&ctx, &ModelHyperParams::small().with_delta(0.0), &mut rng);
        let lx = only_x.forward(&ctx, false, &mut rng).unwrap();
        let la = only_a.forward(&ctx, false, &mut rng).unwrap();
        assert!(lx.is_finite() && la.is_finite());
        assert_ne!(lx, la);
    }
}
