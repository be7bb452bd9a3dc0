//! Feature-only MLP baseline.
//!
//! The paper's weakest baseline on homophilous graphs, but surprisingly
//! strong on feature-dominated heterophilous graphs such as Texas — a point
//! the evaluation section calls out explicitly.

use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{Mlp, MlpConfig, Optimizer};

/// `logits = MLP(X)`.
#[derive(Debug)]
pub struct MlpModel {
    mlp: Mlp,
}

impl MlpModel {
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
        }
    }
}

impl Model for MlpModel {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        Ok(self.mlp.forward(ctx.features(), training, rng)?)
    }

    fn backward(&mut self, _ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        self.mlp.backward_params(grad_logits)?;
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
        let mut model = MlpModel::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
        assert!(model.num_parameters() > 0);
        assert_eq!(model.name(), "MLP");
    }

    #[test]
    fn learns_on_feature_separable_data() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = MlpModel::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(
            final_acc > initial + 0.1 || final_acc > 0.85,
            "MLP failed to learn: {initial} -> {final_acc}"
        );
    }
}
