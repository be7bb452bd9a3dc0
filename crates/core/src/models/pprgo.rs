//! PPRGo-style baseline (Bojchevski et al. 2020).
//!
//! `Z = Π_ppr · MLP(X)` with a *precomputed*, top-k-pruned Personalized
//! PageRank matrix. Architecturally this is the closest relative of SIGMA —
//! a constant one-shot aggregation operator — but the operator is local
//! (single-walk reachability), which is exactly the contrast drawn in the
//! paper's Fig. 1(b) vs 1(c) and the "SIGMA w/ PPR" ablation arm.

use crate::models::{timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{Mlp, MlpConfig, Optimizer};
use std::time::Duration;

/// The PPRGo baseline.
#[derive(Debug)]
pub struct PprGo {
    mlp: Mlp,
    agg_time: Duration,
}

impl PprGo {
    /// Builds the model; requires the PPR operator in the context.
    pub fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        rng: &mut R,
    ) -> Result<Self> {
        ctx.require_ppr("PPRGo")?;
        let config = MlpConfig::new(
            ctx.feature_dim(),
            hyper.hidden,
            ctx.num_classes(),
            hyper.num_layers.max(2),
        )
        .with_dropout(hyper.dropout);
        Ok(Self {
            mlp: Mlp::new(config, rng),
            agg_time: Duration::ZERO,
        })
    }
}

impl Model for PprGo {
    fn name(&self) -> &'static str {
        "PPRGo"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let h = self.mlp.forward(ctx.features(), training, rng)?;
        let ppr = ctx.require_ppr("PPRGo")?;
        timed_spmm(ppr, &h, &mut self.agg_time)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let ppr = ctx.require_ppr("PPRGo")?;
        let d_h = timed_spmm_transpose(ppr, grad_logits, &mut self.agg_time)?;
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

    #[test]
    fn forward_shape_and_missing_operator() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = PprGo::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));

        let data =
            sigma_datasets::generate(&sigma_datasets::GeneratorConfig::new(30, 4.0, 2, 4), 0)
                .unwrap();
        let bare = crate::ContextBuilder::new(data).build().unwrap();
        assert!(PprGo::new(&bare, &ModelHyperParams::small(), &mut rng).is_err());
    }

    #[test]
    fn learns_with_fixed_operator() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = PprGo::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05);
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }
}
