//! Simplified Graph Convolution (Wu et al. 2019).
//!
//! `Z = (Â^K X) W` — propagation is pushed entirely into a one-time feature
//! precomputation, followed by a linear classifier. Cheap, but the uniform
//! local smoothing is exactly what fails under heterophily.

use crate::models::timed_spmm;
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{Linear, Optimizer};
use std::time::Duration;

/// SGC: `K`-hop propagated features through a single linear layer.
#[derive(Debug)]
pub struct Sgc {
    classifier: Linear,
    hops: usize,
    propagated: Option<DenseMatrix>,
    agg_time: Duration,
}

impl Sgc {
    /// Builds the model; the propagated features are computed lazily on the
    /// first forward pass and cached (they are constant).
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        Self {
            classifier: Linear::new(ctx.feature_dim(), ctx.num_classes(), rng),
            hops: hyper.hops,
            propagated: None,
            agg_time: Duration::ZERO,
        }
    }

    fn propagated_features(&mut self, ctx: &GraphContext) -> Result<DenseMatrix> {
        if let Some(p) = &self.propagated {
            return Ok(p.clone());
        }
        let mut h = ctx.features().clone();
        for _ in 0..self.hops {
            h = timed_spmm(ctx.sym_adj(), &h, &mut self.agg_time)?;
        }
        self.propagated = Some(h.clone());
        Ok(h)
    }
}

impl Model for Sgc {
    fn name(&self) -> &'static str {
        "SGC"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        _training: bool,
        _rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let features = self.propagated_features(ctx)?;
        Ok(self.classifier.forward(&features)?)
    }

    fn backward(&mut self, _ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        self.classifier.backward_params(grad_logits)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.classifier.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.classifier.apply_gradients(optimizer, 0)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.classifier.num_parameters()
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
    fn forward_shape_and_feature_caching() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sgc::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        // Propagation happened once; a second forward adds no aggregation time.
        let first = model.take_aggregation_time();
        assert!(first > Duration::ZERO);
        let _ = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(model.take_aggregation_time(), Duration::ZERO);
    }

    #[test]
    fn trains_its_linear_classifier() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Sgc::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05);
    }
}
