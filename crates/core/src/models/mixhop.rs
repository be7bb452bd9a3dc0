//! MixHop (Abu-El-Haija et al. 2019).
//!
//! Concatenates 0-hop, 1-hop and 2-hop propagated linear transforms of the
//! features: `U = [X·W₀ ‖ Â·X·W₁ ‖ Â²·X·W₂]`, followed by ReLU, dropout and
//! a linear classifier. Mixing hop distances gives it some robustness to
//! heterophily at the cost of a wider hidden state.

use crate::models::{slice_columns, timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::Duration;

/// The MixHop baseline with hop orders {0, 1, 2}.
#[derive(Debug)]
pub struct MixHop {
    hop_transforms: Vec<Linear>,
    classifier: Linear,
    dropout: f32,
    cache: Option<Cache>,
    agg_time: Duration,
}

#[derive(Debug)]
struct Cache {
    /// Concatenated pre-activation `U`.
    pre_activation: DenseMatrix,
    mask: DropoutMask,
}

impl MixHop {
    /// Builds the model; requires the 2-hop operator in the context.
    pub fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        rng: &mut R,
    ) -> Result<Self> {
        ctx.require_two_hop("MixHop")?;
        let per_hop = hyper.hidden.max(3) / 3;
        let hop_transforms = (0..3)
            .map(|_| Linear::new(ctx.feature_dim(), per_hop, rng))
            .collect();
        let classifier = Linear::new(per_hop * 3, ctx.num_classes(), rng);
        Ok(Self {
            hop_transforms,
            classifier,
            dropout: hyper.dropout,
            cache: None,
            agg_time: Duration::ZERO,
        })
    }

    fn per_hop_width(&self) -> usize {
        self.hop_transforms[0].out_features()
    }
}

impl Model for MixHop {
    fn name(&self) -> &'static str {
        "MixHop"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let x = ctx.features();
        let a_hat = ctx.sym_adj();
        let a2 = ctx.require_two_hop("MixHop")?;

        // Hop 0: X·W₀; hop 1: Â·(X·W₁); hop 2: Â²·(X·W₂).
        let part0 = self.hop_transforms[0].forward(x)?;
        let t1 = self.hop_transforms[1].forward(x)?;
        let part1 = timed_spmm(a_hat, &t1, &mut self.agg_time)?;
        let t2 = self.hop_transforms[2].forward(x)?;
        let part2 = timed_spmm(a2, &t2, &mut self.agg_time)?;

        let concatenated = part0.hconcat(&part1)?.hconcat(&part2)?;
        let activated = relu_forward(&concatenated);
        let (dropped, mask) = dropout_forward(&activated, self.dropout, training, rng);
        let logits = self.classifier.forward(&dropped)?;
        self.cache = Some(Cache {
            pre_activation: concatenated,
            mask,
        });
        Ok(logits)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "MixHop" })?;
        let a_hat = ctx.sym_adj();
        let a2 = ctx.require_two_hop("MixHop")?;

        let d_dropped = self.classifier.backward(grad_logits)?;
        let d_activated = cache.mask.backward(&d_dropped);
        let d_concat = relu_backward(&d_activated, &cache.pre_activation);

        let w = self.per_hop_width();
        let d0 = slice_columns(&d_concat, 0, w);
        let d1 = slice_columns(&d_concat, w, w);
        let d2 = slice_columns(&d_concat, 2 * w, w);

        // Hop 0 feeds W₀ directly.
        self.hop_transforms[0].backward_params(&d0)?;
        // Hop 1: gradient flows back through Â.
        let d_t1 = timed_spmm_transpose(a_hat, &d1, &mut self.agg_time)?;
        self.hop_transforms[1].backward_params(&d_t1)?;
        // Hop 2: gradient flows back through Â².
        let d_t2 = timed_spmm_transpose(a2, &d2, &mut self.agg_time)?;
        self.hop_transforms[2].backward_params(&d_t2)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.hop_transforms {
            layer.zero_grad();
        }
        self.classifier.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        for (i, layer) in self.hop_transforms.iter_mut().enumerate() {
            layer.apply_gradients(optimizer, 2 * i)?;
        }
        self.classifier.apply_gradients(optimizer, 6)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.hop_transforms
            .iter()
            .map(Linear::num_parameters)
            .sum::<usize>()
            + self.classifier.num_parameters()
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
    fn forward_shape_and_operator_requirement() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = MixHop::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());

        let data =
            sigma_datasets::generate(&sigma_datasets::GeneratorConfig::new(30, 4.0, 2, 4), 0)
                .unwrap();
        let bare = crate::ContextBuilder::new(data).build().unwrap();
        assert!(MixHop::new(&bare, &ModelHyperParams::small(), &mut rng).is_err());
    }

    #[test]
    fn learns_reasonably() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = MixHop::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05, "{initial} -> {final_acc}");
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }
}
