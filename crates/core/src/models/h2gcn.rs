//! H2GCN-style baseline (Zhu et al. 2020), simplified.
//!
//! The three design principles of H2GCN are (1) ego / neighbour embedding
//! separation, (2) aggregation over higher-order neighbourhoods, and
//! (3) combination of intermediate representations. This implementation
//! keeps all three with a single round:
//! `R = [H₀ ‖ P·H₀ ‖ Â²·H₀]` with `H₀ = ReLU(X·W)`, followed by dropout and
//! a linear classifier. (The full model repeats the concatenation per
//! layer.)

use crate::models::{slice_columns, timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::Duration;

/// The (simplified) H2GCN baseline.
#[derive(Debug)]
pub struct H2Gcn {
    embed: Linear,
    classifier: Linear,
    dropout: f32,
    cache: Option<Cache>,
    agg_time: Duration,
}

#[derive(Debug)]
struct Cache {
    embed_pre: DenseMatrix,
    mask: DropoutMask,
}

impl H2Gcn {
    /// Builds the model; requires the 2-hop operator in the context.
    pub fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        rng: &mut R,
    ) -> Result<Self> {
        ctx.require_two_hop("H2GCN")?;
        let hidden = hyper.hidden;
        Ok(Self {
            embed: Linear::new(ctx.feature_dim(), hidden, rng),
            classifier: Linear::new(hidden * 3, ctx.num_classes(), rng),
            dropout: hyper.dropout,
            cache: None,
            agg_time: Duration::ZERO,
        })
    }

    fn hidden(&self) -> usize {
        self.embed.out_features()
    }
}

impl Model for H2Gcn {
    fn name(&self) -> &'static str {
        "H2GCN"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let row_adj = ctx.row_adj();
        let a2 = ctx.require_two_hop("H2GCN")?;

        let embed_pre = self.embed.forward(ctx.features())?;
        let h0 = relu_forward(&embed_pre);
        // Ego, 1-hop (without self loops) and 2-hop views.
        let h1 = timed_spmm(row_adj, &h0, &mut self.agg_time)?;
        let h2 = timed_spmm(a2, &h0, &mut self.agg_time)?;
        let concatenated = h0.hconcat(&h1)?.hconcat(&h2)?;
        let (dropped, mask) = dropout_forward(&concatenated, self.dropout, training, rng);
        let logits = self.classifier.forward(&dropped)?;
        self.cache = Some(Cache { embed_pre, mask });
        Ok(logits)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "H2Gcn" })?;
        let row_adj = ctx.row_adj();
        let a2 = ctx.require_two_hop("H2GCN")?;

        let d_dropped = self.classifier.backward(grad_logits)?;
        let d_concat = cache.mask.backward(&d_dropped);
        let w = self.hidden();
        let d_h0_direct = slice_columns(&d_concat, 0, w);
        let d_h1 = slice_columns(&d_concat, w, w);
        let d_h2 = slice_columns(&d_concat, 2 * w, w);

        // Sum the three paths into dH₀.
        let mut d_h0 = d_h0_direct;
        let back1 = timed_spmm_transpose(row_adj, &d_h1, &mut self.agg_time)?;
        d_h0.add_assign(&back1)?;
        let back2 = timed_spmm_transpose(a2, &d_h2, &mut self.agg_time)?;
        d_h0.add_assign(&back2)?;

        let d_pre = relu_backward(&d_h0, &cache.embed_pre);
        self.embed.backward_params(&d_pre)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.classifier.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.embed.apply_gradients(optimizer, 0)?;
        self.classifier.apply_gradients(optimizer, 2)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.embed.num_parameters() + self.classifier.num_parameters()
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
        let mut model = H2Gcn::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));

        let data =
            sigma_datasets::generate(&sigma_datasets::GeneratorConfig::new(30, 4.0, 2, 4), 0)
                .unwrap();
        let bare = crate::ContextBuilder::new(data).build().unwrap();
        assert!(H2Gcn::new(&bare, &ModelHyperParams::small(), &mut rng).is_err());
    }

    #[test]
    fn learns_reasonably() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = H2Gcn::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05, "{initial} -> {final_acc}");
    }
}
