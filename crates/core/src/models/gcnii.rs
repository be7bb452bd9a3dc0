//! GCNII (Chen et al. 2020): deep GCN with initial residual and identity
//! mapping.
//!
//! `H^{ℓ+1} = σ( [(1−α)·Â·H^{ℓ} + α·H^{0}] · [(1−β_ℓ)·I + β_ℓ·W_ℓ] )` with
//! `β_ℓ = λ / (ℓ+1)`. The initial residual keeps a path back to the raw
//! embedding at every depth, which the paper's evaluation shows helps under
//! heterophily relative to vanilla GCN.

use crate::models::{timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::Duration;

/// The GCNII baseline.
#[derive(Debug)]
pub struct Gcnii {
    input: Linear,
    blocks: Vec<Linear>,
    output: Linear,
    alpha: f64,
    lambda: f64,
    dropout: f32,
    cache: Option<Cache>,
    agg_time: Duration,
}

#[derive(Debug)]
struct Cache {
    /// Pre-activation of the input embedding.
    input_pre: DenseMatrix,
    input_mask: Option<DropoutMask>,
    /// Per-block: (combined residual P, pre-activation of the block output).
    blocks: Vec<BlockCache>,
}

#[derive(Debug)]
struct BlockCache {
    pre_activation: DenseMatrix,
}

impl Gcnii {
    /// Builds GCNII with `hyper.hops` residual blocks.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        let hidden = hyper.hidden;
        let input = Linear::new(ctx.feature_dim(), hidden, rng);
        let blocks = (0..hyper.hops.max(1))
            .map(|_| Linear::new(hidden, hidden, rng))
            .collect();
        let output = Linear::new(hidden, ctx.num_classes(), rng);
        Self {
            input,
            blocks,
            output,
            alpha: 0.1,
            lambda: 0.5,
            dropout: hyper.dropout,
            cache: None,
            agg_time: Duration::ZERO,
        }
    }

    fn beta(&self, layer: usize) -> f32 {
        (self.lambda / (layer as f64 + 1.0)) as f32
    }
}

impl Model for Gcnii {
    fn name(&self) -> &'static str {
        "GCNII"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let a_hat = ctx.sym_adj();
        let alpha = self.alpha as f32;

        let input_pre = self.input.forward(ctx.features())?;
        let activated = relu_forward(&input_pre);
        let (h0, input_mask) = dropout_forward(&activated, self.dropout, training, rng);

        let mut cache = Cache {
            input_pre,
            input_mask: Some(input_mask),
            blocks: Vec::with_capacity(self.blocks.len()),
        };
        let mut h = h0.clone();
        for (layer_idx, block) in self.blocks.iter_mut().enumerate() {
            let beta = (self.lambda / (layer_idx as f64 + 1.0)) as f32;
            let propagated = timed_spmm(a_hat, &h, &mut self.agg_time)?;
            // P = (1−α)·Â·H + α·H⁰.
            let p = propagated.linear_combination(1.0 - alpha, alpha, &h0)?;
            // Pre-activation = (1−β)·P + β·(P·W).
            let transformed = block.forward(&p)?;
            let pre = p.linear_combination(1.0 - beta, beta, &transformed)?;
            cache.blocks.push(BlockCache {
                pre_activation: pre.clone(),
            });
            h = relu_forward(&pre);
        }
        let logits = self.output.forward(&h)?;
        self.cache = Some(cache);
        Ok(logits)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "Gcnii" })?;
        let a_hat = ctx.sym_adj();
        let alpha = self.alpha as f32;

        let mut d_h = self.output.backward(grad_logits)?;
        let mut d_h0_accum = DenseMatrix::zeros(d_h.rows(), d_h.cols());
        for layer_idx in (0..self.blocks.len()).rev() {
            let beta = self.beta(layer_idx);
            let block_cache = &cache.blocks[layer_idx];
            // Through the block ReLU.
            let d_pre = relu_backward(&d_h, &block_cache.pre_activation);
            // Pre = (1−β)·P + β·(P·W): dP gets a direct and a through-W path.
            let mut d_transformed = d_pre.clone();
            d_transformed.scale(beta);
            let d_p_through_w = self.blocks[layer_idx].backward(&d_transformed)?;
            let mut d_p = d_pre;
            d_p.scale(1.0 - beta);
            d_p.add_assign(&d_p_through_w)?;
            // P = (1−α)·Â·H + α·H⁰.
            let mut d_h0 = d_p.clone();
            d_h0.scale(alpha);
            d_h0_accum.add_assign(&d_h0)?;
            let mut d_prop = d_p;
            d_prop.scale(1.0 - alpha);
            d_h = timed_spmm_transpose(a_hat, &d_prop, &mut self.agg_time)?;
        }
        // The deepest gradient also reaches H⁰ through the chain of H's
        // (the first block's input is H⁰ itself).
        d_h0_accum.add_assign(&d_h)?;
        // Through the input dropout/ReLU/linear.
        let masked = match &cache.input_mask {
            Some(mask) => mask.backward(&d_h0_accum),
            None => d_h0_accum,
        };
        let d_input_pre = relu_backward(&masked, &cache.input_pre);
        self.input.backward_params(&d_input_pre)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.input.zero_grad();
        for block in &mut self.blocks {
            block.zero_grad();
        }
        self.output.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.input.apply_gradients(optimizer, 0)?;
        for (i, block) in self.blocks.iter_mut().enumerate() {
            block.apply_gradients(optimizer, 2 + 2 * i)?;
        }
        self.output
            .apply_gradients(optimizer, 2 + 2 * self.blocks.len())?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.input.num_parameters()
            + self
                .blocks
                .iter()
                .map(Linear::num_parameters)
                .sum::<usize>()
            + self.output.num_parameters()
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
    fn forward_shape_and_beta_schedule() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Gcnii::new(&ctx, &ModelHyperParams::small(), &mut rng);
        assert!(model.beta(0) > model.beta(1));
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
    }

    #[test]
    fn learns_without_divergence() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Gcnii::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(final_acc >= initial - 0.05, "{initial} -> {final_acc}");
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }
}
