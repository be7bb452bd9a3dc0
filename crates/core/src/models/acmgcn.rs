//! ACM-GCN (Luan et al. 2021), simplified — adaptive channel mixing.
//!
//! Each layer filters the input through three channels and mixes them with
//! learned weights:
//!
//! ```text
//! H_L = Â·(H·W_L)        (low-pass: the usual GCN smoothing)
//! H_H = (I − Â)·(H·W_H)  (high-pass: keeps the difference from neighbours)
//! H_I = H·W_I            (identity: no propagation)
//! H'  = m_L·H_L + m_H·H_H + m_I·H_I,  m = softmax(β)
//! ```
//!
//! The high-pass channel is what lets the model cope with heterophily: where
//! neighbours disagree, `(I − Â)·H` preserves exactly that disagreement. The
//! original model computes the mixing weights per node from channel
//! embeddings; this reproduction learns one global weight vector `β ∈ R³` per
//! layer, which keeps the adaptive-mixing behaviour the paper's Table V
//! exercises while keeping the backward pass compact. The per-epoch cost is
//! `O(m·f + n·f²)` per layer, like GCN.

use crate::models::{timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::Duration;

/// Number of filter channels (low-pass, high-pass, identity).
const CHANNELS: usize = 3;

/// One adaptive channel-mixing layer.
#[derive(Debug)]
struct AcmLayer {
    low: Linear,
    high: Linear,
    identity: Linear,
    /// Channel mixing logits `β` (softmax-normalised in the forward pass).
    beta: DenseMatrix,
    beta_grad: DenseMatrix,
    cache: Option<AcmCache>,
}

#[derive(Debug)]
struct AcmCache {
    /// Per-channel outputs before mixing.
    channels: [DenseMatrix; CHANNELS],
    /// Softmax-normalised mixing weights used in the forward pass.
    mix: [f32; CHANNELS],
}

impl AcmLayer {
    fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self {
            low: Linear::new(in_features, out_features, rng),
            high: Linear::new(in_features, out_features, rng),
            identity: Linear::new(in_features, out_features, rng),
            beta: DenseMatrix::zeros(CHANNELS, 1),
            beta_grad: DenseMatrix::zeros(CHANNELS, 1),
            cache: None,
        }
    }

    fn mix_weights(&self) -> [f32; CHANNELS] {
        let logits: Vec<f32> = (0..CHANNELS).map(|c| self.beta.get(c, 0)).collect();
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        [exps[0] / sum, exps[1] / sum, exps[2] / sum]
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        x: &DenseMatrix,
        agg_time: &mut Duration,
    ) -> Result<DenseMatrix> {
        let a_hat = ctx.sym_adj();
        // Low-pass: Â·(X·W_L).
        let low_lin = self.low.forward(x)?;
        let low = timed_spmm(a_hat, &low_lin, agg_time)?;
        // High-pass: (I − Â)·(X·W_H).
        let high_lin = self.high.forward(x)?;
        let smoothed = timed_spmm(a_hat, &high_lin, agg_time)?;
        let mut high = high_lin;
        high.sub_assign(&smoothed)?;
        // Identity channel.
        let ident = self.identity.forward(x)?;

        let mix = self.mix_weights();
        let mut out = DenseMatrix::zeros(x.rows(), low.cols());
        out.add_scaled(mix[0], &low)?;
        out.add_scaled(mix[1], &high)?;
        out.add_scaled(mix[2], &ident)?;
        self.cache = Some(AcmCache {
            channels: [low, high, ident],
            mix,
        });
        Ok(out)
    }

    fn backward(
        &mut self,
        ctx: &GraphContext,
        grad_out: &DenseMatrix,
        agg_time: &mut Duration,
    ) -> Result<DenseMatrix> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "AcmLayer" })?;
        let a_hat = ctx.sym_adj();
        // Gradient w.r.t. the mixing logits through the softmax.
        let dot: Vec<f32> = cache
            .channels
            .iter()
            .map(|c| {
                c.as_slice()
                    .iter()
                    .zip(grad_out.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum::<f32>()
            })
            .collect();
        let weighted: f32 = (0..CHANNELS).map(|c| cache.mix[c] * dot[c]).sum();
        for (c, &dot_c) in dot.iter().enumerate() {
            let g = cache.mix[c] * (dot_c - weighted);
            self.beta_grad.set(c, 0, self.beta_grad.get(c, 0) + g);
        }

        // Gradient w.r.t. each channel, then through the propagation and the
        // channel's linear map back to the shared input.
        let mut d_low = grad_out.clone();
        d_low.scale(cache.mix[0]);
        let d_low_lin = timed_spmm_transpose(a_hat, &d_low, agg_time)?;
        let mut d_x = self.low.backward(&d_low_lin)?;

        let mut d_high = grad_out.clone();
        d_high.scale(cache.mix[1]);
        let mut d_high_lin = d_high.clone();
        d_high_lin.sub_assign(&timed_spmm_transpose(a_hat, &d_high, agg_time)?)?;
        d_x.add_assign(&self.high.backward(&d_high_lin)?)?;

        let mut d_ident = grad_out.clone();
        d_ident.scale(cache.mix[2]);
        d_x.add_assign(&self.identity.backward(&d_ident)?)?;
        Ok(d_x)
    }

    fn zero_grad(&mut self) {
        self.low.zero_grad();
        self.high.zero_grad();
        self.identity.zero_grad();
        self.beta_grad.fill_zero();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer, key_base: usize) -> Result<()> {
        self.low.apply_gradients(optimizer, key_base)?;
        self.high.apply_gradients(optimizer, key_base + 2)?;
        self.identity.apply_gradients(optimizer, key_base + 4)?;
        optimizer.update(key_base + 6, &mut self.beta, &self.beta_grad)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.low.num_parameters()
            + self.high.num_parameters()
            + self.identity.num_parameters()
            + CHANNELS
    }
}

/// A two-layer ACM-GCN.
#[derive(Debug)]
pub struct AcmGcn {
    layer1: AcmLayer,
    layer2: AcmLayer,
    dropout: f32,
    hidden_cache: Option<(DenseMatrix, DropoutMask)>,
    agg_time: Duration,
}

impl AcmGcn {
    /// Builds a 2-layer ACM-GCN for the given context.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        Self {
            layer1: AcmLayer::new(ctx.feature_dim(), hyper.hidden, rng),
            layer2: AcmLayer::new(hyper.hidden, ctx.num_classes(), rng),
            dropout: hyper.dropout,
            hidden_cache: None,
            agg_time: Duration::ZERO,
        }
    }

    /// The first layer's current channel-mixing weights `(low, high, identity)`.
    pub fn channel_mix(&self) -> [f32; CHANNELS] {
        self.layer1.mix_weights()
    }
}

impl Model for AcmGcn {
    fn name(&self) -> &'static str {
        "ACMGCN"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let pre_hidden = self
            .layer1
            .forward(ctx, ctx.features(), &mut self.agg_time)?;
        let activated = relu_forward(&pre_hidden);
        let (dropped, mask) = dropout_forward(&activated, self.dropout, training, rng);
        let logits = self.layer2.forward(ctx, &dropped, &mut self.agg_time)?;
        self.hidden_cache = Some((pre_hidden, mask));
        Ok(logits)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let (pre_hidden, mask) = self
            .hidden_cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "AcmGcn" })?;
        let d_hidden = self.layer2.backward(ctx, grad_logits, &mut self.agg_time)?;
        let d_hidden = mask.backward(&d_hidden);
        let d_hidden = relu_backward(&d_hidden, &pre_hidden);
        self.layer1.backward(ctx, &d_hidden, &mut self.agg_time)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.layer1.zero_grad();
        self.layer2.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.layer1.apply_gradients(optimizer, 0)?;
        self.layer2.apply_gradients(optimizer, 8)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.layer1.num_parameters() + self.layer2.num_parameters()
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
    fn forward_shape_and_finite() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = AcmGcn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
    }

    #[test]
    fn channel_mix_is_a_distribution() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(1);
        let model = AcmGcn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let mix = model.channel_mix();
        let sum: f32 = mix.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(mix.iter().all(|&m| m > 0.0));
        // With zero-initialised logits every channel starts with equal weight.
        assert!(mix.iter().all(|&m| (m - 1.0 / 3.0).abs() < 1e-5));
    }

    #[test]
    fn beta_gradient_matches_finite_differences() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small().with_dropout(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = AcmGcn::new(&ctx, &hyper, &mut rng);

        let logits = model.forward(&ctx, true, &mut rng).unwrap();
        let (_, grad) = softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
        model.zero_grad();
        model.backward(&ctx, &grad).unwrap();
        let analytic = model.layer1.beta_grad.get(1, 0);

        let eps = 1e-2f32;
        let loss_at = |model: &mut AcmGcn, value: f32, rng: &mut StdRng| -> f32 {
            model.layer1.beta.set(1, 0, value);
            let logits = model.forward(&ctx, false, rng).unwrap();
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train)
                .unwrap()
                .0
        };
        let base = model.layer1.beta.get(1, 0);
        let hi = loss_at(&mut model, base + eps, &mut rng);
        let lo = loss_at(&mut model, base - eps, &mut rng);
        let numeric = (hi - lo) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2_f32.max(0.2 * numeric.abs()),
            "beta gradient mismatch: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn learns_under_heterophily() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = AcmGcn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 80);
        assert!(
            final_acc > initial + 0.05 || final_acc > 0.6,
            "ACM-GCN failed to learn: {initial} -> {final_acc}"
        );
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }

    #[test]
    fn backward_requires_forward() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = AcmGcn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let grad = DenseMatrix::zeros(ctx.num_nodes(), ctx.num_classes());
        assert!(model.backward(&ctx, &grad).is_err());
    }
}
