//! Graph Convolutional Network (Kipf & Welling 2017).
//!
//! `H^{ℓ+1} = σ(Â · H^{ℓ} · W_ℓ)` with the symmetric normalization
//! `Â = D̃^{-1/2}(A+I)D̃^{-1/2}`. Local, uniform aggregation — the canonical
//! example of the behaviour the paper argues breaks down under heterophily.
//! The depth is configurable because Table XI compares GCN-1/2/3 against the
//! iterative SIGMA variant.

use crate::models::{timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::Duration;

/// A GCN with a configurable number of propagation layers.
#[derive(Debug)]
pub struct Gcn {
    layers: Vec<Linear>,
    dropout: f32,
    cache: Option<Cache>,
    agg_time: Duration,
}

#[derive(Debug, Default)]
struct Cache {
    /// Pre-activation output of each non-final layer.
    pre_activations: Vec<DenseMatrix>,
    /// Dropout masks applied after each hidden activation.
    masks: Vec<DropoutMask>,
}

impl Gcn {
    /// Builds a GCN with `num_layers` propagation layers.
    pub fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        num_layers: usize,
        rng: &mut R,
    ) -> Self {
        let num_layers = num_layers.max(1);
        let mut layers = Vec::with_capacity(num_layers);
        if num_layers == 1 {
            layers.push(Linear::new(ctx.feature_dim(), ctx.num_classes(), rng));
        } else {
            layers.push(Linear::new(ctx.feature_dim(), hyper.hidden, rng));
            for _ in 1..num_layers - 1 {
                layers.push(Linear::new(hyper.hidden, hyper.hidden, rng));
            }
            layers.push(Linear::new(hyper.hidden, ctx.num_classes(), rng));
        }
        Self {
            layers,
            dropout: hyper.dropout,
            cache: None,
            agg_time: Duration::ZERO,
        }
    }

    /// Number of propagation layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Model for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let a_hat = ctx.sym_adj();
        let mut cache = Cache::default();
        let mut h = ctx.features().clone();
        let last = self.layers.len() - 1;
        for (idx, layer) in self.layers.iter_mut().enumerate() {
            let propagated = timed_spmm(a_hat, &h, &mut self.agg_time)?;
            let pre = layer.forward(&propagated)?;
            if idx < last {
                cache.pre_activations.push(pre.clone());
                let activated = relu_forward(&pre);
                let (dropped, mask) = dropout_forward(&activated, self.dropout, training, rng);
                cache.masks.push(mask);
                h = dropped;
            } else {
                h = pre;
            }
        }
        self.cache = Some(cache);
        Ok(h)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "Gcn" })?;
        let a_hat = ctx.sym_adj();
        let mut grad = grad_logits.clone();
        for idx in (1..self.layers.len()).rev() {
            // Through the linear map: accumulates dW, returns gradient w.r.t.
            // the propagated input Â·H.
            let d_propagated = self.layers[idx].backward(&grad)?;
            // Through the propagation operator (Â is symmetric, but use the
            // transpose kernel for clarity and generality).
            grad = timed_spmm_transpose(a_hat, &d_propagated, &mut self.agg_time)?;
            grad = cache.masks[idx - 1].backward(&grad);
            grad = relu_backward(&grad, &cache.pre_activations[idx - 1]);
        }
        // The first layer's input Â·X is a constant: parameters only.
        self.layers[0].backward_params(&grad)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_gradients(optimizer, 2 * i)?;
        }
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.layers.iter().map(Linear::num_parameters).sum()
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
    fn forward_shape_and_depth() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        for depth in 1..=3 {
            let mut model = Gcn::new(&ctx, &ModelHyperParams::small(), depth, &mut rng);
            assert_eq!(model.num_layers(), depth);
            let logits = model.forward(&ctx, false, &mut rng).unwrap();
            assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
            assert!(logits.is_finite());
        }
    }

    #[test]
    fn backward_requires_forward() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Gcn::new(&ctx, &ModelHyperParams::small(), 2, &mut rng);
        let grad = DenseMatrix::zeros(ctx.num_nodes(), ctx.num_classes());
        assert!(model.backward(&ctx, &grad).is_err());
    }

    #[test]
    fn learns_and_reports_aggregation_time() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = Gcn::new(&ctx, &ModelHyperParams::small(), 2, &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 60);
        assert!(
            final_acc >= initial - 0.05,
            "GCN should not collapse: {initial} -> {final_acc}"
        );
        // Aggregation time accumulated over the training loop.
        assert!(model.take_aggregation_time() > Duration::ZERO);
        // And the counter resets after being taken.
        assert_eq!(model.take_aggregation_time(), Duration::ZERO);
    }
}
