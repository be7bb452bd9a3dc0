//! Iterative SIGMA (paper Section V.F, Table XI).
//!
//! The one-shot aggregation of Eq. (5) can also be used as a *general edge
//! rewiring*: replacing `Â` in a GCN with the SimRank operator `S` gives
//! `Z = σ(… σ(S·σ(S·X_S·W)·W) …)` with
//! `X_S = δ·(X·W_X) + (1−δ)·(A·W_A)`. Table XI compares this against plain
//! GCN at depths 1–3.

use crate::models::{split_by_delta, timed_spmm, timed_spmm_transpose};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::Duration;

/// SIGMA with `L` iterative propagation layers over the SimRank operator.
#[derive(Debug)]
pub struct SigmaIterative {
    embed_x: Linear,
    embed_a: Linear,
    layers: Vec<Linear>,
    delta: f64,
    dropout: f32,
    cache: Option<Cache>,
    agg_time: Duration,
}

#[derive(Debug, Default)]
struct Cache {
    pre_activations: Vec<DenseMatrix>,
    masks: Vec<DropoutMask>,
}

impl SigmaIterative {
    /// Builds the iterative variant with `num_layers` propagation layers.
    pub fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        num_layers: usize,
        rng: &mut R,
    ) -> Result<Self> {
        ctx.require_simrank("SIGMA-iter")?;
        let hidden = hyper.hidden;
        let embed_x = Linear::new(ctx.feature_dim(), hidden, rng);
        let embed_a = Linear::new(ctx.num_nodes(), hidden, rng);
        let mut layers = Vec::with_capacity(num_layers);
        if num_layers == 1 {
            layers.push(Linear::new(hidden, ctx.num_classes(), rng));
        } else {
            layers.push(Linear::new(hidden, hidden, rng));
            for _ in 1..num_layers - 1 {
                layers.push(Linear::new(hidden, hidden, rng));
            }
            layers.push(Linear::new(hidden, ctx.num_classes(), rng));
        }
        Ok(Self {
            embed_x,
            embed_a,
            layers,
            delta: hyper.delta,
            dropout: hyper.dropout,
            cache: None,
            agg_time: Duration::ZERO,
        })
    }

    /// Number of propagation layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Model for SigmaIterative {
    fn name(&self) -> &'static str {
        "SIGMA-iter"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let s = ctx.require_simrank("SIGMA-iter")?;
        // X_S = δ·(X·W_X) + (1−δ)·(A·W_A).
        let hx = self.embed_x.forward(ctx.features())?;
        let ha = self.embed_a.forward_sparse(ctx.adjacency())?;
        let mut h = hx.linear_combination(self.delta as f32, (1.0 - self.delta) as f32, &ha)?;
        let mut cache = Cache::default();
        let last = self.layers.len() - 1;
        for (idx, layer) in self.layers.iter_mut().enumerate() {
            let propagated = timed_spmm(s, &h, &mut self.agg_time)?;
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
            .ok_or(sigma_nn::NnError::MissingForwardCache {
                layer: "SigmaIterative",
            })?;
        let s = ctx.require_simrank("SIGMA-iter")?;
        let mut grad = grad_logits.clone();
        for idx in (0..self.layers.len()).rev() {
            let d_propagated = self.layers[idx].backward(&grad)?;
            grad = timed_spmm_transpose(s, &d_propagated, &mut self.agg_time)?;
            if idx > 0 {
                let hidden_idx = idx - 1;
                grad = cache.masks[hidden_idx].backward(&grad);
                grad = relu_backward(&grad, &cache.pre_activations[hidden_idx]);
            }
        }
        // Split into the two embedding branches by δ.
        let (d_x, d_a) = split_by_delta(grad, self.delta);
        self.embed_x.backward_params(&d_x)?;
        self.embed_a.backward_params(&d_a)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.embed_x.zero_grad();
        self.embed_a.zero_grad();
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.embed_x.apply_gradients(optimizer, 0)?;
        self.embed_a.apply_gradients(optimizer, 2)?;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_gradients(optimizer, 4 + 2 * i)?;
        }
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.embed_x.num_parameters()
            + self.embed_a.num_parameters()
            + self
                .layers
                .iter()
                .map(Linear::num_parameters)
                .sum::<usize>()
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
    fn forward_shape_at_each_depth() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        for depth in 1..=3 {
            let mut model =
                SigmaIterative::new(&ctx, &ModelHyperParams::small(), depth, &mut rng).unwrap();
            assert_eq!(model.num_layers(), depth);
            let logits = model.forward(&ctx, false, &mut rng).unwrap();
            assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
            assert!(logits.is_finite());
        }
    }

    #[test]
    fn requires_simrank() {
        let data =
            sigma_datasets::generate(&sigma_datasets::GeneratorConfig::new(30, 4.0, 2, 4), 0)
                .unwrap();
        let ctx = crate::ContextBuilder::new(data).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(SigmaIterative::new(&ctx, &ModelHyperParams::small(), 2, &mut rng).is_err());
    }

    #[test]
    fn learns_on_training_split() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = SigmaIterative::new(&ctx, &ModelHyperParams::small(), 1, &mut rng).unwrap();
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 80);
        assert!(
            final_acc > initial || final_acc > 0.6,
            "{initial} -> {final_acc}"
        );
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }
}
