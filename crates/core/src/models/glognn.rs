//! GloGNN (Li et al. 2022), simplified — the strongest baseline in the paper
//! and the one SIGMA's efficiency comparison focuses on.
//!
//! GloGNN shares SIGMA's and LINKX's `Decoupled` embedding stage
//! (`H = δ·MLP_X(X) + (1−δ)·MLP_A(A)`), but aggregates *before* `MLP_H`, in
//! hidden space, and derives a *global coefficient matrix* from an
//! optimisation problem, re-solved in every layer of every epoch, with
//! per-iteration cost `O(k₂·m·f·l_norm)`.
//!
//! This reproduction keeps the three properties that drive both its accuracy
//! and the paper's efficiency comparison (Table VII, Fig. 4/5):
//!
//! * the shared decoupled embedding,
//! * an **iterative aggregation that is recomputed on every forward pass**,
//!   `l_norm` rounds of
//!   `Z ← (1−α)·[(1−γ)·Σ_{k=1..k₂} β^k·Â^k·Z + γ·H(HᵀZ)/n] + α·H`,
//! * the **global feature-similarity coefficient term** `H(HᵀZ)` of the
//!   original closed-form solve, evaluated right-to-left so its cost is
//!   `O(n·f²·l_norm)` per epoch rather than `O(n²·f)`.
//!
//! SIGMA's aggregation operator, in contrast, is computed once before
//! training. The exact closed-form coefficients of the original model are
//! replaced by fixed mixing weights, and the backward pass treats `H` inside
//! the coefficient term as constant; the per-epoch *cost structure*
//! `O(k₂·m·f·l_norm + n·f²·l_norm)` matches the original.

use crate::models::{timed_spmm, timed_spmm_transpose, Decoupled};
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::Optimizer;
use std::time::Duration;

/// The (simplified) GloGNN baseline.
#[derive(Debug)]
pub struct GloGnn {
    net: Decoupled,
    alpha: f64,
    /// Multi-hop order `k₂` (paper: {3, 4, 5}).
    k2: usize,
    /// Number of aggregation rounds `l_norm` (paper: {2, 3}).
    l_norm: usize,
    /// Hop decay β inside the multi-hop sum.
    beta: f64,
    /// Mixing weight γ between the feature-similarity coefficient term and
    /// the multi-hop structural term.
    gamma: f64,
    /// `H` from the last forward pass, needed by the coefficient adjoint.
    cached_h: Option<DenseMatrix>,
    agg_time: Duration,
}

impl GloGnn {
    /// Builds the model for the given context.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        Self {
            net: Decoupled::new(ctx, hyper, rng),
            alpha: hyper.alpha.clamp(0.05, 0.95),
            k2: hyper.hops.clamp(2, 5),
            l_norm: 2,
            beta: 0.7,
            gamma: 0.5,
            cached_h: None,
            agg_time: Duration::ZERO,
        }
    }

    /// Applies the multi-hop operator `M(Z) = Σ_{k=1..k₂} β^k·Â^k·Z`,
    /// normalised so the hop weights sum to one.
    fn multi_hop(
        &mut self,
        ctx: &GraphContext,
        z: &DenseMatrix,
        transpose: bool,
    ) -> Result<DenseMatrix> {
        let a_hat = ctx.sym_adj();
        let weight_sum: f64 = (1..=self.k2).map(|k| self.beta.powi(k as i32)).sum();
        let mut current = z.clone();
        let mut out = DenseMatrix::zeros(z.rows(), z.cols());
        for k in 1..=self.k2 {
            current = if transpose {
                timed_spmm_transpose(a_hat, &current, &mut self.agg_time)?
            } else {
                timed_spmm(a_hat, &current, &mut self.agg_time)?
            };
            let w = (self.beta.powi(k as i32) / weight_sum) as f32;
            out.add_scaled(w, &current)?;
        }
        Ok(out)
    }

    /// The global feature-similarity coefficient term `H(HᵀZ)/n` of the
    /// original GloGNN closed-form solve, evaluated right-to-left so it costs
    /// `O(n·f²)` per call. `H HᵀZ` is symmetric in `Z`, so the same routine
    /// serves as its own adjoint in the backward pass.
    fn feature_global(&mut self, h: &DenseMatrix, z: &DenseMatrix) -> Result<DenseMatrix> {
        let start = std::time::Instant::now();
        let ht_z = h.matmul_transpose_self(z)?;
        let mut out = h.matmul(&ht_z)?;
        out.scale(1.0 / h.rows().max(1) as f32);
        self.agg_time += start.elapsed();
        Ok(out)
    }

    /// One aggregation round `(1−γ)·M(Z) + γ·H(HᵀZ)/n` (or its adjoint).
    fn aggregate_round(
        &mut self,
        ctx: &GraphContext,
        h: &DenseMatrix,
        z: &DenseMatrix,
        transpose: bool,
    ) -> Result<DenseMatrix> {
        let structural = self.multi_hop(ctx, z, transpose)?;
        let global = self.feature_global(h, z)?;
        Ok(structural.linear_combination((1.0 - self.gamma) as f32, self.gamma as f32, &global)?)
    }
}

impl Model for GloGnn {
    fn name(&self) -> &'static str {
        "GloGNN"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        // `H` lives in hidden space: GloGNN (unlike SIGMA, which aggregates
        // the final `n×N_y` logits) re-aggregates the full hidden-width
        // embedding every epoch — this width difference is a large part of
        // the paper's measured efficiency gap.
        let h = self.net.embed(ctx, training, rng)?;

        // Iterative aggregation, recomputed every epoch (the cost SIGMA avoids).
        let alpha = self.alpha as f32;
        let mut z = h.clone();
        for _ in 0..self.l_norm {
            let aggregated = self.aggregate_round(ctx, &h, &z, false)?;
            z = aggregated.linear_combination(1.0 - alpha, alpha, &h)?;
        }
        let logits = self.net.mlp_h.forward(&z, training, rng)?;
        self.cached_h = Some(h);
        Ok(logits)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        // Adjoint of the iterative aggregation. The structural operator and
        // the coefficient term (with `H` held constant) are both linear and
        // self-adjoint, so each round maps `g ← (1−α)·round(g)`.
        let h = self
            .cached_h
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "GloGnn" })?;
        let d_z = self.net.mlp_h.backward(grad_logits)?;
        let alpha = self.alpha as f32;
        let mut g = d_z.clone();
        let mut d_h = DenseMatrix::zeros(d_z.rows(), d_z.cols());
        for _ in 0..self.l_norm {
            let mut restart = g.clone();
            restart.scale(alpha);
            d_h.add_assign(&restart)?;
            let mut back = self.aggregate_round(ctx, &h, &g, true)?;
            back.scale(1.0 - alpha);
            g = back;
        }
        d_h.add_assign(&g)?;
        self.net.backward_embed(d_h)
    }

    fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.net.apply_gradients(optimizer)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.net.num_parameters()
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
    fn forward_shape() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GloGnn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
    }

    #[test]
    fn learns_under_heterophily() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = GloGnn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 80);
        assert!(
            final_acc > initial + 0.1 || final_acc > 0.8,
            "GloGNN failed to learn: {initial} -> {final_acc}"
        );
    }

    #[test]
    fn aggregation_cost_is_paid_every_epoch() {
        // Unlike SIGMA (whose operator is precomputed), GloGNN re-runs its
        // multi-hop aggregation every forward pass, so aggregation time keeps
        // accumulating across epochs.
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = GloGnn::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let _ = model.forward(&ctx, false, &mut rng).unwrap();
        let first = model.take_aggregation_time();
        let _ = model.forward(&ctx, false, &mut rng).unwrap();
        let second = model.take_aggregation_time();
        assert!(first > Duration::ZERO);
        assert!(second > Duration::ZERO);
    }
}
