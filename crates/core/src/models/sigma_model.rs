//! The SIGMA model (paper Section III-B, Eq. 4–6).
//!
//! ```text
//! H_A = MLP_A(A)          H_X = MLP_X(X)
//! H   = MLP_H(δ·H_X + (1−δ)·H_A)        (Eq. 4)
//! Ẑ   = S · H                            (Eq. 5, one-time global aggregation)
//! Z   = (1−α)·Ẑ + α·H                    (Eq. 6)
//! ```
//!
//! The aggregation operator `S` is the constant top-k SimRank matrix from the
//! [`GraphContext`]; during training the only graph work per epoch is one
//! `O(k·n·f)` SpMM forward and one transposed SpMM backward. `S`, `A` and
//! `X` are borrowed from the context, never copied, and no gradient is taken
//! with respect to any of them: `MLP_A` and `MLP_X` run
//! [`Mlp::backward_params`], so a step costs `O(m·f + n·f² + k·n·f)` in time
//! and memory — linear in the graph, as the paper's Table III says.
//!
//! Measured on the `learn_pokec` benchmark's inputs (4 160 nodes, 65
//! features, hidden 32, `A` 99 840 nnz, `S` 66 560 nnz, one pool thread;
//! `kernel_microopt`'s `train_step` family re-measures it): an epoch is
//! ≈ 8.7 ms — training forward 2.7, loss 0.1, backward 3.3, Adam 0.15,
//! evaluation forward 2.5 — of which the two SpMMs with `S` are 0.5 ms.
//! (With the full `backward` on `MLP_A` the same epoch was ≈ 170 ms, 162 of
//! them the `4160 × 4160` input gradient of `A`, computed and dropped.)
//!
//! Every ablation of the paper's Table VIII/IX/X is a switch here:
//!
//! * [`AggregatorKind::SimRank`] — full SIGMA,
//! * [`AggregatorKind::SimRankTimesA`] — localized `S·A` variant ("SIGMA w/ S·A"),
//! * [`AggregatorKind::Ppr`] — PPR aggregation (the Fig. 1(b) comparison),
//! * [`AggregatorKind::None`] — "SIGMA w/o S" (equivalent to `α = 1`),
//! * `δ = 0` / `δ = 1` — "SIGMA w/o X" / "SIGMA w/o A",
//! * learnable `α` — the convergent values reported in Table X.

use crate::models::{split_by_delta, timed_spmm, timed_spmm_transpose};
use crate::snapshot::ModelSnapshot;
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_nn::{Mlp, MlpConfig, Optimizer};
use std::time::Duration;

/// Which constant operator SIGMA aggregates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// The top-k SimRank matrix `S` (full SIGMA).
    SimRank,
    /// The localized `S·A` operator (Table VIII ablation).
    SimRankTimesA,
    /// A top-k Personalized PageRank matrix (local-aggregation comparison).
    Ppr,
    /// No aggregation at all ("SIGMA w/o S"; equivalent to `α = 1`).
    None,
}

/// The SIGMA model.
#[derive(Debug)]
pub struct SigmaModel {
    mlp_a: Mlp,
    mlp_x: Mlp,
    mlp_h: Mlp,
    delta: f64,
    alpha_fixed: f64,
    /// Raw learnable parameter `a` with `α = sigmoid(a)`, if enabled.
    alpha_raw: Option<DenseMatrix>,
    alpha_grad: DenseMatrix,
    aggregator: AggregatorKind,
    /// The `S·A` operator, precomputed at construction for the ablation.
    local_operator: Option<CsrMatrix>,
    cache: Option<Cache>,
    agg_time: Duration,
}

#[derive(Debug)]
struct Cache {
    /// `H` from Eq. (4).
    h: DenseMatrix,
    /// `Ẑ = S·H` from Eq. (5) (identical to `h` when aggregation is disabled).
    z_hat: DenseMatrix,
}

impl SigmaModel {
    /// Builds SIGMA with the default SimRank aggregator.
    pub fn new<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        rng: &mut R,
    ) -> Result<Self> {
        Self::with_aggregator(ctx, hyper, AggregatorKind::SimRank, rng)
    }

    /// Builds SIGMA with an explicit aggregation operator choice.
    pub fn with_aggregator<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        aggregator: AggregatorKind,
        rng: &mut R,
    ) -> Result<Self> {
        hyper.validate()?;
        match aggregator {
            AggregatorKind::SimRank | AggregatorKind::SimRankTimesA => {
                ctx.require_simrank("SIGMA")?;
            }
            AggregatorKind::Ppr => {
                ctx.require_ppr("SIGMA(PPR)")?;
            }
            AggregatorKind::None => {}
        }
        let local_operator = if aggregator == AggregatorKind::SimRankTimesA {
            // S·A restricted to immediate neighbours, row-normalised so the
            // aggregation magnitude stays comparable to S.
            let s = ctx.require_simrank("SIGMA")?;
            let mut sa = s.spgemm(ctx.row_adj())?;
            sa.row_normalize();
            Some(sa)
        } else {
            None
        };

        let hidden = hyper.hidden;
        let mlp_a = Mlp::new(
            MlpConfig::new(ctx.num_nodes(), hidden, hidden, 1).with_dropout(hyper.dropout),
            rng,
        );
        let mlp_x = Mlp::new(
            MlpConfig::new(ctx.feature_dim(), hidden, hidden, 1).with_dropout(hyper.dropout),
            rng,
        );
        let mlp_h = Mlp::new(
            MlpConfig::new(hidden, hidden, ctx.num_classes(), hyper.num_layers)
                .with_dropout(hyper.dropout),
            rng,
        );
        let alpha_raw = if hyper.learnable_alpha {
            // Initialise the raw parameter so sigmoid(a) equals the configured α.
            let a = inverse_sigmoid(hyper.alpha.clamp(0.01, 0.99));
            Some(DenseMatrix::filled(1, 1, a as f32))
        } else {
            None
        };
        Ok(Self {
            mlp_a,
            mlp_x,
            mlp_h,
            delta: hyper.delta,
            alpha_fixed: hyper.alpha,
            alpha_raw,
            alpha_grad: DenseMatrix::zeros(1, 1),
            aggregator,
            local_operator,
            cache: None,
            agg_time: Duration::ZERO,
        })
    }

    /// The current value of `α` (fixed or learned).
    pub fn alpha(&self) -> f64 {
        match &self.alpha_raw {
            Some(raw) => sigmoid(raw.get(0, 0) as f64),
            None => self.alpha_fixed,
        }
    }

    /// The configured feature factor `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The configured aggregation operator.
    pub fn aggregator(&self) -> AggregatorKind {
        self.aggregator
    }

    /// The intermediate embedding `H` and output `Z` of the last forward pass
    /// (used by the Fig. 8 grouping-effect visualisation).
    pub fn last_embeddings(&self) -> Option<(&DenseMatrix, &DenseMatrix)> {
        self.cache.as_ref().map(|c| (&c.h, &c.z_hat))
    }

    /// Captures the trained model as a self-contained [`ModelSnapshot`].
    ///
    /// The aggregation operator is resolved against `ctx` exactly as
    /// [`Model::forward`] would resolve it, so the snapshot serves with the
    /// same operator the model trained on.
    pub fn snapshot(&self, ctx: &GraphContext) -> Result<ModelSnapshot> {
        let operator = Self::operator(self.aggregator, &self.local_operator, ctx)?.cloned();
        let snapshot = ModelSnapshot {
            delta: self.delta,
            alpha: self.alpha_fixed,
            alpha_raw: self.alpha_raw.as_ref().map(|raw| raw.get(0, 0)),
            dropout: self.mlp_h.dropout(),
            aggregator: self.aggregator,
            operator,
            mlp_a: self.mlp_a.export_weights(),
            mlp_x: self.mlp_x.export_weights(),
            mlp_h: self.mlp_h.export_weights(),
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Rebuilds a model from a snapshot.
    ///
    /// The restored model is immediately trainable and, in eval mode,
    /// produces logits bitwise-identical to the snapshotted model when run
    /// against a context holding the same operators (for
    /// [`AggregatorKind::SimRank`] / [`AggregatorKind::Ppr`], pair it with
    /// [`crate::ContextBuilder::with_simrank_operator`] /
    /// `with_ppr`-provisioned contexts; the `S·A` variant carries its local
    /// operator inside the snapshot).
    pub fn restore(snapshot: &ModelSnapshot) -> Result<Self> {
        snapshot.validate()?;
        let rebuild = |stack: &crate::snapshot::MlpWeights, dropout: f32| -> Result<Mlp> {
            let layers = stack
                .iter()
                .map(|(w, b)| sigma_nn::Linear::from_parts(w.clone(), b.clone()))
                .collect::<sigma_nn::Result<Vec<_>>>()?;
            Ok(Mlp::from_layers(layers, dropout)?)
        };
        let local_operator = if snapshot.aggregator == AggregatorKind::SimRankTimesA {
            snapshot.operator.clone()
        } else {
            None
        };
        Ok(Self {
            mlp_a: rebuild(&snapshot.mlp_a, snapshot.dropout)?,
            mlp_x: rebuild(&snapshot.mlp_x, snapshot.dropout)?,
            mlp_h: rebuild(&snapshot.mlp_h, snapshot.dropout)?,
            delta: snapshot.delta,
            alpha_fixed: snapshot.alpha,
            alpha_raw: snapshot.alpha_raw.map(|raw| DenseMatrix::filled(1, 1, raw)),
            alpha_grad: DenseMatrix::zeros(1, 1),
            aggregator: snapshot.aggregator,
            local_operator,
            cache: None,
            agg_time: Duration::ZERO,
        })
    }

    /// The constant aggregation operator, borrowed. An associated function
    /// of the two fields it reads so a caller can hold the result beside
    /// `&mut self.agg_time`.
    fn operator<'a>(
        aggregator: AggregatorKind,
        local_operator: &'a Option<CsrMatrix>,
        ctx: &'a GraphContext,
    ) -> Result<Option<&'a CsrMatrix>> {
        match aggregator {
            AggregatorKind::SimRank => Ok(Some(ctx.require_simrank("SIGMA")?)),
            AggregatorKind::SimRankTimesA => Ok(local_operator.as_ref()),
            AggregatorKind::Ppr => Ok(Some(ctx.require_ppr("SIGMA(PPR)")?)),
            AggregatorKind::None => Ok(None),
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn inverse_sigmoid(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

impl Model for SigmaModel {
    fn name(&self) -> &'static str {
        "SIGMA"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        // Eq. (4): decoupled embeddings of topology and attributes.
        let h_a = self.mlp_a.forward_sparse(ctx.adjacency(), training, rng)?;
        let h_x = self.mlp_x.forward(ctx.features(), training, rng)?;
        let combined =
            h_x.linear_combination(self.delta as f32, (1.0 - self.delta) as f32, &h_a)?;
        let h = self.mlp_h.forward(&combined, training, rng)?;

        // Eq. (5): one-shot global aggregation with the constant operator.
        let z_hat = match Self::operator(self.aggregator, &self.local_operator, ctx)? {
            Some(op) => timed_spmm(op, &h, &mut self.agg_time)?,
            None => h.clone(),
        };
        // Eq. (6): balance global aggregation against the raw embedding.
        let alpha = self.alpha() as f32;
        let z = z_hat.linear_combination(1.0 - alpha, alpha, &h)?;
        self.cache = Some(Cache { h, z_hat });
        Ok(z)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache {
                layer: "SigmaModel",
            })?;
        let alpha = self.alpha() as f32;

        // Learnable α: dL/dα = Σ (H − Ẑ) ⊙ dZ, then through the sigmoid.
        if self.alpha_raw.is_some() {
            let mut diff = cache.h.clone();
            diff.sub_assign(&cache.z_hat)?;
            diff.hadamard_assign(grad_logits)?;
            let d_alpha = diff.sum();
            let sig_grad = alpha * (1.0 - alpha);
            self.alpha_grad
                .set(0, 0, self.alpha_grad.get(0, 0) + d_alpha * sig_grad);
        }

        // Z = (1−α)·Ẑ + α·H   ⇒   dẐ = (1−α)·dZ,  dH (direct path) = α·dZ.
        let mut d_h = grad_logits.map(|v| v * alpha);
        let d_zhat = grad_logits.map(|v| v * (1.0 - alpha));
        match Self::operator(self.aggregator, &self.local_operator, ctx)? {
            // Ẑ = S·H ⇒ dH += Sᵀ·dẐ.
            Some(op) => d_h.add_assign(&timed_spmm_transpose(op, &d_zhat, &mut self.agg_time)?)?,
            // Ẑ = H: the aggregation path contributes (1−α)·dZ directly.
            None => d_h.add_assign(&d_zhat)?,
        }

        // Through MLP_H back to the combined embedding, then split by δ.
        // `X` and `A` are constants: their MLPs have no input gradient.
        let (d_x, d_a) = split_by_delta(self.mlp_h.backward(&d_h)?, self.delta);
        self.mlp_x.backward_params(&d_x)?;
        self.mlp_a.backward_params(&d_a)?;
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.mlp_a.zero_grad();
        self.mlp_x.zero_grad();
        self.mlp_h.zero_grad();
        self.alpha_grad.fill_zero();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        let mut key = 0;
        self.mlp_a.apply_gradients(optimizer, key)?;
        key += self.mlp_a.num_parameter_keys();
        self.mlp_x.apply_gradients(optimizer, key)?;
        key += self.mlp_x.num_parameter_keys();
        self.mlp_h.apply_gradients(optimizer, key)?;
        key += self.mlp_h.num_parameter_keys();
        if let Some(raw) = &mut self.alpha_raw {
            optimizer.update(key, raw, &self.alpha_grad)?;
        }
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.mlp_a.num_parameters()
            + self.mlp_x.num_parameters()
            + self.mlp_h.num_parameters()
            + usize::from(self.alpha_raw.is_some())
    }

    fn take_aggregation_time(&mut self) -> Duration {
        std::mem::take(&mut self.agg_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{small_context, split_for, train_briefly};
    use crate::SigmaError;
    use rand::SeedableRng;
    use sigma_nn::softmax_cross_entropy_masked;

    #[test]
    fn forward_shape_for_every_aggregator() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        for aggregator in [
            AggregatorKind::SimRank,
            AggregatorKind::SimRankTimesA,
            AggregatorKind::Ppr,
            AggregatorKind::None,
        ] {
            let mut model =
                SigmaModel::with_aggregator(&ctx, &ModelHyperParams::small(), aggregator, &mut rng)
                    .unwrap();
            let logits = model.forward(&ctx, false, &mut rng).unwrap();
            assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
            assert!(
                logits.is_finite(),
                "{aggregator:?} produced non-finite logits"
            );
            assert_eq!(model.aggregator(), aggregator);
        }
    }

    #[test]
    fn requires_simrank_operator() {
        let data =
            sigma_datasets::generate(&sigma_datasets::GeneratorConfig::new(30, 4.0, 2, 4), 0)
                .unwrap();
        let ctx = crate::ContextBuilder::new(data).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = SigmaModel::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap_err();
        assert!(matches!(err, SigmaError::MissingOperator { .. }));
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Check d(loss)/d(alpha_raw) for the learnable-α path, which exercises
        // the whole backward chain including the aggregation operator.
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small()
            .with_dropout(0.0)
            .with_learnable_alpha(true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();

        let logits = model.forward(&ctx, true, &mut rng).unwrap();
        let (_, dlogits) =
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
        model.zero_grad();
        model.backward(&ctx, &dlogits).unwrap();
        let analytic = model.alpha_grad.get(0, 0);

        // Numeric derivative w.r.t. the raw α parameter.
        let eps = 1e-2f32;
        let loss_at = |model: &mut SigmaModel, raw: f32, rng: &mut StdRng| -> f32 {
            model.alpha_raw.as_mut().unwrap().set(0, 0, raw);
            let logits = model.forward(&ctx, false, rng).unwrap();
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train)
                .unwrap()
                .0
        };
        let raw0 = model.alpha_raw.as_ref().unwrap().get(0, 0);
        let lp = loss_at(&mut model, raw0 + eps, &mut rng);
        let lm = loss_at(&mut model, raw0 - eps, &mut rng);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2,
            "alpha gradient mismatch: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn an_evaluation_pass_is_not_followed_by_backward() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = SigmaModel::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        // A training pass first, so stale caches would be there to misuse.
        model.forward(&ctx, true, &mut rng).unwrap();
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert!(matches!(
            model.backward(&ctx, &logits),
            Err(SigmaError::Nn(
                sigma_nn::NnError::MissingForwardCache { .. }
            ))
        ));
    }

    #[test]
    fn sigma_learns_under_heterophily_and_beats_its_ablation() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small();
        let mut rng = StdRng::seed_from_u64(5);
        let mut full = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();
        let (_, full_acc) = train_briefly(&mut full, &ctx, &split, 80);
        assert!(
            full_acc > 0.6,
            "SIGMA failed to fit its training split: {full_acc}"
        );
        // Aggregation time was measured.
        assert!(full.take_aggregation_time() > Duration::ZERO);
    }

    #[test]
    fn learnable_alpha_moves_during_training() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small()
            .with_learnable_alpha(true)
            .with_alpha(0.5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();
        let before = model.alpha();
        let _ = train_briefly(&mut model, &ctx, &split, 40);
        let after = model.alpha();
        assert!((before - 0.5).abs() < 1e-6);
        assert!(
            (after - before).abs() > 1e-4,
            "alpha did not move: {before} -> {after}"
        );
        assert!((0.0..=1.0).contains(&after));
    }

    #[test]
    fn embeddings_are_exposed_for_visualisation() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = SigmaModel::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        assert!(model.last_embeddings().is_none());
        let _ = model.forward(&ctx, false, &mut rng).unwrap();
        let (h, z_hat) = model.last_embeddings().unwrap();
        assert_eq!(h.rows(), ctx.num_nodes());
        assert_eq!(z_hat.rows(), ctx.num_nodes());
    }

    #[test]
    fn snapshot_restore_round_trip_is_exact() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small().with_learnable_alpha(true);
        let mut rng = StdRng::seed_from_u64(23);
        let mut model = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();
        let _ = train_briefly(&mut model, &ctx, &split, 20);

        let snapshot = model.snapshot(&ctx).unwrap();
        assert_eq!(snapshot.num_nodes(), ctx.num_nodes());
        assert_eq!(snapshot.feature_dim(), ctx.feature_dim());
        assert_eq!(snapshot.num_classes(), ctx.num_classes());
        assert_eq!(snapshot.num_parameters(), model.num_parameters());
        assert!((snapshot.effective_alpha() - model.alpha()).abs() < 1e-9);

        let mut restored = SigmaModel::restore(&snapshot).unwrap();
        assert_eq!(restored.num_parameters(), model.num_parameters());
        let mut rng_eval = StdRng::seed_from_u64(0);
        let original = model.forward(&ctx, false, &mut rng_eval).unwrap();
        let recovered = restored.forward(&ctx, false, &mut rng_eval).unwrap();
        assert_eq!(
            original, recovered,
            "restored model must reproduce eval-mode logits bitwise"
        );
        // The restored model trains further without errors.
        let (_, acc) = train_briefly(&mut restored, &ctx, &split, 5);
        assert!(acc.is_finite());
    }

    #[test]
    fn snapshot_validation_rejects_corrupted_records() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(29);
        let model = SigmaModel::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
        let good = model.snapshot(&ctx).unwrap();

        let mut missing_operator = good.clone();
        missing_operator.operator = None;
        assert!(SigmaModel::restore(&missing_operator).is_err());

        let mut bad_operator = good.clone();
        bad_operator.operator = Some(CsrMatrix::identity(3));
        assert!(SigmaModel::restore(&bad_operator).is_err());

        // A bias narrower than its weight's output width must fail
        // validation (an engine would otherwise silently mis-bias logits).
        let mut bad_bias = good.clone();
        bad_bias.mlp_h[0].1 = DenseMatrix::zeros(1, 1);
        assert!(bad_bias.validate().is_err());

        // Consecutive layers that do not chain are rejected.
        let mut bad_chain = good.clone();
        bad_chain
            .mlp_h
            .push((DenseMatrix::zeros(999, 4), DenseMatrix::zeros(1, 4)));
        assert!(bad_chain.validate().is_err());

        let mut empty_stack = good;
        empty_stack.mlp_h.clear();
        assert!(SigmaModel::restore(&empty_stack).is_err());
    }

    #[test]
    fn alpha_one_matches_no_aggregation() {
        // With α = 1 the aggregation branch is multiplied by zero, so SIGMA
        // with and without S produce identical logits for identical weights.
        let ctx = small_context();
        let hyper = ModelHyperParams::small().with_alpha(1.0).with_dropout(0.0);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut with_s =
            SigmaModel::with_aggregator(&ctx, &hyper, AggregatorKind::SimRank, &mut rng_a).unwrap();
        let mut without_s =
            SigmaModel::with_aggregator(&ctx, &hyper, AggregatorKind::None, &mut rng_b).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let za = with_s.forward(&ctx, false, &mut rng).unwrap();
        let zb = without_s.forward(&ctx, false, &mut rng).unwrap();
        for (a, b) in za.as_slice().iter().zip(zb.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
