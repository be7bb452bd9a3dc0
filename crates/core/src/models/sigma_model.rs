//! The SIGMA model (paper Section III-B, Eq. 4–6).
//!
//! ```text
//! H_A = MLP_A(A)          H_X = MLP_X(X)
//! H   = MLP_H(δ·H_X + (1−δ)·H_A)        (Eq. 4)
//! Ẑ   = S · H                            (Eq. 5, one-time global aggregation)
//! Z   = (1−α)·Ẑ + α·H                    (Eq. 6)
//! ```
//!
//! The embedding stage is the `Decoupled` one LINKX and GloGNN share. The
//! aggregation operator `S` is whatever constant `n × n` operator the
//! [`GraphContext`] holds: the top-k SimRank matrix it precomputed, or an
//! operator passed in through
//! [`crate::ContextBuilder::with_simrank_operator`]. During training the only
//! graph work per epoch is one `O(k·n·f)` SpMM forward and one transposed
//! SpMM backward. `S`, `A` and `X` are borrowed from the context, never
//! copied, and no gradient is taken with respect to any of them, so a step
//! costs `O(m·f + n·f² + k·n·f)` in time and memory — linear in the graph,
//! as the paper's Table III says.
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
//! * [`AggregatorKind::SimRank`] — full SIGMA; with a context built on
//!   another operator (`S·A`, PPR) it is that operator's ablation row,
//! * [`AggregatorKind::None`] — "SIGMA w/o S", `Z = H`: this is LINKX
//!   ([`crate::ModelKind::Linkx`] builds it),
//! * `δ = 0` / `δ = 1` — "SIGMA w/o X" / "SIGMA w/o A",
//! * learnable `α` — the convergent values reported in Table X.

use crate::models::{timed_spmm, timed_spmm_transpose, Decoupled};
use crate::snapshot::ModelSnapshot;
use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_nn::{Mlp, Optimizer};
use std::time::Duration;

/// Whether SIGMA aggregates with the context's operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// The context's constant aggregation operator: the top-k SimRank
    /// matrix `S` (full SIGMA), or an ablation operator passed through
    /// [`crate::ContextBuilder::with_simrank_operator`].
    SimRank,
    /// No aggregation at all, `Z = H` ("SIGMA w/o S", i.e. LINKX).
    None,
}

/// The SIGMA model.
#[derive(Debug)]
pub struct SigmaModel {
    net: Decoupled,
    alpha_fixed: f64,
    /// Raw learnable parameter `a` with `α = sigmoid(a)`, if enabled.
    alpha_raw: Option<DenseMatrix>,
    alpha_grad: DenseMatrix,
    aggregator: AggregatorKind,
    cache: Option<Cache>,
    agg_time: Duration,
}

/// What the backward of an aggregating forward reads.
#[derive(Debug)]
struct Cache {
    /// `H` from Eq. (4).
    h: DenseMatrix,
    /// `Ẑ = S·H` from Eq. (5).
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

    /// Builds SIGMA with or without aggregation. Without it, `α` has no
    /// role: the model has no `α` parameter even if `hyper` asks to learn
    /// one.
    pub fn with_aggregator<R: Rng + ?Sized>(
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        aggregator: AggregatorKind,
        rng: &mut R,
    ) -> Result<Self> {
        hyper.validate()?;
        if aggregator == AggregatorKind::SimRank {
            ctx.require_simrank("SIGMA")?;
        }
        let net = Decoupled::new(ctx, hyper, rng);
        let alpha_raw =
            (hyper.learnable_alpha && aggregator == AggregatorKind::SimRank).then(|| {
                // Initialise the raw parameter so sigmoid(a) equals the configured α.
                let a = inverse_sigmoid(hyper.alpha.clamp(0.01, 0.99));
                DenseMatrix::filled(1, 1, a as f32)
            });
        Ok(Self {
            net,
            alpha_fixed: hyper.alpha,
            alpha_raw,
            alpha_grad: DenseMatrix::zeros(1, 1),
            aggregator,
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
        self.net.delta
    }

    /// The configured aggregation operator.
    pub fn aggregator(&self) -> AggregatorKind {
        self.aggregator
    }

    /// Captures the trained model as a self-contained [`ModelSnapshot`].
    ///
    /// The aggregation operator is resolved against `ctx` exactly as
    /// [`Model::forward`] would resolve it, so the snapshot serves with the
    /// same operator the model trained on.
    pub fn snapshot(&self, ctx: &GraphContext) -> Result<ModelSnapshot> {
        let snapshot = ModelSnapshot {
            delta: self.net.delta,
            alpha: self.alpha_fixed,
            alpha_raw: self.alpha_raw.as_ref().map(|raw| raw.get(0, 0)),
            dropout: self.net.mlp_h.dropout(),
            aggregator: self.aggregator,
            operator: self.operator(ctx)?.cloned(),
            mlp_a: self.net.mlp_a.export_weights(),
            mlp_x: self.net.mlp_x.export_weights(),
            mlp_h: self.net.mlp_h.export_weights(),
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Rebuilds a model from a snapshot.
    ///
    /// The restored model is immediately trainable and, in eval mode,
    /// produces logits bitwise-identical to the snapshotted model when run
    /// against a context holding the same operator (for
    /// [`AggregatorKind::SimRank`], pass the snapshot's operator to
    /// [`crate::ContextBuilder::with_simrank_operator`]).
    pub fn restore(snapshot: &ModelSnapshot) -> Result<Self> {
        snapshot.validate()?;
        let rebuild = |stack: &crate::snapshot::MlpWeights| -> Result<Mlp> {
            let layers = stack
                .iter()
                .map(|(w, b)| sigma_nn::Linear::from_parts(w.clone(), b.clone()))
                .collect::<sigma_nn::Result<Vec<_>>>()?;
            Ok(Mlp::from_layers(layers, snapshot.dropout)?)
        };
        Ok(Self {
            net: Decoupled {
                mlp_a: rebuild(&snapshot.mlp_a)?,
                mlp_x: rebuild(&snapshot.mlp_x)?,
                mlp_h: rebuild(&snapshot.mlp_h)?,
                delta: snapshot.delta,
            },
            alpha_fixed: snapshot.alpha,
            alpha_raw: snapshot.alpha_raw.map(|raw| DenseMatrix::filled(1, 1, raw)),
            alpha_grad: DenseMatrix::zeros(1, 1),
            aggregator: snapshot.aggregator,
            cache: None,
            agg_time: Duration::ZERO,
        })
    }

    /// The constant aggregation operator, borrowed from `ctx` (`None`
    /// without aggregation).
    fn operator<'a>(&self, ctx: &'a GraphContext) -> Result<Option<&'a CsrMatrix>> {
        match self.aggregator {
            AggregatorKind::SimRank => Ok(Some(ctx.require_simrank("SIGMA")?)),
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
        match self.aggregator {
            AggregatorKind::SimRank => "SIGMA",
            AggregatorKind::None => "LINKX",
        }
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        // Eq. (4): decoupled embeddings of topology and attributes.
        let embedded = self.net.embed(ctx, training, rng)?;
        let h = self.net.mlp_h.forward(&embedded, training, rng)?;
        let Some(op) = self.operator(ctx)? else {
            // Without aggregation Z = H: no Eq. (6) mix, which at α ≠ 0.5
            // would not be bitwise H.
            return Ok(h);
        };
        // Eq. (5): one-shot global aggregation with the constant operator.
        let z_hat = timed_spmm(op, &h, &mut self.agg_time)?;
        // Eq. (6): balance global aggregation against the raw embedding.
        let alpha = self.alpha() as f32;
        let z = z_hat.linear_combination(1.0 - alpha, alpha, &h)?;
        self.cache = Some(Cache { h, z_hat });
        Ok(z)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let d_embedded = match self.operator(ctx)? {
            // Z = H.
            None => self.net.mlp_h.backward(grad_logits)?,
            Some(s) => {
                let missing = sigma_nn::NnError::MissingForwardCache {
                    layer: "SigmaModel",
                };
                let Cache { h, z_hat } = self.cache.take().ok_or(missing)?;
                let alpha = self.alpha() as f32;
                // Learnable α: dL/dα = Σ (H − Ẑ) ⊙ dZ, then through the sigmoid.
                if self.alpha_raw.is_some() {
                    let mut diff = h;
                    diff.sub_assign(&z_hat)?;
                    diff.hadamard_assign(grad_logits)?;
                    let d_alpha = diff.sum();
                    let sig_grad = alpha * (1.0 - alpha);
                    self.alpha_grad
                        .set(0, 0, self.alpha_grad.get(0, 0) + d_alpha * sig_grad);
                }
                // Z = (1−α)·Ẑ + α·H, Ẑ = S·H  ⇒  dH = α·dZ + Sᵀ·(1−α)·dZ.
                let mut d_h = grad_logits.map(|v| v * alpha);
                let d_zhat = grad_logits.map(|v| v * (1.0 - alpha));
                d_h.add_assign(&timed_spmm_transpose(s, &d_zhat, &mut self.agg_time)?)?;
                self.net.mlp_h.backward(&d_h)?
            }
        };
        self.net.backward_embed(d_embedded)
    }

    fn zero_grad(&mut self) {
        self.net.zero_grad();
        self.alpha_grad.fill_zero();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        let key = self.net.apply_gradients(optimizer)?;
        if let Some(raw) = &mut self.alpha_raw {
            optimizer.update(key, raw, &self.alpha_grad)?;
        }
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.net.num_parameters() + usize::from(self.alpha_raw.is_some())
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
        for aggregator in [AggregatorKind::SimRank, AggregatorKind::None] {
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
    fn sigma_and_linkx_fit_their_training_split() {
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

        let mut rng = StdRng::seed_from_u64(1);
        let mut linkx =
            SigmaModel::with_aggregator(&ctx, &hyper, AggregatorKind::None, &mut rng).unwrap();
        let (initial, final_acc) = train_briefly(&mut linkx, &ctx, &split, 80);
        assert!(
            final_acc > initial + 0.1 || final_acc > 0.85,
            "LINKX failed to learn: {initial} -> {final_acc}"
        );
        assert_eq!(linkx.take_aggregation_time(), Duration::ZERO);
    }

    #[test]
    fn delta_extremes_isolate_branches() {
        // δ = 1 uses only features; δ = 0 uses only the adjacency embedding.
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(2);
        let mut build = |delta| {
            let hyper = ModelHyperParams::small().with_delta(delta);
            SigmaModel::with_aggregator(&ctx, &hyper, AggregatorKind::None, &mut rng).unwrap()
        };
        let (mut only_x, mut only_a) = (build(1.0), build(0.0));
        let lx = only_x.forward(&ctx, false, &mut rng).unwrap();
        let la = only_a.forward(&ctx, false, &mut rng).unwrap();
        assert!(lx.is_finite() && la.is_finite());
        assert_ne!(lx, la);
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
    fn a_snapshot_without_aggregation_carries_no_operator() {
        let ctx = small_context();
        let hyper = ModelHyperParams::small().with_learnable_alpha(true);
        let mut rng = StdRng::seed_from_u64(31);
        let model =
            SigmaModel::with_aggregator(&ctx, &hyper, AggregatorKind::None, &mut rng).unwrap();
        assert_eq!(model.name(), "LINKX");
        // No α parameter without aggregation, even when asked to learn one.
        assert_eq!(model.num_parameters(), model.net.num_parameters());
        let snapshot = model.snapshot(&ctx).unwrap();
        assert!(snapshot.operator.is_none() && snapshot.alpha_raw.is_none());

        // An operator beside `None` would be served aggregated but restored
        // unaggregated: the record is inconsistent either way round.
        let mut with_operator = snapshot;
        with_operator.operator = Some(ctx.simrank().unwrap().clone());
        assert!(with_operator.validate().is_err());
        assert!(SigmaModel::restore(&with_operator).is_err());
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
