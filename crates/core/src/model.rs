//! The [`Model`] trait, shared hyper-parameters, and the [`ModelKind`]
//! factory used by the trainer, examples and benchmark harness.

use crate::models;
use crate::{AggregatorKind, GraphContext, Result, SigmaError, SigmaModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma_matrix::DenseMatrix;
use sigma_nn::Optimizer;
use std::time::Duration;

/// A trainable full-batch node-classification model.
///
/// All models in the reproduction are MLPs composed with *constant* sparse
/// propagation operators, so the interface is a plain forward/backward pair:
/// a training `forward` produces `n × C` logits and caches activations,
/// `backward` consumes the loss gradient w.r.t. those logits and accumulates
/// parameter gradients — and nothing else: the inputs `X`, `A` and every
/// operator are constants, so no gradient with respect to them is computed —
/// and `apply_gradients` performs the optimizer step.
pub trait Model {
    /// Short, stable model name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Computes `n × C` logits. With `training = true`, dropout is active and
    /// activations are cached for [`Model::backward`]. With
    /// `training = false` this is an evaluation pass: no dropout, no RNG
    /// draws, and nothing has to be cached — **no `backward` may follow
    /// it**. Every [`sigma_nn::Mlp`] inside a model enforces that with
    /// [`sigma_nn::NnError::MissingForwardCache`]; a gradient check with
    /// dropout off is `training = true` at dropout `0.0`.
    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix>;

    /// Backpropagates the loss gradient w.r.t. the logits, accumulating
    /// parameter gradients.
    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()>;

    /// Clears accumulated gradients.
    fn zero_grad(&mut self);

    /// Applies accumulated gradients with `optimizer`.
    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()>;

    /// Total trainable parameter count.
    fn num_parameters(&self) -> usize;

    /// Returns and resets the wall-clock time spent in aggregation
    /// (propagation-operator SpMMs) since the last call. Models without an
    /// explicit aggregation step report zero; the trainer sums this into the
    /// Table VII "AGG" column.
    fn take_aggregation_time(&mut self) -> Duration {
        Duration::ZERO
    }
}

/// Hyper-parameters shared by every model architecture.
///
/// Learning rate and weight decay live in [`crate::TrainConfig`]; this struct
/// holds the architectural knobs the paper sweeps (Table VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelHyperParams {
    /// Hidden width of every MLP.
    pub hidden: usize,
    /// Number of MLP layers (`MLP_H` in SIGMA; backbone depth elsewhere).
    pub num_layers: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Local/global balance `α` (SIGMA Eq. 6; also the restart probability of
    /// APPNP/GPR-style propagation).
    pub alpha: f64,
    /// Feature factor `δ` (SIGMA/LINKX Eq. 4).
    pub delta: f64,
    /// Number of propagation hops `K` (APPNP, GPR-GNN, SGC, GloGNN `k₂`).
    pub hops: usize,
    /// Whether SIGMA learns `α` instead of keeping it fixed (Table X).
    pub learnable_alpha: bool,
}

impl Default for ModelHyperParams {
    fn default() -> Self {
        Self {
            hidden: 64,
            num_layers: 2,
            dropout: 0.5,
            alpha: 0.5,
            delta: 0.5,
            hops: 3,
            learnable_alpha: false,
        }
    }
}

impl ModelHyperParams {
    /// A small configuration suited to the reduced reproduction datasets and
    /// doctests (hidden = 32, 1-layer `MLP_H`, light dropout).
    pub fn small() -> Self {
        Self {
            hidden: 32,
            num_layers: 1,
            dropout: 0.2,
            ..Self::default()
        }
    }

    /// Validates ranges, returning a descriptive error.
    pub fn validate(&self) -> Result<()> {
        if self.hidden == 0 {
            return Err(SigmaError::InvalidHyperParameter {
                name: "hidden",
                reason: "hidden width must be positive".to_string(),
            });
        }
        if self.num_layers == 0 {
            return Err(SigmaError::InvalidHyperParameter {
                name: "num_layers",
                reason: "need at least one layer".to_string(),
            });
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(SigmaError::InvalidHyperParameter {
                name: "dropout",
                reason: format!("dropout must be in [0, 1), got {}", self.dropout),
            });
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(SigmaError::InvalidHyperParameter {
                name: "alpha",
                reason: format!("alpha must be in [0, 1], got {}", self.alpha),
            });
        }
        if !(0.0..=1.0).contains(&self.delta) {
            return Err(SigmaError::InvalidHyperParameter {
                name: "delta",
                reason: format!("delta must be in [0, 1], got {}", self.delta),
            });
        }
        if self.hops == 0 {
            return Err(SigmaError::InvalidHyperParameter {
                name: "hops",
                reason: "need at least one propagation hop".to_string(),
            });
        }
        Ok(())
    }

    /// Builder-style setter for `alpha`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style setter for `delta`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style setter for `hidden`.
    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Builder-style setter for `dropout`.
    pub fn with_dropout(mut self, dropout: f32) -> Self {
        self.dropout = dropout;
        self
    }

    /// Builder-style setter for `learnable_alpha`.
    pub fn with_learnable_alpha(mut self, learnable: bool) -> Self {
        self.learnable_alpha = learnable;
        self
    }
}

/// Every model architecture in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// SIGMA (the paper's contribution).
    Sigma,
    /// SIGMA with the iterative propagation of Section V.F, with the given depth.
    SigmaIterative(usize),
    /// Feature-only multi-layer perceptron.
    Mlp,
    /// Graph Convolutional Network (Kipf & Welling) with the given depth.
    Gcn(usize),
    /// Simplified Graph Convolution (`Â^K X` then linear).
    Sgc,
    /// APPNP: predict-then-propagate with personalized-PageRank smoothing.
    Appnp,
    /// GPR-GNN: generalized PageRank with learnable hop weights.
    GprGnn,
    /// MixHop: concatenated 0/1/2-hop propagation.
    MixHop,
    /// GCNII: deep GCN with initial residual and identity mapping.
    Gcnii,
    /// H2GCN-style ego/1-hop/2-hop separation (simplified).
    H2Gcn,
    /// LINKX: decoupled MLP(A) + MLP(X) embedding, no propagation — SIGMA
    /// without `S` ([`crate::AggregatorKind::None`]), reported as "LINKX".
    Linkx,
    /// GloGNN (simplified): the same embedding with an iterative multi-hop
    /// aggregation recomputed every epoch.
    GloGnn,
    /// PPRGo: precomputed top-k PPR aggregation over MLP(X).
    PprGo,
    /// GAT: single-head graph attention (learned local aggregation).
    Gat,
    /// ACM-GCN (simplified): adaptive low-pass / high-pass / identity
    /// channel mixing.
    AcmGcn,
}

impl ModelKind {
    /// Every model kind evaluated in the Table V bench, in display order.
    pub const TABLE_V: [ModelKind; 14] = [
        ModelKind::Mlp,
        ModelKind::Gat,
        ModelKind::Gcn(2),
        ModelKind::Sgc,
        ModelKind::Appnp,
        ModelKind::GprGnn,
        ModelKind::AcmGcn,
        ModelKind::MixHop,
        ModelKind::Gcnii,
        ModelKind::H2Gcn,
        ModelKind::Linkx,
        ModelKind::GloGnn,
        ModelKind::PprGo,
        ModelKind::Sigma,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Sigma => "SIGMA",
            ModelKind::SigmaIterative(_) => "SIGMA-iter",
            ModelKind::Mlp => "MLP",
            ModelKind::Gcn(_) => "GCN",
            ModelKind::Sgc => "SGC",
            ModelKind::Appnp => "APPNP",
            ModelKind::GprGnn => "GPRGNN",
            ModelKind::MixHop => "MixHop",
            ModelKind::Gcnii => "GCNII",
            ModelKind::H2Gcn => "H2GCN",
            ModelKind::Linkx => "LINKX",
            ModelKind::GloGnn => "GloGNN",
            ModelKind::PprGo => "PPRGo",
            ModelKind::Gat => "GAT",
            ModelKind::AcmGcn => "ACMGCN",
        }
    }

    /// Whether this kind requires the SimRank operator in the context.
    pub fn needs_simrank(&self) -> bool {
        matches!(self, ModelKind::Sigma | ModelKind::SigmaIterative(_))
    }

    /// Whether this kind requires the PPR operator in the context.
    pub fn needs_ppr(&self) -> bool {
        matches!(self, ModelKind::PprGo)
    }

    /// Whether this kind requires the 2-hop operator in the context.
    pub fn needs_two_hop(&self) -> bool {
        matches!(self, ModelKind::MixHop | ModelKind::H2Gcn)
    }

    /// Builds the model with weights initialised from `seed`.
    pub fn build(
        &self,
        ctx: &GraphContext,
        hyper: &ModelHyperParams,
        seed: u64,
    ) -> Result<Box<dyn Model>> {
        hyper.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let model: Box<dyn Model> = match *self {
            ModelKind::Sigma => Box::new(SigmaModel::new(ctx, hyper, &mut rng)?),
            ModelKind::SigmaIterative(layers) => Box::new(
                models::sigma_iterative::SigmaIterative::new(ctx, hyper, layers.max(1), &mut rng)?,
            ),
            ModelKind::Mlp => Box::new(models::mlp::MlpModel::new(ctx, hyper, &mut rng)),
            ModelKind::Gcn(layers) => {
                Box::new(models::gcn::Gcn::new(ctx, hyper, layers.max(1), &mut rng))
            }
            ModelKind::Sgc => Box::new(models::sgc::Sgc::new(ctx, hyper, &mut rng)),
            ModelKind::Appnp => Box::new(models::appnp::Appnp::new(ctx, hyper, &mut rng)),
            ModelKind::GprGnn => Box::new(models::gprgnn::GprGnn::new(ctx, hyper, &mut rng)),
            ModelKind::MixHop => Box::new(models::mixhop::MixHop::new(ctx, hyper, &mut rng)?),
            ModelKind::Gcnii => Box::new(models::gcnii::Gcnii::new(ctx, hyper, &mut rng)),
            ModelKind::H2Gcn => Box::new(models::h2gcn::H2Gcn::new(ctx, hyper, &mut rng)?),
            ModelKind::Linkx => Box::new(SigmaModel::with_aggregator(
                ctx,
                hyper,
                AggregatorKind::None,
                &mut rng,
            )?),
            ModelKind::GloGnn => Box::new(models::glognn::GloGnn::new(ctx, hyper, &mut rng)),
            ModelKind::PprGo => Box::new(models::pprgo::PprGo::new(ctx, hyper, &mut rng)?),
            ModelKind::Gat => Box::new(models::gat::Gat::new(ctx, hyper, &mut rng)),
            ModelKind::AcmGcn => Box::new(models::acmgcn::AcmGcn::new(ctx, hyper, &mut rng)),
        };
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyper_param_validation() {
        assert!(ModelHyperParams::default().validate().is_ok());
        assert!(ModelHyperParams::small().validate().is_ok());
        assert!(ModelHyperParams {
            hidden: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ModelHyperParams {
            num_layers: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ModelHyperParams {
            dropout: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ModelHyperParams::default()
            .with_alpha(1.3)
            .validate()
            .is_err());
        assert!(ModelHyperParams::default()
            .with_delta(-0.2)
            .validate()
            .is_err());
        assert!(ModelHyperParams {
            hops: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builder_setters() {
        let hp = ModelHyperParams::default()
            .with_alpha(0.3)
            .with_delta(0.7)
            .with_hidden(16)
            .with_dropout(0.1)
            .with_learnable_alpha(true);
        assert_eq!(hp.alpha, 0.3);
        assert_eq!(hp.delta, 0.7);
        assert_eq!(hp.hidden, 16);
        assert_eq!(hp.dropout, 0.1);
        assert!(hp.learnable_alpha);
    }

    #[test]
    fn kind_names_and_requirements() {
        assert_eq!(ModelKind::Sigma.name(), "SIGMA");
        assert_eq!(ModelKind::Gcn(2).name(), "GCN");
        assert!(ModelKind::Sigma.needs_simrank());
        assert!(!ModelKind::Linkx.needs_simrank());
        assert!(ModelKind::PprGo.needs_ppr());
        assert!(ModelKind::MixHop.needs_two_hop());
        assert!(ModelKind::H2Gcn.needs_two_hop());
        assert!(!ModelKind::Gat.needs_simrank());
        assert_eq!(ModelKind::AcmGcn.name(), "ACMGCN");
        assert_eq!(ModelKind::TABLE_V.len(), 14);
    }
}
