//! # sigma
//!
//! A from-scratch Rust reproduction of **SIGMA: An Efficient Heterophilous
//! Graph Neural Network with Fast Global Aggregation** (ICDE 2025).
//!
//! SIGMA addresses node classification on *heterophilous* graphs — graphs
//! where neighbours tend to carry different labels — by replacing local
//! message passing with a **global, one-time aggregation** over the SimRank
//! similarity matrix `S`:
//!
//! ```text
//! H_A = MLP_A(A)          H_X = MLP_X(X)
//! H   = MLP_H(δ·H_X + (1−δ)·H_A)              (Eq. 4)
//! Ẑ_u = Σ_v S(u, v) · H_v                     (Eq. 5, global aggregation)
//! Z_u = (1−α)·Ẑ_u + α·H_u                     (Eq. 6)
//! ```
//!
//! `S` is computed once, before training, with the LocalPush approximation
//! and top-k pruning (`sigma-simrank`), making the per-epoch aggregation cost
//! `O(k·n·f)` — linear in the node count — versus the `O(m·f)`-and-up
//! iterative schemes of prior heterophilous GNNs.
//!
//! ## What this crate contains
//!
//! * [`SigmaModel`] — the SIGMA architecture with every knob the paper
//!   ablates (feature factor `δ`, local/global balance `α`, learnable `α`,
//!   aggregation with the context's operator — `S`, or an `S·A` / PPR
//!   ablation operator — or none, which is LINKX),
//! * [`SigmaIterative`] — the iterative variant explored in Section V.F,
//! * Baselines: MLP, GAT, GCN, SGC, APPNP, GPR-GNN, ACM-GCN, MixHop, GCNII,
//!   H2GCN, LINKX (SIGMA without `S`), GloGNN (fixed mixing weights in
//!   place of the closed-form coefficients; see its module docs), PPRGo —
//!   all under [`ModelKind`],
//! * [`GraphContext`] — shared precomputation (normalized adjacencies,
//!   SimRank / PPR operators) with timing breakdowns,
//! * [`Trainer`] — full-batch training with Adam, early stopping, accuracy
//!   tracking and the precompute/aggregation/learning time split reported in
//!   the paper's Table VII,
//! * [`complexity`] — the analytic operation-count model behind Table III.
//!
//! ## Quickstart
//!
//! ```
//! use sigma::{ContextBuilder, ModelKind, ModelHyperParams, Trainer, TrainConfig};
//! use sigma_datasets::DatasetPreset;
//!
//! // A small heterophilous graph standing in for the paper's Texas dataset.
//! let data = DatasetPreset::Texas.build(1.0, 42).unwrap();
//! let split = data.default_split(42).unwrap();
//!
//! // Precompute the constant operators (including top-k SimRank).
//! let ctx = ContextBuilder::new(data).with_simrank_topk(16).build().unwrap();
//!
//! // Train SIGMA for a few epochs.
//! let mut model = ModelKind::Sigma.build(&ctx, &ModelHyperParams::small(), 42).unwrap();
//! let report = Trainer::new(TrainConfig { epochs: 30, ..TrainConfig::default() })
//!     .train(model.as_mut(), &ctx, &split, 42)
//!     .unwrap();
//! assert!(report.test_accuracy > 0.2);
//! ```

#![deny(missing_docs)]

mod context;
mod error;
mod model;
pub mod models;
pub mod snapshot;
mod trainer;

pub mod complexity;

pub use context::{ContextBuilder, GraphContext, PrecomputeTimings};
pub use error::SigmaError;
pub use model::{Model, ModelHyperParams, ModelKind};
pub use models::sigma_iterative::SigmaIterative;
pub use models::sigma_model::{AggregatorKind, SigmaModel};
pub use snapshot::{MlpWeights, ModelSnapshot};
pub use trainer::{EpochRecord, TrainConfig, TrainReport, Trainer};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SigmaError>;

// Re-export the substrate crates so downstream users need only one dependency.
pub use sigma_datasets as datasets;
pub use sigma_graph as graph;
pub use sigma_matrix as matrix;
pub use sigma_nn as nn;
pub use sigma_simrank as simrank;
