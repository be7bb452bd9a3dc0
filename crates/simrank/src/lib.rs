//! # sigma-simrank
//!
//! SimRank and Personalized PageRank engines for the SIGMA reproduction.
//!
//! SIGMA's aggregation operator is a *constant, precomputed* SimRank matrix.
//! This crate provides every way the paper computes or reasons about it:
//!
//! * [`exact_simrank`] — the fixed-point iteration of Eq. (2), used for the
//!   small datasets and as ground truth in tests,
//! * [`LocalPush`] — the residual-push approximation of Algorithm 1 with the
//!   `O(d²/(c(1−c)²ε))` bound of Lemma III.5, plus top-k pruning into the
//!   sparse aggregation operator used during training,
//! * [`DynamicSimRank`] — that same operator kept in step with graph edits
//!   by replaying the push rounds over only the rows an edit reaches,
//! * [`pairwise_walk_simrank`] — a Monte-Carlo estimator built directly on
//!   the pairwise-random-walk decomposition of Theorem III.2 (used to verify
//!   the theorem empirically),
//! * [`ppr`] — Personalized PageRank via power iteration and forward push,
//!   the substrate for the PPRGo baseline and the Fig. 1(b) comparison.
//!
//! ## Example
//!
//! ```
//! use sigma_graph::Graph;
//! use sigma_simrank::{exact_simrank, LocalPush, SimRankConfig};
//!
//! // Two staff pages connected through shared student pages (paper Fig. 1a).
//! let g = Graph::from_edges(4, &[(0, 2), (1, 2), (0, 3), (1, 3)]).unwrap();
//! let cfg = SimRankConfig::default();
//! let exact = exact_simrank(&g, &cfg).unwrap();
//! // The two "staff" nodes 0 and 1 are structurally similar.
//! assert!(exact.get(0, 1) > 0.3);
//!
//! let approx = LocalPush::new(&g, cfg).unwrap().run();
//! assert!((approx.get(0, 1) - exact.get(0, 1)).abs() < cfg.epsilon as f32);
//! ```

#![deny(missing_docs)]

mod config;
mod dynamic;
mod error;
mod exact;
mod incremental;
mod localpush;
mod pairwise;
pub mod ppr;

pub use config::SimRankConfig;
pub use dynamic::{DynamicSimRank, EdgeUpdate, RepairOutcome, ScoreRepair};
pub use error::SimRankError;
pub use exact::{exact_simrank, exact_simrank_iterations};
pub use localpush::{LocalPush, SparseScores};
pub use pairwise::pairwise_walk_simrank;
pub use ppr::{forward_push_ppr, power_iteration_ppr, topk_ppr_matrix, PprConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimRankError>;
