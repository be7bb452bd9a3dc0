//! # sigma-serve
//!
//! The online half of the SIGMA reproduction: load a trained model snapshot
//! and answer node-classification queries without a full-graph forward pass.
//!
//! SIGMA's systems property (paper Sec. III-B) is that its aggregation
//! operator `S` is a *constant, precomputed* top-k matrix. At serve time the
//! model therefore collapses to three artifacts — the encoder weights, `S`,
//! and the scalar `α` — and a query for `b` nodes needs only
//!
//! 1. the precomputed full-graph embedding `H` (built once at engine start),
//! 2. the `b` rows of `S`, applied with the `O(b·k·f)` row-sliced kernel
//!    [`sigma_matrix::CsrMatrix::spmm_rows`],
//! 3. the Eq. 6 blend `Z = (1−α)·S·H + α·H` on those rows.
//!
//! The crate provides:
//!
//! * [`ServeSnapshot`] — a versioned, self-contained binary artifact
//!   (weights + operator + serving inputs) with typed load-time validation,
//! * [`InferenceEngine`] — single and batched queries planned through a
//!   bounded LRU cache of aggregated rows, fanned out across the shared
//!   [`sigma_parallel::ThreadPool`] (no engine-private threads),
//! * a staleness hook consuming [`sigma_simrank::EdgeUpdate`] streams and
//!   [`sigma_simrank::DynamicSimRank`] refreshes, so an evolving graph
//!   invalidates exactly the affected cached rows,
//! * [`ShardRouter`] — the engine's one serving state behind N row
//!   ranges cut by operator nnz mass, each with its own row cache and
//!   counters: scatter/gather queries, maintenance computed once and
//!   attributed by range, bitwise-equal to one engine.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use sigma::{ContextBuilder, ModelHyperParams, SigmaModel};
//! use sigma_serve::{EngineConfig, InferenceEngine, ServeSnapshot};
//!
//! // A trained (here: freshly initialised) SIGMA model over a small graph.
//! let data = sigma_datasets::DatasetPreset::Texas.build(0.5, 3).unwrap();
//! let features = data.features.clone();
//! let adjacency = data.graph.to_adjacency();
//! let ctx = ContextBuilder::new(data).with_simrank_topk(8).build().unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let model = SigmaModel::new(&ctx, &ModelHyperParams::small(), &mut rng).unwrap();
//!
//! // Snapshot → engine → query.
//! let snapshot = ServeSnapshot::new(
//!     "texas-demo",
//!     model.snapshot(&ctx).unwrap(),
//!     features,
//!     adjacency,
//! )
//! .unwrap();
//! let engine = InferenceEngine::new(&snapshot, EngineConfig::default()).unwrap();
//! let prediction = engine.predict(0).unwrap();
//! assert!(prediction.label < engine.num_classes());
//! ```

#![deny(missing_docs)]

mod cache;
mod codec;
mod engine;
mod error;
mod format;
mod forward;
mod mmap;
mod shard;
mod snapshot;
mod store;

pub use cache::LruCache;
pub use engine::{
    EngineConfig, EngineRepair, EngineStats, InferenceEngine, Prediction, SimilarNode,
};
pub use error::{ServeError, SnapshotError};
pub use forward::{compute_embeddings, compute_embeddings_rows, mlp_infer_dense, mlp_infer_sparse};
pub use mmap::MappedSnapshot;
pub use shard::{RouterRepair, RouterStats, ShardPlan, ShardRouter, ShardRouterConfig};
pub use snapshot::{ServeSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
