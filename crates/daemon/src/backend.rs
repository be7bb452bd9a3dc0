//! The daemon's model-agnostic serving backend.
//!
//! The wire surface is designed for any model family that reduces to
//! SIGMA's precompute-then-row-slice pattern (GloGNN-style global
//! aggregation collapses to the same `Z = row_slice(S)·H` serve step), so
//! handlers talk to a [`Backend`] rather than a concrete engine. Today two
//! backends exist: a single [`InferenceEngine`] and an in-process
//! [`ShardRouter`] — one serving state either way (a router adds a cache
//! and counters per row range), checked bitwise-equal to each other by the
//! shard differential oracle, which is what lets the daemon treat them
//! interchangeably.

use sigma_serve::{
    EngineStats, InferenceEngine, MappedSnapshot, Prediction, Result, ShardRouter, SimilarNode,
};
use sigma_simrank::{DynamicSimRank, EdgeUpdate};
use std::sync::Arc;

/// What one `POST /v1/repair` round did, backend-agnostic.
#[derive(Debug, Clone, Default)]
pub struct RepairSummary {
    /// Whether the round degenerated to a whole-operator install.
    pub full_refresh: bool,
    /// Operator rows patched (globally, across shards).
    pub operator_rows: usize,
    /// Embedding rows re-encoded (each counted once, on its owner shard).
    pub embedding_rows: usize,
    /// `(shards touched, shards skipped)` — `None` for a single engine.
    pub fanout: Option<(usize, usize)>,
}

/// A serving backend the daemon can front.
pub enum Backend {
    /// One inference engine.
    Engine(Arc<InferenceEngine>),
    /// An in-process shard-router fleet.
    Router(Arc<ShardRouter>),
}

impl Backend {
    /// Number of nodes served (valid query ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        match self {
            Backend::Engine(e) => e.num_nodes(),
            Backend::Router(r) => r.num_nodes(),
        }
    }

    /// Number of classes per prediction.
    pub fn num_classes(&self) -> usize {
        match self {
            Backend::Engine(e) => e.num_classes(),
            Backend::Router(r) => r.num_classes(),
        }
    }

    /// Serves one node.
    pub fn predict(&self, node: usize) -> Result<Prediction> {
        match self {
            Backend::Engine(e) => e.predict(node),
            Backend::Router(r) => r.predict(node),
        }
    }

    /// Serves a batch in request order.
    pub fn predict_batch(&self, nodes: &[usize]) -> Result<Vec<Prediction>> {
        match self {
            Backend::Engine(e) => e.predict_batch(nodes),
            Backend::Router(r) => r.predict_batch(nodes),
        }
    }

    /// Top-`k` most similar nodes, ranked off the operator row (routed to
    /// the row-owner shard on a router backend).
    pub fn most_similar(&self, node: usize, k: usize) -> Result<Vec<SimilarNode>> {
        match self {
            Backend::Engine(e) => e.most_similar(node, k),
            Backend::Router(r) => r.most_similar(node, k),
        }
    }

    /// Serves a batch of `(node, k)` similarity queries in request order.
    pub fn most_similar_batch(&self, queries: &[(usize, usize)]) -> Result<Vec<Vec<SimilarNode>>> {
        match self {
            Backend::Engine(e) => e.most_similar_batch(queries),
            Backend::Router(r) => r.most_similar_batch(queries),
        }
    }

    /// Applies edge updates to the staleness tracker; returns cached rows
    /// invalidated.
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> Result<usize> {
        match self {
            Backend::Engine(e) => e.apply_edge_updates(updates),
            Backend::Router(r) => r.apply_edge_updates(updates),
        }
    }

    /// Drives one incremental repair round from `maintainer`.
    pub fn repair_from(&self, maintainer: &mut DynamicSimRank) -> Result<RepairSummary> {
        match self {
            Backend::Engine(e) => {
                let repair = e.repair_from(maintainer)?;
                Ok(RepairSummary {
                    full_refresh: repair.full_refresh,
                    operator_rows: repair.operator_rows.len(),
                    embedding_rows: repair.embedding_rows.len(),
                    fanout: None,
                })
            }
            Backend::Router(r) => {
                let repair = r.repair_from(maintainer)?;
                Ok(RepairSummary {
                    full_refresh: repair.full_refresh,
                    operator_rows: repair.operator_rows.len(),
                    embedding_rows: repair
                        .shard_repairs
                        .iter()
                        .flatten()
                        .map(|s| s.embedding_rows.len())
                        .sum(),
                    fanout: Some((repair.fanout, repair.skipped)),
                })
            }
        }
    }

    /// Hot-reloads a mapped snapshot zero-copy: one state swap either way
    /// (a router clears every lane's cache and keeps its plan).
    pub fn hot_reload_mapped(&self, snapshot: Arc<MappedSnapshot>) -> Result<()> {
        match self {
            Backend::Engine(e) => e.hot_reload_mapped(snapshot),
            Backend::Router(r) => r.hot_reload_mapped(snapshot),
        }
    }

    /// The backend's engine counters (summed across shards for a router).
    pub fn engine_stats(&self) -> EngineStats {
        match self {
            Backend::Engine(e) => e.stats(),
            Backend::Router(r) => r.stats().engines,
        }
    }
}
