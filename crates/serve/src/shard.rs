//! In-process operator sharding: N engines behind one façade.
//!
//! SIGMA's global aggregation is a *row*-sliced read over the constant
//! operator `S` (`Ẑ_u` needs only row `u` of `S`, plus arbitrary rows of
//! the small `n × C` embedding `H`), so the operator shards naturally
//! along row ranges. [`ShardPlan`] cuts `0..n` into contiguous ranges of
//! near-equal operator nnz mass with
//! [`sigma_parallel::partition_by_weight`]; [`ShardRouter`] runs one
//! [`InferenceEngine`] per range — each serving the full-shape operator
//! with every out-of-range row empty, so shard-local caches, repairs and
//! invalidation reuse the single-engine machinery unchanged — and:
//!
//! * **scatter/gathers** [`ShardRouter::predict`] /
//!   [`ShardRouter::predict_batch`] by row ownership, re-assembling
//!   results in canonical request order (bitwise identical to one engine:
//!   each row is computed from the same operator row and the same `H`,
//!   and request order never affects a row's value);
//! * fans [`ShardRouter::apply_edge_updates`] / [`ShardRouter::repair_from`]
//!   **only to shards whose rows the edit footprint can touch** — a shard
//!   is skipped when the changed/affected node set misses its range *and*
//!   none of its operator rows reference an affected node *and* it holds
//!   no stale in-range nodes (the skip-soundness conditions; see
//!   `repair_from`);
//! * aggregates per-shard [`EngineStats`] into [`RouterStats`] and
//!   registers router-level `sigma_shard_*` metrics (query/repair fan-out,
//!   skipped-shard counts) next to the engines' `sigma_serve_*` families.
//!
//! `H` is replicated per shard rather than sliced: global aggregation
//! reads arbitrary `H` rows (`Ẑ_u = Σ_v S_uv · H_v`), and at `n × C`
//! (classes, not hidden width) it is the small artifact by design.
//!
//! The determinism contract is proven, not assumed:
//! `sigma_testutil::replay_differential_sharded` replays seeded edit
//! traces against a 1-engine reference and an N-shard router
//! simultaneously, asserting per-batch bitwise equality of logits,
//! labels, operator rows, and per-shard hit/eviction accounting.

use crate::engine::{
    EngineConfig, EngineRepair, EngineStats, InferenceEngine, OperatorPatch, Prediction,
    SimilarNode,
};
use crate::mmap::MappedSnapshot;
use crate::snapshot::ServeSnapshot;
use crate::{Result, ServeError};
use sigma_matrix::{CsrMatrix, CsrViewAny};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, RepairOutcome};
use std::ops::Range;
use std::sync::Arc;

/// Tuning knobs of a [`ShardRouter`].
#[derive(Debug, Clone, Copy)]
pub struct ShardRouterConfig {
    /// Number of shards to cut the operator into. Must be non-zero; may
    /// exceed the node count (the surplus shards own empty ranges and
    /// never receive traffic).
    pub shards: usize,
    /// Per-shard engine configuration (cache capacity is *per shard*).
    pub engine: EngineConfig,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            engine: EngineConfig::default(),
        }
    }
}

/// How `0..n` is cut into per-shard row ranges.
///
/// Ranges are contiguous, in ascending order, cover every row exactly
/// once, and are padded with empty `n..n` tails up to the requested shard
/// count when the planner cannot use every shard (more shards than rows,
/// or one row holding all the mass) — so a router always constructs
/// exactly the configured number of engines, some possibly empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<Range<usize>>,
    num_nodes: usize,
}

impl ShardPlan {
    /// Plans `shards` ranges over rows weighted by `weights` (operator nnz
    /// mass in the router; all-zero weights degrade to the equal-count
    /// split). Fails with [`ServeError::ShardConfig`] when `shards == 0`.
    pub fn from_weights(weights: &[usize], shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(ServeError::ShardConfig {
                shards,
                reason: "a router needs at least one shard".into(),
            });
        }
        let num_nodes = weights.len();
        let mut ranges = sigma_parallel::partition_by_weight(weights, shards);
        // The planner returns at most `shards` non-empty ranges; pad with
        // empty tails so every configured shard exists (and provably
        // receives no traffic).
        while ranges.len() < shards {
            ranges.push(num_nodes..num_nodes);
        }
        Ok(Self { ranges, num_nodes })
    }

    /// Number of shards (including empty tail shards).
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Number of rows the plan covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The per-shard row ranges, in shard order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// The shard owning `node`'s operator row. `node` must be in range.
    pub fn shard_of(&self, node: usize) -> usize {
        debug_assert!(node < self.num_nodes, "node {node} outside the plan");
        // Ranges are contiguous and ascending, so the owner is the first
        // range ending past the node; empty ranges (end == start) can
        // never win the search.
        self.ranges.partition_point(|r| r.end <= node)
    }
}

/// What one [`ShardRouter::repair_from`] round did across the fleet.
#[derive(Debug, Clone)]
pub struct RouterRepair {
    /// Whether the round degenerated to a whole-operator install on every
    /// shard (first sync with a maintainer that had no prior state).
    pub full_refresh: bool,
    /// Operator rows the maintainer reported changed, globally (sorted) —
    /// identical to what a single engine's `EngineRepair::operator_rows`
    /// would list for the same round.
    pub operator_rows: Vec<usize>,
    /// Per-shard repair reports, in shard order: `None` for shards the
    /// round provably did not need to touch.
    pub shard_repairs: Vec<Option<EngineRepair>>,
    /// Shards that received repair traffic this round.
    pub fanout: usize,
    /// Shards skipped this round (`fanout + skipped == num_shards`).
    pub skipped: usize,
}

sigma_obs::metric_set! {
    /// Router-level counters and the fan-out histogram, exported as
    /// `sigma_shard_*` (several routers in one process merge by summation).
    struct RouterMetrics;
    /// Aggregated router counters, read with [`ShardRouter::stats`].
    ///
    /// The `engines` field sums the per-shard [`EngineStats`] field-wise;
    /// the same tearing semantics apply (each field individually monotone,
    /// no cross-field consistency while traffic is in flight). Cache
    /// hit/miss and eviction sums match a single engine's counters exactly
    /// when every shard cache is as large as its range (the differential
    /// oracle asserts this); `embedding_rows_repaired` sums *per-shard*
    /// re-encodes and therefore over-counts a single engine's by up to the
    /// repair fan-out, and `repair_dirty_seeds` is tracked at router level
    /// instead (the maintainer runs once per round, not once per shard).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RouterStats {
        /// Field-wise sum of the per-shard engine counters.
        engines: EngineStats,
        /// Each shard's own counters, in shard order.
        per_shard: Vec<EngineStats>,
    }
    counters {
        /// `predict`/`predict_batch` calls routed.
        batches_routed: "sigma_shard_batches_routed_total",
            "predict/predict_batch calls routed across shards";
        /// Nodes routed across all batches.
        queries_routed: "sigma_shard_queries_routed_total", "nodes routed across all batches";
        /// Per-shard sub-batches dispatched (≥ `batches_routed`; the
        /// per-batch query fan-out is also recorded in the
        /// `sigma_shard_query_fanout` histogram when `obs` is enabled).
        shard_batches_dispatched: "sigma_shard_subbatches_total",
            "per-shard sub-batches dispatched by the router";
        /// Shards that received repair traffic across all `repair_from`
        /// rounds.
        repair_fanout: "sigma_shard_repair_fanout_total", "shards that received repair traffic";
        /// Shards skipped across all `repair_from` rounds.
        repair_skipped: "sigma_shard_repair_skipped_total",
            "shards skipped by footprint-sparse repair fan-out";
        /// Dirty seed pairs re-pushed by the maintainer across all rounds
        /// (router-level: the maintainer repairs once per round).
        repair_dirty_seeds: "sigma_shard_repair_dirty_seeds_total",
            "dirty seed pairs re-pushed by the router's maintainer rounds";
        /// Shards that received edge-update invalidation traffic.
        edge_update_fanout: "sigma_shard_edge_update_fanout_total",
            "shards that received edge-update invalidation traffic";
        /// Shards skipped by edge-update fan-out.
        edge_update_skipped: "sigma_shard_edge_update_skipped_total",
            "shards skipped by edge-update fan-out";
        /// `most_similar`/`most_similar_batch` calls routed.
        similar_routed: "sigma_shard_similar_routed_total",
            "most_similar calls routed across shards";
        /// Per-shard similarity sub-batches dispatched (each query's
        /// operator row lives whole on its owner shard, so this counts
        /// owner-shard dispatches — never cross-shard merges).
        similar_subbatches_dispatched: "sigma_shard_similar_subbatches_total",
            "per-shard similarity sub-batches dispatched by the router";
    }
    gauges {}
    histograms {
        /// Shards touched per routed batch (prediction and similarity alike).
        query_fanout: "sigma_shard_query_fanout", "shards touched per routed batch";
    }
}

/// N [`InferenceEngine`]s behind the single-engine façade.
///
/// Construction cuts the operator by row ranges ([`ShardPlan`]) and gives
/// each shard the full-shape `n × n` operator with out-of-range rows
/// empty: every engine-local mechanism (row cache keyed by node id,
/// reverse-pattern invalidation, row-patch repair) works unchanged, and
/// queries for a node hit exactly the shard owning its row. The public
/// surface mirrors [`InferenceEngine`]; results are bitwise identical to
/// a single engine over the unsharded operator at any shard count, any
/// thread count.
///
/// Like the engine, queries may race maintenance freely, but maintenance
/// calls ([`ShardRouter::repair_from`], [`ShardRouter::apply_edge_updates`])
/// must not race each other — run them from a single maintenance thread.
pub struct ShardRouter {
    plan: ShardPlan,
    engines: Vec<InferenceEngine>,
    num_nodes: usize,
    num_classes: usize,
    has_operator: bool,
    metrics: RouterMetrics,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("num_nodes", &self.num_nodes)
            .field("num_classes", &self.num_classes)
            .field("shards", &self.plan.num_shards())
            .field("ranges", &self.plan.ranges())
            .finish()
    }
}

impl ShardRouter {
    /// Builds a router over a decoded snapshot: plans ranges by operator
    /// nnz mass, precomputes the embedding `H` once, and constructs one
    /// engine per range over the row-masked operator. A failing shard
    /// surfaces as [`ServeError::Shard`] naming its index.
    pub fn new(snapshot: &ServeSnapshot, config: &ShardRouterConfig) -> Result<Self> {
        let n = snapshot.num_nodes();
        let plan = plan_for(
            snapshot
                .model
                .operator
                .as_ref()
                .map(|m| CsrViewAny::Native(m.view())),
            n,
            config.shards,
        )?;
        // One encoder run shared by every shard: `H` depends on features,
        // adjacency and weights only, never on the operator mask.
        let mut base = snapshot.clone();
        base.precompute_embeddings()?;
        let mut engines = Vec::with_capacity(plan.num_shards());
        for (shard, range) in plan.ranges().iter().enumerate() {
            let mut shard_snapshot = base.clone();
            if let Some(operator) = &snapshot.model.operator {
                shard_snapshot.model.operator = Some(masked_operator(
                    &CsrViewAny::Native(operator.view()),
                    range,
                )?);
            }
            engines.push(
                InferenceEngine::new(&shard_snapshot, config.engine)
                    .map_err(|e| shard_error(shard, e))?,
            );
        }
        Ok(Self::assemble(
            plan,
            engines,
            snapshot.model.operator.is_some(),
        ))
    }

    /// Builds a router whose shards serve out of mapped snapshots —
    /// typically `N` clones of one `Arc<MappedSnapshot>`, sharing the
    /// mapping zero-copy (the shard count is the vector's length). Each
    /// shard's operator is row-masked to its range via
    /// [`InferenceEngine::install_operator`]; features, adjacency and
    /// embeddings stay borrowed from the mapping.
    ///
    /// Every per-shard failure — including a snapshot failing its deferred
    /// `verify()` — surfaces as [`ServeError::Shard`] naming the shard
    /// index, never a panic or a silently smaller fleet.
    pub fn from_mapped(
        snapshots: Vec<Arc<MappedSnapshot>>,
        engine_config: EngineConfig,
    ) -> Result<Self> {
        if snapshots.is_empty() {
            return Err(ServeError::ShardConfig {
                shards: 0,
                reason: "a router needs at least one shard snapshot".into(),
            });
        }
        let shards = snapshots.len();
        let mut engines = Vec::with_capacity(shards);
        for (shard, snap) in snapshots.iter().enumerate() {
            engines.push(
                InferenceEngine::from_mapped(snap.clone(), engine_config)
                    .map_err(|e| shard_error(shard, e))?,
            );
        }
        let n = engines[0].num_nodes();
        let classes = engines[0].num_classes();
        let has_operator = snapshots[0].has_operator();
        for (shard, engine) in engines.iter().enumerate() {
            if engine.num_nodes() != n
                || engine.num_classes() != classes
                || snapshots[shard].has_operator() != has_operator
            {
                return Err(ServeError::ShardConfig {
                    shards,
                    reason: format!(
                        "shard {shard} maps a different snapshot than shard 0 \
                         ({} nodes × {} classes, operator: {}; expected {n} × {classes}, \
                         operator: {has_operator}) — every shard must map the same artifact",
                        engine.num_nodes(),
                        engine.num_classes(),
                        snapshots[shard].has_operator(),
                    ),
                });
            }
        }
        let plan = plan_for(snapshots[0].operator_view(), n, shards)?;
        for (shard, (engine, range)) in engines.iter().zip(plan.ranges()).enumerate() {
            if let Some(view) = snapshots[shard].operator_view() {
                let masked = masked_operator(&view, range)?;
                engine
                    .install_operator(masked)
                    .map_err(|e| shard_error(shard, e))?;
            }
        }
        Ok(Self::assemble(plan, engines, has_operator))
    }

    fn assemble(plan: ShardPlan, engines: Vec<InferenceEngine>, has_operator: bool) -> Self {
        let num_nodes = plan.num_nodes();
        let num_classes = engines[0].num_classes();
        Self {
            plan,
            engines,
            num_nodes,
            num_classes,
            has_operator,
            metrics: RouterMetrics::new(),
        }
    }

    /// Number of nodes the fleet serves.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of classes per prediction.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of shards (including empty tail shards).
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// The row-range plan the router was built with.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The per-shard engines, in shard order (observability hook for the
    /// differential oracle; all mutation must go through the router).
    pub fn engines(&self) -> &[InferenceEngine] {
        &self.engines
    }

    /// Serves a single node on the shard owning its operator row.
    pub fn predict(&self, node: usize) -> Result<Prediction> {
        if node >= self.num_nodes {
            return Err(ServeError::InvalidQuery {
                node,
                num_nodes: self.num_nodes,
            });
        }
        let prediction = self.engines[self.plan.shard_of(node)].predict(node)?;
        self.metrics.batches_routed.inc();
        self.metrics.queries_routed.inc();
        self.metrics.shard_batches_dispatched.inc();
        if sigma_obs::ENABLED {
            self.metrics.query_fanout.record(1);
        }
        Ok(prediction)
    }

    /// Serves a batch: scatters nodes to their owning shards, queries each
    /// touched shard once with its sub-batch (shards parallelise
    /// internally on the shared pool), and gathers predictions back in
    /// canonical request order. Duplicate nodes are served per occurrence,
    /// as a single engine would.
    pub fn predict_batch(&self, nodes: &[usize]) -> Result<Vec<Prediction>> {
        for &node in nodes {
            if node >= self.num_nodes {
                return Err(ServeError::InvalidQuery {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        let shards = self.plan.num_shards();
        let mut sub_batches: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (slot, &node) in nodes.iter().enumerate() {
            let shard = self.plan.shard_of(node);
            sub_batches[shard].push(node);
            slots[shard].push(slot);
        }
        let mut out: Vec<Option<Prediction>> = nodes.iter().map(|_| None).collect();
        let mut fanout = 0u64;
        for shard in 0..shards {
            if sub_batches[shard].is_empty() {
                continue;
            }
            fanout += 1;
            let predictions = self.engines[shard]
                .predict_batch(&sub_batches[shard])
                .map_err(|e| shard_error(shard, e))?;
            for (&slot, prediction) in slots[shard].iter().zip(predictions) {
                out[slot] = Some(prediction);
            }
        }
        self.metrics.batches_routed.inc();
        self.metrics.queries_routed.add(nodes.len() as u64);
        self.metrics.shard_batches_dispatched.add(fanout);
        if sigma_obs::ENABLED {
            self.metrics.query_fanout.record(fanout);
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every requested slot was served by its owning shard"))
            .collect())
    }

    /// Top-`k` nodes most similar to `node`, served by the shard owning
    /// the node's operator row.
    ///
    /// Rows are full-shape per shard ([`masked_operator`] keeps the whole
    /// `(n, n)` coordinate space), so the owner shard holds the *complete*
    /// row and no cross-shard merge is ever needed — asserted here. The
    /// answer is bitwise identical to [`InferenceEngine::most_similar`] on
    /// an unsharded engine: both paths rank the same row through the same
    /// code, under the same pinned score-desc/id-asc tie-break.
    pub fn most_similar(&self, node: usize, k: usize) -> Result<Vec<SimilarNode>> {
        if node >= self.num_nodes {
            return Err(ServeError::InvalidQuery {
                node,
                num_nodes: self.num_nodes,
            });
        }
        let shard = self.plan.shard_of(node);
        debug_assert!(
            self.plan.ranges()[shard].contains(&node),
            "owner shard {shard} must hold node {node}'s complete operator row"
        );
        let answer = self.engines[shard]
            .most_similar(node, k)
            .map_err(|e| shard_error(shard, e))?;
        self.metrics.similar_routed.inc();
        self.metrics.similar_subbatches_dispatched.inc();
        if sigma_obs::ENABLED {
            self.metrics.query_fanout.record(1);
        }
        Ok(answer)
    }

    /// Serves a batch of `(node, k)` similarity queries: scatters each
    /// query to its row-owner shard, queries each touched shard once, and
    /// gathers answers back in canonical request order (duplicates served
    /// per occurrence, as a single engine would).
    pub fn most_similar_batch(&self, queries: &[(usize, usize)]) -> Result<Vec<Vec<SimilarNode>>> {
        for &(node, _) in queries {
            if node >= self.num_nodes {
                return Err(ServeError::InvalidQuery {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        let shards = self.plan.num_shards();
        let mut sub_batches: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shards];
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (slot, &query) in queries.iter().enumerate() {
            let shard = self.plan.shard_of(query.0);
            debug_assert!(
                self.plan.ranges()[shard].contains(&query.0),
                "owner shard {shard} must hold node {}'s complete operator row",
                query.0
            );
            sub_batches[shard].push(query);
            slots[shard].push(slot);
        }
        let mut out: Vec<Option<Vec<SimilarNode>>> = queries.iter().map(|_| None).collect();
        let mut fanout = 0u64;
        for shard in 0..shards {
            if sub_batches[shard].is_empty() {
                continue;
            }
            fanout += 1;
            let answers = self.engines[shard]
                .most_similar_batch(&sub_batches[shard])
                .map_err(|e| shard_error(shard, e))?;
            for (&slot, answer) in slots[shard].iter().zip(answers) {
                out[slot] = Some(answer);
            }
        }
        self.metrics.similar_routed.inc();
        self.metrics.similar_subbatches_dispatched.add(fanout);
        if sigma_obs::ENABLED {
            self.metrics.query_fanout.record(fanout);
        }
        Ok(out
            .into_iter()
            .map(|a| a.expect("every similarity query was served by its owning shard"))
            .collect())
    }

    /// Applies a stream of edge updates, fanning invalidation only to the
    /// shards it can affect.
    ///
    /// Each shard computes the first-order footprint from its *own*
    /// adjacency copy (shards may lag each other between repairs) and is
    /// skipped when the footprint misses its row range and none of its
    /// operator rows reference an affected node — exactly the rows a
    /// single engine would touch, restricted to that shard's range.
    /// Returns the total number of cached rows invalidated across the
    /// fleet.
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> Result<usize> {
        let mut total = 0usize;
        let mut fanout = 0u64;
        let mut skipped = 0u64;
        for (shard, engine) in self.engines.iter().enumerate() {
            let range = &self.plan.ranges()[shard];
            let affected = engine
                .edge_update_footprint(updates)
                .map_err(|e| shard_error(shard, e))?;
            let needs = affected.iter().any(|a| range.contains(a))
                || !engine.referencing_rows(&affected).is_empty();
            if needs {
                total += engine.invalidate_nodes(&affected);
                fanout += 1;
            } else {
                skipped += 1;
            }
        }
        self.metrics.edge_update_fanout.add(fanout);
        self.metrics.edge_update_skipped.add(skipped);
        Ok(total)
    }

    /// Incrementally repairs the fleet from a [`DynamicSimRank`]
    /// maintainer — the sharded [`InferenceEngine::repair_from`].
    ///
    /// The maintainer is driven **once** ([`DynamicSimRank::repair`]
    /// consumes the pending edits) and its payload is fanned out
    /// row-filtered: shard `s` receives [`InferenceEngine::apply_repair`]
    /// with the changed rows inside its range iff the round can touch it.
    /// A shard is provably untouchable — and skipped — when all hold:
    ///
    /// 1. no changed operator row lands in its range,
    /// 2. no edited node (changed adjacency row, hence changed `H` row)
    ///    lands in its range (the `α·H_u` blend term),
    /// 3. none of its operator rows reference an edited node (the
    ///    `Σ S_uv·H_v` term, checked against the shard's reverse pattern),
    /// 4. it holds no stale in-range nodes from earlier edge updates
    ///    (repair must clear staleness wherever it is observable).
    ///
    /// A skipped shard's adjacency may lag the maintainer; that is sound
    /// because a later repair diffs the shard's *own* adjacency copy and
    /// re-encodes cumulatively (`apply_repair` self-heals), and a no-op
    /// edit trace (empty `affected_nodes()`) therefore fans out to **zero**
    /// shards. Served results remain bitwise identical to a single engine
    /// after every round — the sharded differential oracle's contract.
    pub fn repair_from(&self, maintainer: &mut DynamicSimRank) -> Result<RouterRepair> {
        let n = self.num_nodes;
        let graph_nodes = maintainer.graph().num_nodes();
        if graph_nodes != n {
            return Err(ServeError::OperatorMismatch {
                got: (graph_nodes, graph_nodes),
                expected: n,
            });
        }
        let shards = self.plan.num_shards();
        let outcome = maintainer.repair().map_err(ServeError::SimRank)?;
        let adjacency = maintainer.graph().to_adjacency();
        match outcome {
            RepairOutcome::FullRefresh => {
                let operator = if self.has_operator {
                    Some(maintainer.operator().map_err(ServeError::SimRank)?)
                } else {
                    None
                };
                let mut shard_repairs = Vec::with_capacity(shards);
                for (shard, engine) in self.engines.iter().enumerate() {
                    let range = &self.plan.ranges()[shard];
                    let (rows, patch) = match &operator {
                        Some(op) => (
                            range.clone().collect::<Vec<usize>>(),
                            OperatorPatch::Full(masked_operator(
                                &CsrViewAny::Native(op.view()),
                                range,
                            )?),
                        ),
                        None => (Vec::new(), OperatorPatch::None),
                    };
                    let repair = engine
                        .apply_repair(&rows, patch, adjacency.clone(), 0)
                        .map_err(|e| shard_error(shard, e))?;
                    shard_repairs.push(Some(repair));
                }
                self.metrics.repair_fanout.add(shards as u64);
                Ok(RouterRepair {
                    full_refresh: self.has_operator,
                    operator_rows: if self.has_operator {
                        (0..n).collect()
                    } else {
                        Vec::new()
                    },
                    shard_repairs,
                    fanout: shards,
                    skipped: 0,
                })
            }
            RepairOutcome::Patched(score_repair) => {
                let changed: Vec<usize> = if self.has_operator {
                    score_repair.changed_rows.clone()
                } else {
                    Vec::new()
                };
                let edited = &score_repair.edited_nodes;
                // Materialise the global row payload once; shards receive
                // gathered sub-slices.
                let payload = if !changed.is_empty() {
                    Some(
                        maintainer
                            .operator_rows(&changed)
                            .map_err(ServeError::SimRank)?,
                    )
                } else {
                    None
                };
                let mut shard_repairs = Vec::with_capacity(shards);
                let mut fanout = 0usize;
                let mut skipped = 0usize;
                for (shard, engine) in self.engines.iter().enumerate() {
                    let range = &self.plan.ranges()[shard];
                    // `changed` is sorted: this shard's slice of it.
                    let lo = changed.partition_point(|&r| r < range.start);
                    let hi = changed.partition_point(|&r| r < range.end);
                    let needs = lo < hi
                        || edited.iter().any(|e| range.contains(e))
                        || !engine.referencing_rows(edited).is_empty()
                        || engine.stale_nodes().iter().any(|s| range.contains(s));
                    if !needs {
                        shard_repairs.push(None);
                        skipped += 1;
                        continue;
                    }
                    let patch = match &payload {
                        Some(payload) if lo < hi => {
                            let positions: Vec<usize> = (lo..hi).collect();
                            OperatorPatch::Rows(payload.gather_rows(&positions)?)
                        }
                        _ => OperatorPatch::None,
                    };
                    let repair = engine
                        .apply_repair(&changed[lo..hi], patch, adjacency.clone(), 0)
                        .map_err(|e| shard_error(shard, e))?;
                    shard_repairs.push(Some(repair));
                    fanout += 1;
                }
                self.metrics.repair_fanout.add(fanout as u64);
                self.metrics.repair_skipped.add(skipped as u64);
                self.metrics
                    .repair_dirty_seeds
                    .add(score_repair.dirty_seeds as u64);
                Ok(RouterRepair {
                    full_refresh: false,
                    operator_rows: changed,
                    shard_repairs,
                    fanout,
                    skipped,
                })
            }
        }
    }

    /// The aggregation operator the fleet currently serves, reassembled
    /// from each shard's owned rows (`None` when the fleet runs the
    /// operator-less `Ẑ = H` variant). Observability hook used by the
    /// sharded differential oracle.
    pub fn operator(&self) -> Option<CsrMatrix> {
        if !self.has_operator {
            return None;
        }
        let n = self.num_nodes;
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (shard, range) in self.plan.ranges().iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let shard_operator = self.engines[shard]
                .operator()
                .expect("router built with an operator keeps one on every shard");
            for row in range.clone() {
                let (start, end) = (
                    shard_operator.indptr()[row],
                    shard_operator.indptr()[row + 1],
                );
                indices.extend_from_slice(&shard_operator.indices()[start..end]);
                values.extend_from_slice(&shard_operator.values()[start..end]);
                indptr.push(indices.len());
            }
        }
        Some(
            CsrMatrix::from_raw(n, n, indptr, indices, values)
                .expect("row-masked shard operators reassemble into a valid CSR"),
        )
    }

    /// Nodes currently marked stale on their owning shard, sorted by id —
    /// the union over shards of each shard's in-range stale set, which is
    /// exactly what a single engine's staleness set would hold.
    pub fn stale_nodes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (shard, range) in self.plan.ranges().iter().enumerate() {
            out.extend(
                self.engines[shard]
                    .stale_nodes()
                    .into_iter()
                    .filter(|node| range.contains(node)),
            );
        }
        out.sort_unstable();
        out
    }

    /// Total aggregated rows cached across the fleet.
    pub fn cached_rows(&self) -> usize {
        self.engines.iter().map(|e| e.cached_rows()).sum()
    }

    /// A point-in-time copy of the router and per-shard counters. Same
    /// tearing semantics as [`InferenceEngine::stats`].
    pub fn stats(&self) -> RouterStats {
        let per_shard: Vec<EngineStats> = self.engines.iter().map(|e| e.stats()).collect();
        let mut engines = EngineStats::default();
        for shard in &per_shard {
            engines += shard;
        }
        self.metrics.snapshot(engines, per_shard)
    }
}

/// Wraps a per-shard failure with its shard index.
fn shard_error(shard: usize, source: ServeError) -> ServeError {
    ServeError::Shard {
        shard,
        source: Box::new(source),
    }
}

/// Plans ranges by operator nnz mass (equal-count split when there is no
/// operator: every row then weighs the same `O(C)` blend).
fn plan_for(
    operator: Option<CsrViewAny<'_>>,
    num_nodes: usize,
    shards: usize,
) -> Result<ShardPlan> {
    let weights: Vec<usize> = match operator {
        Some(view) => (0..num_nodes).map(|row| view.row_nnz(row)).collect(),
        None => vec![0; num_nodes],
    };
    ShardPlan::from_weights(&weights, shards)
}

/// The full-shape operator with every row outside `range` empty: shard
/// engines serve their own rows from the same `(n, n)` coordinate space,
/// so node ids, caches and patches need no translation.
fn masked_operator(operator: &CsrViewAny<'_>, range: &Range<usize>) -> Result<CsrMatrix> {
    let (rows, cols) = operator.shape();
    let mut nnz = 0usize;
    for row in range.clone() {
        nnz += operator.row_nnz(row);
    }
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for row in 0..rows {
        if range.contains(&row) {
            indices.extend_from_slice(operator.row_cols(row));
            values.extend_from_slice(operator.row_vals(row));
        }
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_raw(rows, cols, indptr, indices, values)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_pads_empty_tails_to_the_shard_count() {
        // 3 rows, 7 shards: at most 3 non-empty ranges, 4 empty tails.
        let plan = ShardPlan::from_weights(&[5, 5, 5], 7).unwrap();
        assert_eq!(plan.num_shards(), 7);
        assert_eq!(plan.num_nodes(), 3);
        let covered: usize = plan.ranges().iter().map(|r| r.end - r.start).sum();
        assert_eq!(covered, 3);
        for tail in &plan.ranges()[3..] {
            assert!(tail.is_empty());
        }
    }

    #[test]
    fn plan_rejects_zero_shards() {
        assert!(matches!(
            ShardPlan::from_weights(&[1, 2, 3], 0),
            Err(ServeError::ShardConfig { shards: 0, .. })
        ));
    }

    #[test]
    fn shard_of_skips_empty_ranges() {
        // Single row holding all mass still routes every node somewhere.
        let plan = ShardPlan::from_weights(&[0, 100, 0, 0], 4).unwrap();
        for node in 0..4 {
            let shard = plan.shard_of(node);
            assert!(
                plan.ranges()[shard].contains(&node),
                "node {node} routed to shard {shard} owning {:?}",
                plan.ranges()[shard]
            );
        }
    }

    #[test]
    fn every_node_has_exactly_one_owner() {
        for shards in [1usize, 2, 3, 5, 8, 13] {
            let weights: Vec<usize> = (0..40).map(|i| (i * 7) % 11).collect();
            let plan = ShardPlan::from_weights(&weights, shards).unwrap();
            assert_eq!(plan.num_shards(), shards);
            for node in 0..40 {
                let owner = plan.shard_of(node);
                let owners = plan.ranges().iter().filter(|r| r.contains(&node)).count();
                assert_eq!(owners, 1, "node {node} covered {owners} times");
                assert!(plan.ranges()[owner].contains(&node));
            }
        }
    }

    #[test]
    fn masked_operator_keeps_only_in_range_rows() {
        let full = CsrMatrix::from_raw(
            4,
            4,
            vec![0, 2, 3, 5, 6],
            vec![0, 2, 1, 0, 3, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        let masked = masked_operator(&CsrViewAny::Native(full.view()), &(1..3)).unwrap();
        assert_eq!(masked.shape(), (4, 4));
        assert_eq!(masked.row_nnz(0), 0);
        assert_eq!(masked.row_nnz(1), 1);
        assert_eq!(masked.row_nnz(2), 2);
        assert_eq!(masked.row_nnz(3), 0);
        assert_eq!(masked.indices(), &full.indices()[2..5]);
        assert_eq!(masked.values(), &full.values()[2..5]);
    }
}
