//! In-process operator sharding: N cache lanes over one serving state.
//!
//! SIGMA's global aggregation is a *row*-sliced read over the constant
//! operator `S` (`Ẑ_u` needs only row `u` of `S`, plus arbitrary rows of
//! the small `n × C` embedding `H`), so serving shards naturally along row
//! ranges — and because `S` is one constant, a shard is a row *range*, not
//! a copy. [`ShardPlan`] cuts `0..n` into contiguous ranges of near-equal
//! operator nnz mass with [`sigma_parallel::partition_by_weight`];
//! [`ShardRouter`] holds the one serving state a single
//! [`InferenceEngine`] would (adjacency, features, `H`, operator, stale
//! set, epoch) and, per range, only what is legitimately per shard — a row
//! cache and the counters of the traffic it served — and:
//!
//! * **scatter/gathers** [`ShardRouter::predict`] /
//!   [`ShardRouter::predict_batch`] by row ownership, re-assembling
//!   results in canonical request order (bitwise identical to one engine:
//!   every lane reads the same operator row and the same `H`, and request
//!   order never affects a row's value);
//! * runs maintenance ([`ShardRouter::apply_edge_updates`],
//!   [`ShardRouter::repair_from`], [`ShardRouter::hot_reload_mapped`])
//!   **once**, exactly as an engine does, evicting from the caches of the
//!   lanes that own the outdated rows — a shard is *touched* by a round iff
//!   its range meets the round's footprint;
//! * aggregates per-shard [`EngineStats`] into [`RouterStats`] and
//!   registers router-level `sigma_shard_*` metrics (query/repair fan-out,
//!   skipped-shard counts) next to the lanes' `sigma_serve_*` families.
//!
//! The determinism contract is still checked, not assumed:
//! `sigma_testutil::replay_differential_sharded` replays seeded edit
//! traces against a 1-engine reference and an N-shard router
//! simultaneously, asserting per-batch bitwise equality of logits,
//! labels, operator rows, and per-shard hit/eviction accounting.

use crate::engine::{
    self, Core, EngineConfig, EngineRepair, EngineStats, InferenceEngine, LaneRange, Prediction,
    SimilarNode,
};
use crate::mmap::MappedSnapshot;
use crate::snapshot::ServeSnapshot;
use crate::{Result, ServeError};
use sigma_matrix::{CsrMatrix, CsrViewAny};
use sigma_simrank::{DynamicSimRank, EdgeUpdate};
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
/// exactly the configured number of lanes, some possibly empty.
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
    /// Whether the round degenerated to a whole-operator install (first
    /// sync with a maintainer that had no prior state).
    pub full_refresh: bool,
    /// Operator rows the maintainer reported changed, globally (sorted) —
    /// identical to what a single engine's `EngineRepair::operator_rows`
    /// would list for the same round.
    pub operator_rows: Vec<usize>,
    /// Per-shard repair reports, in shard order: the round's one
    /// [`EngineRepair`] restricted to the shard's range, `None` for shards
    /// whose range the round's footprint misses.
    pub shard_repairs: Vec<Option<EngineRepair>>,
    /// Shards the round touched.
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
    /// when every shard cache is as large as its range, and the repair row
    /// counters (`rows_repaired`, `embedding_rows_repaired`,
    /// `rows_invalidated`) are counted on the shard owning the row, so
    /// their sums match a single engine's always (the differential oracle
    /// asserts both); per-round events (`operator_repairs`, …) tick on
    /// every touched shard, and `repair_dirty_seeds` is tracked at router
    /// level instead (the maintainer runs once per round, not per shard).
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
        /// Score rows the maintainer re-pulled across all rounds
        /// (router-level: the maintainer repairs once per round).
        repair_dirty_seeds: "sigma_shard_repair_dirty_seeds_total",
            "score rows the router's maintainer rounds re-pulled";
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

/// One serving state behind N cache lanes, one per row range of a
/// [`ShardPlan`].
///
/// The state — adjacency, features, `H`, operator, stale set, operator
/// epoch — is held once, exactly as an [`InferenceEngine`] holds it; a
/// shard adds only its range, its row cache and its counters (a lane is an
/// engine sharing the router's state, so chunking and latency bookkeeping
/// are the engine's). Queries for a node go to the lane owning its row;
/// maintenance changes the state once and evicts from the owning lanes.
/// The public surface mirrors [`InferenceEngine`]; results are bitwise
/// identical to a single engine at any shard count, any thread count.
///
/// Like the engine, queries may race maintenance freely, but maintenance
/// calls ([`ShardRouter::repair_from`], [`ShardRouter::apply_edge_updates`],
/// [`ShardRouter::hot_reload_mapped`]) must not race each other — run them
/// from a single maintenance thread.
pub struct ShardRouter {
    core: Arc<Core>,
    plan: ShardPlan,
    lanes: Vec<InferenceEngine>,
    metrics: RouterMetrics,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("num_nodes", &self.num_nodes())
            .field("num_classes", &self.num_classes())
            .field("shards", &self.plan.num_shards())
            .field("ranges", &self.plan.ranges())
            .finish()
    }
}

impl ShardRouter {
    /// Builds a router over a decoded snapshot: plans ranges by operator
    /// nnz mass and builds the one serving state as
    /// [`InferenceEngine::new`] would (one encoder run).
    pub fn new(snapshot: &ServeSnapshot, config: &ShardRouterConfig) -> Result<Self> {
        let operator = snapshot.model.operator.as_ref();
        let plan = plan_for(
            operator.map(|m| CsrViewAny::Native(m.view())),
            snapshot.num_nodes(),
            config.shards,
        )?;
        let core = Core::from_snapshot(snapshot, &config.engine)?;
        Ok(Self::over(core, plan, config.engine))
    }

    /// Builds a router serving out of a mapped snapshot, zero-copy: no
    /// section is copied, so construction costs the plan's scan of the
    /// operator's row lengths. The shard count is the vector's length —
    /// typically `N` clones of one `Arc<MappedSnapshot>`; the state is
    /// served from entry 0, and every entry must map the same artifact
    /// (the same mapping, or an equal section table), else
    /// [`ServeError::ShardConfig`] names the odd one.
    ///
    /// Every per-entry failure — including a snapshot failing its deferred
    /// `verify()` — surfaces as [`ServeError::Shard`] naming the shard
    /// index, never a panic or a silently smaller fleet.
    pub fn from_mapped(
        snapshots: Vec<Arc<MappedSnapshot>>,
        engine_config: EngineConfig,
    ) -> Result<Self> {
        let Some(first) = snapshots.first() else {
            return Err(ServeError::ShardConfig {
                shards: 0,
                reason: "a router needs at least one shard snapshot".into(),
            });
        };
        let shards = snapshots.len();
        for (shard, snap) in snapshots.iter().enumerate() {
            snap.verify().map_err(|e| shard_error(shard, e))?;
            if !first.same_artifact(snap) {
                return Err(ServeError::ShardConfig {
                    shards,
                    reason: format!(
                        "shard {shard} maps a different snapshot than shard 0 (`{}` vs `{}`: \
                         section tags, lengths or checksums differ) — every shard must map \
                         the same artifact",
                        snap.tag(),
                        first.tag(),
                    ),
                });
            }
        }
        let plan = plan_for(first.operator_view(), first.num_nodes(), shards)?;
        let core =
            Core::from_mapped(first.clone(), &engine_config).map_err(|e| shard_error(0, e))?;
        Ok(Self::over(core, plan, engine_config))
    }

    fn over(core: Arc<Core>, plan: ShardPlan, config: EngineConfig) -> Self {
        let lanes = (0..plan.num_shards())
            .map(|_| InferenceEngine::lane_over(core.clone(), config))
            .collect();
        Self {
            core,
            plan,
            lanes,
            metrics: RouterMetrics::new(),
        }
    }

    /// Every lane with the range it owns, for the maintenance functions.
    fn lane_ranges(&self) -> Vec<LaneRange<'_>> {
        self.lanes
            .iter()
            .zip(self.plan.ranges())
            .map(|(engine, range)| (engine.lane(), range.clone()))
            .collect()
    }

    /// Number of nodes the fleet serves.
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes
    }

    /// Number of classes per prediction.
    pub fn num_classes(&self) -> usize {
        self.core.num_classes
    }

    /// Number of shards (including empty tail shards).
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// The row-range plan the router was built with.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Serves a single node on the shard owning its operator row.
    pub fn predict(&self, node: usize) -> Result<Prediction> {
        if node >= self.num_nodes() {
            return Err(ServeError::InvalidQuery {
                node,
                num_nodes: self.num_nodes(),
            });
        }
        let prediction = self.lanes[self.plan.shard_of(node)].predict(node)?;
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
            if node >= self.num_nodes() {
                return Err(ServeError::InvalidQuery {
                    node,
                    num_nodes: self.num_nodes(),
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
            let predictions = self.lanes[shard]
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
    /// The owner lane reads the node's complete row off the shared
    /// operator, so no cross-shard merge is ever needed, and the answer is
    /// bitwise identical to [`InferenceEngine::most_similar`] on an
    /// unsharded engine: both paths rank the same row through the same
    /// code, under the same pinned score-desc/id-asc tie-break.
    pub fn most_similar(&self, node: usize, k: usize) -> Result<Vec<SimilarNode>> {
        if node >= self.num_nodes() {
            return Err(ServeError::InvalidQuery {
                node,
                num_nodes: self.num_nodes(),
            });
        }
        let shard = self.plan.shard_of(node);
        debug_assert!(
            self.plan.ranges()[shard].contains(&node),
            "owner shard {shard} must hold node {node}'s complete operator row"
        );
        let answer = self.lanes[shard]
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
            if node >= self.num_nodes() {
                return Err(ServeError::InvalidQuery {
                    node,
                    num_nodes: self.num_nodes(),
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
            let answers = self.lanes[shard]
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

    /// Applies a stream of edge updates exactly as
    /// [`InferenceEngine::apply_edge_updates`] does — one footprint off the
    /// one adjacency, one staleness update — evicting each outdated row
    /// from the lane that owns it. A shard whose range misses every row the
    /// updates mark stale is counted as skipped. Returns the total number of
    /// cached rows invalidated across the fleet.
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> Result<usize> {
        let (invalidated, touched) =
            engine::apply_edge_updates(&self.core, &self.lane_ranges(), updates)?;
        let fanout = touched.iter().filter(|&&t| t).count();
        self.metrics.edge_update_fanout.add(fanout as u64);
        self.metrics
            .edge_update_skipped
            .add((touched.len() - fanout) as u64);
        Ok(invalidated)
    }

    /// Incrementally repairs the served state from a [`DynamicSimRank`]
    /// maintainer — [`InferenceEngine::repair_from`], run once for the
    /// whole fleet: one maintainer round, one adjacency diff, one re-encode
    /// of the edited `H` rows, one operator splice, one write section that
    /// evicts each invalidated row from the lane owning it.
    ///
    /// A shard is *touched* by the round iff its range meets the round's
    /// footprint — patched operator rows ∪ re-encoded rows ∪ invalidated
    /// rows ∪ nodes that were stale — and its entry of
    /// [`RouterRepair::shard_repairs`] is the round's report restricted to
    /// its range. Every other shard is skipped: nothing it caches or
    /// counts changed, so a no-op edit trace touches **zero** shards.
    /// Served results are bitwise identical to a single engine after every
    /// round — the sharded differential oracle's contract.
    pub fn repair_from(&self, maintainer: &mut DynamicSimRank) -> Result<RouterRepair> {
        let round = engine::repair_round(&self.core, &self.lane_ranges(), maintainer)?;
        let full_refresh = round.repair.full_refresh;
        let mut shard_repairs = Vec::with_capacity(self.lanes.len());
        for ((lane, range), &touched) in self
            .lanes
            .iter()
            .zip(self.plan.ranges())
            .zip(&round.touched)
        {
            if touched {
                lane.lane().count_round(full_refresh);
            }
            shard_repairs.push(touched.then(|| round.repair.within(range)));
        }
        let fanout = shard_repairs.iter().flatten().count();
        let skipped = shard_repairs.len() - fanout;
        self.metrics.repair_fanout.add(fanout as u64);
        self.metrics.repair_skipped.add(skipped as u64);
        self.metrics.repair_dirty_seeds.add(round.dirty_seeds);
        Ok(RouterRepair {
            full_refresh,
            operator_rows: round.repair.operator_rows,
            shard_repairs,
            fanout,
            skipped,
        })
    }

    /// Atomically replaces the entire served state with a mapped snapshot
    /// of the same graph dimensions — [`InferenceEngine::hot_reload_mapped`]
    /// for the fleet: one swap, one epoch bump, every lane's cache cleared.
    /// The plan keeps its ranges (any partition of the rows serves
    /// correctly; only the balance was planned for the old operator).
    pub fn hot_reload_mapped(&self, snapshot: Arc<MappedSnapshot>) -> Result<()> {
        engine::hot_reload_mapped(&self.core, &self.lane_ranges(), snapshot)
    }

    /// A copy of the aggregation operator the fleet serves (`None` when it
    /// runs the operator-less `Ẑ = H` variant). Observability hook used by
    /// the sharded differential oracle.
    pub fn operator(&self) -> Option<CsrMatrix> {
        self.core.operator()
    }

    /// Nodes currently marked stale, sorted by id — the one staleness set
    /// a single engine would hold.
    pub fn stale_nodes(&self) -> Vec<usize> {
        self.core.stale_nodes()
    }

    /// Total aggregated rows cached across the fleet.
    pub fn cached_rows(&self) -> usize {
        self.lanes.iter().map(|e| e.cached_rows()).sum()
    }

    /// A point-in-time copy of the router and per-shard counters. Same
    /// tearing semantics as [`InferenceEngine::stats`].
    pub fn stats(&self) -> RouterStats {
        let per_shard: Vec<EngineStats> = self.lanes.iter().map(|e| e.stats()).collect();
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
}
