//! Dynamic SimRank maintenance: buffered edits, exact repair, lazy refresh.
//!
//! The paper's conclusion names dynamic graphs as the main future-work
//! direction: SIGMA's aggregation operator is constant during training, so
//! when edges arrive or disappear the SimRank matrix must be brought up to
//! date without redoing the full precomputation on every edit.
//! [`DynamicSimRank`] keeps a graph, the seed-decomposed scores behind it and
//! their top-k operator, and offers two ways forward after edits:
//!
//! * **Repair** ([`DynamicSimRank::repair`]) — exact and incremental. Edits
//!   are applied to the graph a batch at a time (one graph rebuild per
//!   batch); the endpoints whose adjacency really changed are the dirtiness
//!   source. A repair then costs, stage by stage: a dirty scan over the seed
//!   footprints (`O(Σ |footprint|)`), one re-push per dirty seed, the
//!   re-summing of the score rows those seeds contribute to
//!   (`O(contributions of the changed rows)`, see [`crate::DecomposedScores`])
//!   and **one** top-k materialisation of those rows, spliced into the
//!   cached operator. [`DynamicSimRank::operator_rows`] gathers the patch
//!   consumers splice into their own copies from that cache, so a row is
//!   selected once however many shards ask. The result is bitwise identical
//!   to a full recomputation on the edited graph.
//! * **Lazy refresh** ([`DynamicSimRank::scores`], [`DynamicSimRank::operator`])
//!   — the strategy the paper sketches: queries keep reading the cached,
//!   slightly stale scores until the edits since the last refresh or repair
//!   exceed a staleness budget, then recompute everything. Between
//!   recomputations the maintainer tracks which nodes are *affected*
//!   (endpoints of edited edges plus their neighbours — the only rows whose
//!   first-order SimRank terms can change), so callers can bound how stale a
//!   particular query is.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::incremental::{
    DecomposedScores, REPAIR_ASSEMBLE_NS, REPAIR_ENTRIES, REPAIR_MATERIALISE_NS, REPAIR_ROWS,
};
use crate::localpush::LocalPush;
use crate::{Result, SimRankConfig, SimRankError, SparseScores};
use sigma_graph::Graph;
use sigma_matrix::CsrMatrix;
use sigma_obs::Stopwatch;

/// A buffered edge edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Add an undirected edge `(u, v)`.
    Insert(usize, usize),
    /// Remove an undirected edge `(u, v)`.
    Delete(usize, usize),
}

/// What [`DynamicSimRank::repair`] patched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRepair {
    /// Score/operator rows whose values were re-assembled (sorted). Rows
    /// outside this set are provably unchanged.
    pub changed_rows: Vec<usize>,
    /// Nodes whose adjacency actually changed since the last refresh or
    /// repair (sorted) — the rows of `A` (and hence of the serving-side
    /// embedding `H`) a consumer must recompute.
    pub edited_nodes: Vec<usize>,
    /// Number of seed push processes that were re-run.
    pub dirty_seeds: usize,
    /// Residual absorptions performed by the re-pushed seeds.
    pub pushes: usize,
}

impl ScoreRepair {
    fn empty() -> Self {
        Self {
            changed_rows: Vec::new(),
            edited_nodes: Vec::new(),
            dirty_seeds: 0,
            pushes: 0,
        }
    }
}

/// How [`DynamicSimRank::repair`] brought the scores up to date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairOutcome {
    /// No prior decomposition existed, so a full (decomposed) recomputation
    /// ran; every row may have changed.
    FullRefresh,
    /// Only the reported rows were re-assembled; the result is bitwise
    /// identical to what a full refresh would have produced.
    Patched(ScoreRepair),
}

/// Maintains a graph together with a lazily refreshed SimRank operator.
#[derive(Debug)]
pub struct DynamicSimRank {
    graph: Graph,
    config: SimRankConfig,
    /// Number of edits tolerated before a refresh is forced.
    staleness_budget: usize,
    /// Edits applied to the graph since the last refresh.
    pending_edits: usize,
    /// Nodes whose rows may be stale (endpoints of edits and their
    /// neighbours at edit time).
    affected: FxHashSet<u32>,
    /// Endpoints whose adjacency actually changed since the last refresh or
    /// repair — the dirtiness source for incremental repair.
    edited: FxHashSet<u32>,
    /// Seed-decomposed computation behind `cached`, patched by `repair`.
    decomposed: Option<DecomposedScores>,
    /// Cached scores from the last refresh (`None` until first computed).
    cached: Option<SparseScores>,
    /// Top-k materialisation of `cached`, built lazily and row-patched by
    /// `repair`.
    operator_cache: Option<CsrMatrix>,
    /// Number of full recomputations performed so far.
    refreshes: usize,
    /// Number of incremental repairs performed so far.
    repairs: usize,
}

impl DynamicSimRank {
    /// Creates a maintainer over an initial graph. The first operator query
    /// triggers the initial computation.
    pub fn new(graph: Graph, config: SimRankConfig, staleness_budget: usize) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            graph,
            config,
            staleness_budget,
            pending_edits: 0,
            affected: FxHashSet::default(),
            edited: FxHashSet::default(),
            decomposed: None,
            cached: None,
            operator_cache: None,
            refreshes: 0,
            repairs: 0,
        })
    }

    /// The current graph (always up to date, regardless of score staleness).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of edits applied since the scores were last refreshed.
    pub fn pending_edits(&self) -> usize {
        self.pending_edits
    }

    /// Number of full recomputations performed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Number of incremental repairs performed so far.
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Nodes whose score rows may be stale: endpoints of edits since the
    /// last refresh/repair plus their neighbourhoods at edit time.
    ///
    /// Contract (pinned by a unit test): the result is sorted ascending and
    /// duplicate-free, even when several edits overlap or both endpoints of
    /// an edit share neighbours.
    pub fn affected_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.affected.iter().map(|&v| v as usize).collect();
        out.sort_unstable();
        out
    }

    /// Nodes whose adjacency actually changed since the last refresh or
    /// repair, sorted ascending. Unlike [`DynamicSimRank::affected_nodes`]
    /// this excludes no-op edits (duplicate inserts, missing deletes) and
    /// untouched neighbours — it is the exact dirtiness source incremental
    /// repair works from.
    pub fn edited_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.edited.iter().map(|&v| v as usize).collect();
        out.sort_unstable();
        out
    }

    /// Applies one edge update to the graph and records the affected region.
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<()> {
        self.apply_batch(&[update])
    }

    /// Applies a batch of updates, in order, and rebuilds the graph once.
    ///
    /// Equivalent to applying the updates one by one — each is judged
    /// against the edge set its predecessors left, and an out-of-bounds
    /// update stops the batch after the ones before it took effect.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<()> {
        let n = self.graph.num_nodes();
        // Presence of every edge this batch changed, keyed `(min, max)`;
        // edges not listed are as `self.graph` has them.
        let mut overlay: FxHashMap<(usize, usize), bool> = FxHashMap::default();
        let mut outcome = Ok(());
        for &update in updates {
            let (u, v, insert) = match update {
                EdgeUpdate::Insert(u, v) => (u, v, true),
                EdgeUpdate::Delete(u, v) => (u, v, false),
            };
            if u >= n || v >= n {
                outcome = Err(SimRankError::NodeOutOfBounds {
                    node: u.max(v),
                    num_nodes: n,
                });
                break;
            }
            // No-op edits (duplicate inserts, self-loops, missing deletes)
            // leave the topology — and therefore the scores — untouched;
            // record nothing so they neither burn staleness budget nor
            // dirty repairs.
            let edge = (u.min(v), u.max(v));
            let present = overlay
                .get(&edge)
                .copied()
                .unwrap_or_else(|| self.graph.has_edge(u, v));
            if u == v || present == insert {
                continue;
            }
            overlay.insert(edge, insert);
            // Mark the endpoints and their neighbourhoods stale. The
            // batch-start neighbourhood is enough: a neighbour gained or
            // lost earlier in the batch was an endpoint then, so it is
            // already marked.
            for endpoint in [u, v] {
                self.affected.insert(endpoint as u32);
                self.edited.insert(endpoint as u32);
                self.affected.extend(self.graph.neighbors(endpoint));
            }
            self.pending_edits += 1;
        }
        if !overlay.is_empty() {
            let edges: Vec<(usize, usize)> = self
                .graph
                .edges()
                .filter(|edge| !overlay.contains_key(edge))
                .chain(
                    overlay
                        .iter()
                        .filter(|&(_, &present)| present)
                        .map(|(&edge, _)| edge),
                )
                .collect();
            self.graph = Graph::from_edges(n, &edges)?;
        }
        outcome
    }

    /// Whether the cached scores are stale enough that the next operator
    /// query will trigger a recomputation.
    pub fn needs_refresh(&self) -> bool {
        self.cached.is_none() || self.pending_edits > self.staleness_budget
    }

    /// Forces an immediate full recomputation regardless of the staleness
    /// budget. Runs the seed-decomposed solver so the result is incrementally
    /// repairable by [`DynamicSimRank::repair`].
    pub fn refresh(&mut self) -> Result<()> {
        let decomposed = LocalPush::new(&self.graph, self.config)?.run_decomposed();
        self.cached = Some(decomposed.assemble());
        self.decomposed = Some(decomposed);
        self.operator_cache = None;
        self.pending_edits = 0;
        self.affected.clear();
        self.edited.clear();
        self.refreshes += 1;
        Ok(())
    }

    /// Incrementally brings the cached scores and operator up to date with
    /// the current graph, re-pushing only the seeds the edits since the last
    /// refresh/repair can influence.
    ///
    /// The patched state is **bitwise identical** to what a full
    /// [`DynamicSimRank::refresh`] would produce — the differential harness
    /// in `sigma-testutil` holds this to random edit traces — while the work
    /// scales with the edited region instead of the whole graph. Falls back
    /// to a full refresh when nothing has been computed yet.
    pub fn repair(&mut self) -> Result<RepairOutcome> {
        if self.decomposed.is_none() {
            self.refresh()?;
            return Ok(RepairOutcome::FullRefresh);
        }
        if self.edited.is_empty() {
            self.pending_edits = 0;
            self.affected.clear();
            return Ok(RepairOutcome::Patched(ScoreRepair::empty()));
        }
        let mut clock = Stopwatch::start();
        let edited = self.edited_nodes();
        let mut solver = LocalPush::new(&self.graph, self.config)?;
        let decomposed = self
            .decomposed
            .as_mut()
            .expect("checked above: decomposition exists");
        let report = solver.repair_staged(decomposed, &edited, &mut clock)?;
        let cached = self
            .cached
            .as_mut()
            .expect("a decomposition is always assembled into cached scores");
        let work = decomposed.assemble_rows_into(cached, &report.changed_rows);
        REPAIR_ASSEMBLE_NS.record(clock.lap());
        REPAIR_ROWS.add(report.changed_rows.len() as u64);
        REPAIR_ENTRIES.add(work.entries as u64);
        // The one materialisation of the patch: `operator_rows` hands
        // consumers these rows back out of the spliced cache.
        if let Some(operator) = &self.operator_cache {
            let patch = cached.rows_to_csr(&report.changed_rows, self.config.top_k);
            self.operator_cache = Some(operator.replace_rows(&report.changed_rows, &patch)?);
        }
        REPAIR_MATERIALISE_NS.record(clock.lap());
        self.pending_edits = 0;
        self.affected.clear();
        self.edited.clear();
        self.repairs += 1;
        Ok(RepairOutcome::Patched(ScoreRepair {
            changed_rows: report.changed_rows,
            edited_nodes: edited,
            dirty_seeds: report.dirty_seeds.len(),
            pushes: report.pushes,
        }))
    }

    /// Returns the (possibly slightly stale) scores, refreshing them first if
    /// the staleness budget is exhausted or nothing has been computed yet.
    pub fn scores(&mut self) -> Result<&SparseScores> {
        if self.needs_refresh() {
            self.refresh()?;
        }
        Ok(self.cached.as_ref().expect("refresh populates the cache"))
    }

    /// Materialises the current top-k aggregation operator (refreshing lazily
    /// like [`DynamicSimRank::scores`]). The materialisation is cached and
    /// row-patched by [`DynamicSimRank::repair`], so repeated queries between
    /// edits are cheap.
    pub fn operator(&mut self) -> Result<CsrMatrix> {
        if self.needs_refresh() {
            self.refresh()?;
        }
        Ok(self.materialised_operator().clone())
    }

    /// The top-k materialisation of the cached scores, built on first use.
    fn materialised_operator(&mut self) -> &CsrMatrix {
        let scores = self.cached.as_ref().expect("callers refresh first");
        self.operator_cache
            .get_or_insert_with(|| scores.to_csr(self.config.top_k))
    }

    /// The top-k operator rows for the listed score rows as a
    /// `rows.len() × n` CSR patch against the *current* cached scores —
    /// the row payload consumers splice in with `CsrMatrix::replace_rows`
    /// after a [`DynamicSimRank::repair`]. The rows are gathered from the
    /// cached operator, which `repair` has already brought up to date, so a
    /// patch is top-k-selected once however many consumers ask for it.
    pub fn operator_rows(&mut self, rows: &[usize]) -> Result<CsrMatrix> {
        let n = self.graph.num_nodes();
        for &row in rows {
            if row >= n {
                return Err(SimRankError::NodeOutOfBounds {
                    node: row,
                    num_nodes: n,
                });
            }
        }
        if self.cached.is_none() {
            self.refresh()?;
        }
        Ok(self.materialised_operator().gather_rows(rows)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    fn maintainer(budget: usize) -> DynamicSimRank {
        DynamicSimRank::new(ring(12), SimRankConfig::default().with_top_k(4), budget).unwrap()
    }

    #[test]
    fn first_query_computes_scores() {
        let mut dyn_sim = maintainer(5);
        assert!(dyn_sim.needs_refresh());
        let op = dyn_sim.operator().unwrap();
        assert_eq!(op.shape(), (12, 12));
        assert_eq!(dyn_sim.refreshes(), 1);
        assert!(!dyn_sim.needs_refresh());
    }

    #[test]
    fn edits_are_applied_to_the_graph_immediately() {
        let mut dyn_sim = maintainer(10);
        assert!(!dyn_sim.graph().has_edge(0, 6));
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        assert!(dyn_sim.graph().has_edge(0, 6));
        dyn_sim.apply(EdgeUpdate::Delete(0, 6)).unwrap();
        assert!(!dyn_sim.graph().has_edge(0, 6));
        assert_eq!(dyn_sim.pending_edits(), 2);
    }

    #[test]
    fn refresh_is_lazy_until_budget_is_exhausted() {
        let mut dyn_sim = maintainer(2);
        let _ = dyn_sim.scores().unwrap();
        assert_eq!(dyn_sim.refreshes(), 1);
        // Two edits stay within the budget: no recomputation on query.
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        dyn_sim.apply(EdgeUpdate::Insert(1, 7)).unwrap();
        let _ = dyn_sim.scores().unwrap();
        assert_eq!(dyn_sim.refreshes(), 1);
        // A third edit exceeds it: the next query recomputes.
        dyn_sim.apply(EdgeUpdate::Insert(2, 8)).unwrap();
        let _ = dyn_sim.scores().unwrap();
        assert_eq!(dyn_sim.refreshes(), 2);
        assert_eq!(dyn_sim.pending_edits(), 0);
    }

    #[test]
    fn affected_nodes_cover_endpoints_and_neighbours() {
        let mut dyn_sim = maintainer(10);
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        let affected = dyn_sim.affected_nodes();
        for node in [0usize, 1, 5, 6, 7, 11] {
            assert!(affected.contains(&node), "{node} missing from {affected:?}");
        }
        assert!(!affected.contains(&3));
        // A refresh clears the stale set.
        dyn_sim.refresh().unwrap();
        assert!(dyn_sim.affected_nodes().is_empty());
    }

    #[test]
    fn inserted_edges_change_the_scores_after_refresh() {
        let mut dyn_sim = maintainer(0);
        // The 12-cycle is bipartite, so odd-distance pairs such as (0, 5)
        // have no even-length meeting tours and score exactly zero.
        let before = dyn_sim.scores().unwrap().get(0, 5);
        assert!(before < 1e-6);
        // Adding the chord (0, 6) gives nodes 0 and 5 the shared neighbour 6.
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        let after = dyn_sim.scores().unwrap().get(0, 5);
        assert!(
            after > 0.05,
            "a new shared neighbour should raise S(0,5): {before} -> {after}"
        );
    }

    #[test]
    fn duplicate_inserts_and_missing_deletes_are_no_ops_on_topology() {
        let mut dyn_sim = maintainer(10);
        let edges_before = dyn_sim.graph().num_edges();
        dyn_sim.apply(EdgeUpdate::Insert(0, 1)).unwrap(); // already present
        dyn_sim.apply(EdgeUpdate::Delete(3, 9)).unwrap(); // not present
        assert_eq!(dyn_sim.graph().num_edges(), edges_before);
        // No-op edits leave no trace: no staleness burnt, nothing to repair.
        assert_eq!(dyn_sim.pending_edits(), 0);
        assert!(dyn_sim.affected_nodes().is_empty());
        assert!(dyn_sim.edited_nodes().is_empty());
    }

    #[test]
    fn affected_nodes_are_sorted_and_duplicate_free() {
        // Insert (0, 2) on the 12-ring: the endpoints share neighbour 1, and
        // a second overlapping edit repeats several nodes. The contract is
        // that `affected_nodes` reports each node once, sorted ascending.
        let mut dyn_sim = maintainer(10);
        dyn_sim.apply(EdgeUpdate::Insert(0, 2)).unwrap();
        let affected = dyn_sim.affected_nodes();
        assert_eq!(affected, vec![0, 1, 2, 3, 11]);
        dyn_sim.apply(EdgeUpdate::Insert(1, 3)).unwrap();
        let affected = dyn_sim.affected_nodes();
        assert!(affected.windows(2).all(|w| w[0] < w[1]), "{affected:?}");
        assert_eq!(affected, vec![0, 1, 2, 3, 4, 11]);
        let edited = dyn_sim.edited_nodes();
        assert!(edited.windows(2).all(|w| w[0] < w[1]), "{edited:?}");
        assert_eq!(edited, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_batch_is_equivalent_to_applying_its_edits_one_by_one() {
        use std::collections::BTreeSet;
        use EdgeUpdate::{Delete, Insert};
        let traces: [&[EdgeUpdate]; 4] = [
            // Duplicate inserts, a delete of a just-inserted edge, self-loops.
            &[
                Insert(0, 6),
                Insert(6, 0),
                Insert(3, 3),
                Delete(0, 6),
                Insert(2, 9),
            ],
            // Delete-then-re-add of an original edge, a missing delete, and
            // an insert-delete-insert of one new edge.
            &[
                Delete(0, 1),
                Insert(1, 0),
                Delete(4, 9),
                Insert(5, 8),
                Delete(8, 5),
                Insert(5, 8),
            ],
            // An out-of-bounds edit stops the batch after its predecessors.
            &[Insert(1, 7), Delete(2, 3), Insert(0, 99), Insert(4, 10)],
            &[],
        ];
        for trace in traces {
            // The model: the edge set edit by edit, with neighbourhoods read
            // off it at edit time.
            let mut edges: BTreeSet<(usize, usize)> = ring(12).edges().collect();
            let (mut edited, mut affected) = (BTreeSet::new(), BTreeSet::new());
            let (mut pending, mut in_bounds) = (0, true);
            for &update in trace {
                let (Insert(u, v) | Delete(u, v)) = update;
                if u.max(v) >= 12 {
                    in_bounds = false;
                    break;
                }
                let edge = (u.min(v), u.max(v));
                let insert = matches!(update, Insert(..));
                if u == v || edges.contains(&edge) == insert {
                    continue;
                }
                for &(a, b) in &edges {
                    if a == u || a == v {
                        affected.insert(b);
                    }
                    if b == u || b == v {
                        affected.insert(a);
                    }
                }
                affected.extend([u, v]);
                edited.extend([u, v]);
                pending += 1;
                if insert {
                    edges.insert(edge);
                } else {
                    edges.remove(&edge);
                }
            }
            let edges: Vec<(usize, usize)> = edges.into_iter().collect();
            let graph = Graph::from_edges(12, &edges).unwrap();

            let (mut batched, mut sequential) = (maintainer(10), maintainer(10));
            assert_eq!(batched.apply_batch(trace).is_ok(), in_bounds, "{trace:?}");
            let one_by_one = trace.iter().try_for_each(|&u| sequential.apply(u));
            assert_eq!(one_by_one.is_ok(), in_bounds, "{trace:?}");
            for maintainer in [batched, sequential] {
                assert_eq!(maintainer.graph().indptr(), graph.indptr(), "{trace:?}");
                assert_eq!(maintainer.graph().indices(), graph.indices(), "{trace:?}");
                assert!(maintainer
                    .edited_nodes()
                    .into_iter()
                    .eq(edited.iter().copied()));
                assert!(maintainer
                    .affected_nodes()
                    .into_iter()
                    .eq(affected.iter().copied()));
                assert_eq!(maintainer.pending_edits(), pending, "{trace:?}");
            }
        }
    }

    fn scores_bits(s: &SparseScores) -> Vec<Vec<(usize, u32)>> {
        (0..s.num_nodes())
            .map(|u| {
                let mut row: Vec<(usize, u32)> = s.row(u).map(|(v, x)| (v, x.to_bits())).collect();
                row.sort_unstable();
                row
            })
            .collect()
    }

    #[test]
    fn repair_is_bitwise_identical_to_refresh() {
        let mut incremental = maintainer(100);
        let _ = incremental.operator().unwrap(); // initial decomposition
        let updates = [
            EdgeUpdate::Insert(0, 6),
            EdgeUpdate::Delete(3, 4),
            EdgeUpdate::Insert(2, 9),
        ];
        incremental.apply_batch(&updates).unwrap();
        let outcome = incremental.repair().unwrap();
        let repair = match outcome {
            RepairOutcome::Patched(r) => r,
            other => panic!("expected a patch, got {other:?}"),
        };
        assert!(!repair.changed_rows.is_empty());
        assert_eq!(repair.edited_nodes, vec![0, 2, 3, 4, 6, 9]);
        assert_eq!(incremental.repairs(), 1);
        assert_eq!(incremental.pending_edits(), 0);

        // A maintainer that takes the full-refresh road instead.
        let mut full = maintainer(100);
        full.apply_batch(&updates).unwrap();
        full.refresh().unwrap();
        assert_eq!(
            scores_bits(incremental.scores().unwrap()),
            scores_bits(full.scores().unwrap())
        );
        assert_eq!(incremental.operator().unwrap(), full.operator().unwrap());
    }

    #[test]
    fn delete_then_readd_repairs_back_to_the_original_state() {
        let mut dyn_sim = maintainer(100);
        let original = dyn_sim.operator().unwrap();
        dyn_sim.apply(EdgeUpdate::Delete(0, 1)).unwrap();
        dyn_sim.apply(EdgeUpdate::Insert(0, 1)).unwrap();
        let outcome = dyn_sim.repair().unwrap();
        match outcome {
            // The net topology is unchanged, so the re-pushed seeds land on
            // identical values and the operator round-trips bitwise.
            RepairOutcome::Patched(repair) => assert_eq!(repair.edited_nodes, vec![0, 1]),
            other => panic!("expected a patch, got {other:?}"),
        }
        assert_eq!(dyn_sim.operator().unwrap(), original);
    }

    #[test]
    fn repair_without_prior_state_is_a_full_refresh() {
        let mut dyn_sim = maintainer(5);
        assert_eq!(dyn_sim.repair().unwrap(), RepairOutcome::FullRefresh);
        assert_eq!(dyn_sim.refreshes(), 1);
        // And with no pending edits it degenerates to an empty patch.
        match dyn_sim.repair().unwrap() {
            RepairOutcome::Patched(repair) => {
                assert!(repair.changed_rows.is_empty());
                assert_eq!(repair.dirty_seeds, 0);
            }
            other => panic!("expected an empty patch, got {other:?}"),
        }
        assert_eq!(dyn_sim.refreshes(), 1);
    }

    #[test]
    fn operator_rows_match_the_full_materialisation() {
        let mut dyn_sim = maintainer(5);
        let full = dyn_sim.operator().unwrap();
        let rows = [1usize, 4, 7];
        let slice = dyn_sim.operator_rows(&rows).unwrap();
        assert_eq!(slice, full.gather_rows(&rows).unwrap());
        assert!(dyn_sim.operator_rows(&[99]).is_err());
    }

    #[test]
    fn out_of_bounds_updates_are_rejected() {
        let mut dyn_sim = maintainer(10);
        assert!(matches!(
            dyn_sim.apply(EdgeUpdate::Insert(0, 99)),
            Err(SimRankError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = SimRankConfig {
            decay: 1.4,
            epsilon: 0.1,
            top_k: None,
        };
        assert!(DynamicSimRank::new(ring(4), bad, 1).is_err());
    }
}
