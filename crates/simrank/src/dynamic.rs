//! Dynamic SimRank maintenance: buffered edits, exact repair, lazy refresh.
//!
//! The paper's conclusion names dynamic graphs as the main future-work
//! direction: SIGMA's aggregation operator is constant during training, so
//! when edges arrive or disappear the SimRank matrix must be brought up to
//! date without redoing the full precomputation on every edit.
//! [`DynamicSimRank`] keeps a graph, the top-k operator of the same
//! [`LocalPush`] run training uses, and that run's frontier log, and offers
//! two ways forward after edits:
//!
//! * **Repair** ([`DynamicSimRank::repair`]) — exact and incremental. Edits
//!   are applied to the graph a batch at a time (one graph rebuild per
//!   batch); the endpoints whose adjacency really changed are the dirtiness
//!   source. A repair replays the push rounds over only the rows those
//!   edits reach (the rule is in the `incremental` module docs) and splices
//!   in exactly the rows whose bits changed, so the operator stays bitwise
//!   what [`LocalPush::run_to_operator`] builds on the edited graph — the
//!   operator a model trains against.
//! * **Lazy refresh** ([`DynamicSimRank::operator`]) — the strategy the
//!   paper sketches: queries keep reading the held, slightly stale operator
//!   until the edits since the last refresh or repair exceed a staleness
//!   budget, then recompute everything. Between recomputations the
//!   maintainer tracks which nodes are *affected* (endpoints of edited
//!   edges plus their neighbours — the only rows whose first-order SimRank
//!   terms can change), so callers can bound how stale a particular query
//!   is.

use crate::incremental::FrontierLog;
use crate::localpush::{csr_of, LocalPush, DEFAULT_MAX_PUSHES};
use crate::{Result, SimRankConfig, SimRankError};
use sigma_graph::Graph;
use sigma_matrix::CsrMatrix;
use sigma_obs::{StaticCounter, StaticHistogram, Stopwatch};
use std::mem::{size_of, size_of_val};

// One repair laps a single `sigma_obs::Stopwatch` through these three, so
// the stage samples of a repair add up to its duration.
pub(crate) static REPAIR_DIRTY_SCAN_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_dirty_scan_ns",
    "repair stage 1: solver set-up and the rows the edits dirty from round 1",
);
pub(crate) static REPAIR_REPLAY_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_replay_ns",
    "repair stage 2: the push rounds, each replayed row finished and top-k selected as it is pulled",
);
static REPAIR_DIFF_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_diff_ns",
    "repair stage 3: the replayed rows diffed against the operator and the changed ones spliced in",
);
static REPAIR_ROWS: StaticCounter = StaticCounter::new(
    "sigma_simrank_repair_rows_total",
    "score rows re-pulled by incremental repairs",
);

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
    /// Operator rows whose bits changed (sorted) — exactly those: every
    /// other row is bitwise what it was before the repair.
    pub changed_rows: Vec<usize>,
    /// Nodes whose adjacency actually changed since the last refresh or
    /// repair (sorted) — the rows of `A` (and hence of the serving-side
    /// embedding `H`) a consumer must recompute.
    pub edited_nodes: Vec<usize>,
    /// Score rows the replay re-pulled (a superset of `changed_rows`).
    pub dirty_seeds: usize,
    /// Pairs the re-pulled rows pushed, their diagonal pairs included.
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

/// How [`DynamicSimRank::repair`] brought the operator up to date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairOutcome {
    /// A full recomputation ran — no operator existed yet, or the push
    /// budget cut a round, which no replay reproduces; every row may have
    /// changed.
    FullRefresh,
    /// Only the reported rows changed; the result is bitwise identical to
    /// what a full refresh would have produced.
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
    /// neighbours at edit time), sorted and duplicate-free.
    affected: Vec<u32>,
    /// Endpoints whose adjacency actually changed since the last refresh or
    /// repair — the dirtiness source for incremental repair. Sorted and
    /// duplicate-free.
    edited: Vec<u32>,
    /// The top-k operator of the last refresh, row-patched by `repair`
    /// (`None` until first computed).
    operator: Option<CsrMatrix>,
    /// The frontier log of the run behind `operator`.
    frontier_log: FrontierLog,
    /// The solver's push budget.
    max_pushes: usize,
    /// Number of full recomputations performed so far.
    refreshes: usize,
    /// Number of incremental repairs performed so far.
    repairs: usize,
}

/// Whether row `i` of `a` and row `j` of `b` hold the same entries, bit for
/// bit (scores are positive and finite, so `==` compares bits).
fn same_row(a: &CsrMatrix, i: usize, b: &CsrMatrix, j: usize) -> bool {
    a.row_iter(i).eq(b.row_iter(j))
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
            affected: Vec::new(),
            edited: Vec::new(),
            operator: None,
            frontier_log: FrontierLog::default(),
            max_pushes: DEFAULT_MAX_PUSHES,
            refreshes: 0,
            repairs: 0,
        })
    }

    /// Caps the solver's pushes (see [`LocalPush::with_max_pushes`]).
    #[cfg(test)]
    fn with_max_pushes(mut self, max_pushes: usize) -> Self {
        self.max_pushes = max_pushes;
        self
    }

    /// A solver over the current graph.
    fn solver(&self) -> Result<LocalPush> {
        Ok(LocalPush::new(&self.graph, self.config)?.with_max_pushes(self.max_pushes))
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

    /// Heap bytes the maintainer holds: the graph, the operator, the
    /// frontier log and the edit sets.
    pub fn resident_bytes(&self) -> usize {
        let graph = size_of_val(self.graph.indptr()) + size_of_val(self.graph.indices());
        let operator = self.operator.as_ref().map_or(0, |operator| {
            size_of_val(operator.indptr())
                + size_of_val(operator.indices())
                + size_of_val(operator.values())
        });
        let edits = (self.affected.capacity() + self.edited.capacity()) * size_of::<u32>();
        graph + operator + self.frontier_log.heap_bytes() + edits
    }

    /// Nodes whose score rows may be stale: endpoints of edits since the
    /// last refresh/repair plus their neighbourhoods at edit time.
    ///
    /// Contract (pinned by a unit test): the result is sorted ascending and
    /// duplicate-free, even when several edits overlap or both endpoints of
    /// an edit share neighbours.
    pub fn affected_nodes(&self) -> Vec<usize> {
        self.affected.iter().map(|&v| v as usize).collect()
    }

    /// Nodes whose adjacency actually changed since the last refresh or
    /// repair, sorted ascending. Unlike [`DynamicSimRank::affected_nodes`]
    /// this excludes no-op edits (duplicate inserts, missing deletes) and
    /// untouched neighbours — it is the exact dirtiness source incremental
    /// repair works from.
    pub fn edited_nodes(&self) -> Vec<usize> {
        self.edited.iter().map(|&v| v as usize).collect()
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
        // Presence of every edge this batch changed, keyed `(min, max)` and
        // sorted by it; edges not listed are as `self.graph` has them.
        let mut overlay: Vec<((usize, usize), bool)> = Vec::new();
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
            let slot = overlay.binary_search_by_key(&edge, |&(edge, _)| edge);
            let present = slot.map_or_else(|_| self.graph.has_edge(u, v), |i| overlay[i].1);
            if u == v || present == insert {
                continue;
            }
            match slot {
                Ok(i) => overlay[i].1 = insert,
                Err(i) => overlay.insert(i, (edge, insert)),
            }
            // Mark the endpoints and their neighbourhoods stale. The
            // batch-start neighbourhood is enough: a neighbour gained or
            // lost earlier in the batch was an endpoint then, so it is
            // already marked.
            for endpoint in [u, v] {
                self.affected.push(endpoint as u32);
                self.edited.push(endpoint as u32);
                self.affected.extend(self.graph.neighbors(endpoint));
            }
            self.pending_edits += 1;
        }
        for nodes in [&mut self.affected, &mut self.edited] {
            nodes.sort_unstable();
            nodes.dedup();
        }
        if !overlay.is_empty() {
            let listed = |edge: &_| {
                overlay
                    .binary_search_by_key(edge, |&(edge, _)| edge)
                    .is_ok()
            };
            let kept = self.graph.edges().filter(|edge| !listed(edge));
            let added = overlay.iter().filter(|&&(_, present)| present);
            let edges: Vec<(usize, usize)> = kept.chain(added.map(|&(edge, _)| edge)).collect();
            self.graph = Graph::from_edges(n, &edges)?;
        }
        outcome
    }

    /// Whether the operator is stale enough that the next operator query
    /// will trigger a recomputation.
    pub fn needs_refresh(&self) -> bool {
        self.operator.is_none() || self.pending_edits > self.staleness_budget
    }

    /// Forces an immediate full recomputation regardless of the staleness
    /// budget: [`LocalPush::run_to_operator`], which never builds the score
    /// matrix, keeping its frontier log so the result is incrementally
    /// repairable by [`DynamicSimRank::repair`].
    pub fn refresh(&mut self) -> Result<()> {
        let (rows, frontier_log) = self.solver()?.fresh_run(self.config.top_k);
        self.operator = Some(csr_of(self.graph.num_nodes(), &rows));
        self.frontier_log = frontier_log;
        self.pending_edits = 0;
        self.affected.clear();
        self.edited.clear();
        self.refreshes += 1;
        Ok(())
    }

    /// Incrementally brings the operator up to date with the current graph,
    /// replaying the push rounds over only the rows the edits since the last
    /// refresh/repair reach, and splicing in the rows whose bits changed.
    ///
    /// The patched operator is **bitwise identical** to
    /// [`LocalPush::run_to_operator`] on the current graph — the
    /// differential harness in `sigma-testutil` holds this to random edit
    /// traces — while the work scales with the edited region instead of the
    /// whole graph. Falls back to a full refresh when nothing has been
    /// computed yet, or when the push budget cuts a round of the run before
    /// or after the edits.
    pub fn repair(&mut self) -> Result<RepairOutcome> {
        let Some(operator) = &self.operator else {
            self.refresh()?;
            return Ok(RepairOutcome::FullRefresh);
        };
        if self.edited.is_empty() {
            self.pending_edits = 0;
            self.affected.clear();
            return Ok(RepairOutcome::Patched(ScoreRepair::empty()));
        }
        let mut clock = Stopwatch::start();
        let mut solver = self.solver()?;
        let Some(replay) = solver.replay(&self.frontier_log, &self.edited, &mut clock) else {
            self.refresh()?;
            return Ok(RepairOutcome::FullRefresh);
        };
        let (changed, changed_rows): (Vec<usize>, Vec<usize>) = (replay.rows.iter().enumerate())
            .filter(|&(i, &row)| !same_row(operator, row, &replay.operator_rows, i))
            .map(|(i, &row)| (i, row))
            .unzip();
        if !changed.is_empty() {
            let patch = replay.operator_rows.gather_rows(&changed)?;
            self.operator = Some(operator.replace_rows(&changed_rows, &patch)?);
        }
        REPAIR_DIFF_NS.record(clock.lap());
        REPAIR_ROWS.add(replay.rows.len() as u64);
        self.frontier_log = replay.log;
        let edited_nodes = self.edited_nodes();
        self.pending_edits = 0;
        self.affected.clear();
        self.edited.clear();
        self.repairs += 1;
        Ok(RepairOutcome::Patched(ScoreRepair {
            changed_rows,
            edited_nodes,
            dirty_seeds: replay.rows.len(),
            pushes: solver.pushes_performed(),
        }))
    }

    /// The current top-k aggregation operator, refreshed first if the
    /// staleness budget is exhausted or nothing has been computed yet. It is
    /// held and row-patched by [`DynamicSimRank::repair`], so repeated
    /// queries between edits are cheap.
    pub fn operator(&mut self) -> Result<CsrMatrix> {
        if self.needs_refresh() {
            self.refresh()?;
        }
        Ok(self.held_operator().clone())
    }

    /// The held operator; callers refresh first.
    fn held_operator(&self) -> &CsrMatrix {
        self.operator.as_ref().expect("callers refresh first")
    }

    /// The top-k operator rows for the listed rows as a `rows.len() × n`
    /// CSR patch against the *current* operator — the row payload consumers
    /// splice in with `CsrMatrix::replace_rows` after a
    /// [`DynamicSimRank::repair`]. The rows are gathered from the held
    /// operator, which `repair` has already brought up to date, so a patch
    /// is top-k-selected once however many consumers ask for it.
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
        if self.operator.is_none() {
            self.refresh()?;
        }
        Ok(self.held_operator().gather_rows(rows)?)
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
        let _ = dyn_sim.operator().unwrap();
        assert_eq!(dyn_sim.refreshes(), 1);
        // Two edits stay within the budget: no recomputation on query.
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        dyn_sim.apply(EdgeUpdate::Insert(1, 7)).unwrap();
        let _ = dyn_sim.operator().unwrap();
        assert_eq!(dyn_sim.refreshes(), 1);
        // A third edit exceeds it: the next query recomputes.
        dyn_sim.apply(EdgeUpdate::Insert(2, 8)).unwrap();
        let _ = dyn_sim.operator().unwrap();
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
        let before = dyn_sim.operator().unwrap().get(0, 5);
        assert!(before < 1e-6);
        // Adding the chord (0, 6) gives nodes 0 and 5 the shared neighbour 6.
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        let after = dyn_sim.operator().unwrap().get(0, 5);
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

    #[test]
    fn repair_is_bitwise_identical_to_refresh() {
        let mut incremental = maintainer(100);
        let before = incremental.operator().unwrap();
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
        assert!(repair.dirty_seeds >= repair.changed_rows.len());
        assert_eq!(incremental.repairs(), 1);
        assert_eq!(incremental.pending_edits(), 0);

        // A maintainer that takes the full-refresh road instead, and the
        // operator training builds on the edited graph.
        let mut full = maintainer(100);
        full.apply_batch(&updates).unwrap();
        full.refresh().unwrap();
        let repaired = incremental.operator().unwrap();
        assert_eq!(repaired, full.operator().unwrap());
        let config = SimRankConfig::default().with_top_k(4);
        let mut coupled = LocalPush::new(incremental.graph(), config).unwrap();
        assert_eq!(repaired, coupled.run_to_operator());
        // The patch is exactly the rows whose bits changed.
        let changed = (0..12).filter(|&u| !before.row_iter(u).eq(repaired.row_iter(u)));
        assert!(changed.eq(repair.changed_rows.iter().copied()));
    }

    #[test]
    fn delete_then_readd_repairs_back_to_the_original_state() {
        let mut dyn_sim = maintainer(100);
        let original = dyn_sim.operator().unwrap();
        dyn_sim.apply(EdgeUpdate::Delete(0, 1)).unwrap();
        dyn_sim.apply(EdgeUpdate::Insert(0, 1)).unwrap();
        let outcome = dyn_sim.repair().unwrap();
        match outcome {
            // The net topology is unchanged, so the replayed rows land on
            // identical values and no operator row changes.
            RepairOutcome::Patched(repair) => {
                assert_eq!(repair.edited_nodes, vec![0, 1]);
                assert!(repair.dirty_seeds > 0);
                assert!(repair.changed_rows.is_empty());
            }
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
    fn a_run_the_budget_cuts_is_refreshed_not_replayed() {
        // A 40-node ring with a chord every fifth node at ε = 0.005: pairs
        // cross the threshold for several rounds, and the chord (3, 22)
        // adds pushes, so a budget of the run without it cuts the run with
        // it.
        let mut edges: Vec<(usize, usize)> = (0..40).map(|u| (u, (u + 1) % 40)).collect();
        edges.extend((0..40).step_by(5).map(|u| (u, (u + 13) % 40)));
        let config = SimRankConfig::new(0.6, 0.005, Some(4)).unwrap();
        let without = Graph::from_edges(40, &edges).unwrap();
        edges.push((3, 22));
        let with = Graph::from_edges(40, &edges).unwrap();
        let pushes = |graph: &Graph| {
            let mut solver = LocalPush::new(graph, config).unwrap();
            let _ = solver.run();
            solver.pushes_performed()
        };
        let budget = pushes(&without);
        assert!(pushes(&with) > budget);
        // Cut after the edit; before it; neither.
        for (graph, edit, budget, cut) in [
            (&without, EdgeUpdate::Insert(3, 22), budget, true),
            (&with, EdgeUpdate::Delete(3, 22), budget, true),
            (&with, EdgeUpdate::Delete(3, 22), usize::MAX, false),
        ] {
            for threads in [1, 4] {
                sigma_testutil::at_pool_width(threads, || {
                    let mut dyn_sim = DynamicSimRank::new(graph.clone(), config, usize::MAX)
                        .unwrap()
                        .with_max_pushes(budget);
                    let _ = dyn_sim.operator().unwrap();
                    dyn_sim.apply(edit).unwrap();
                    let outcome = dyn_sim.repair().unwrap();
                    let what = format!("{edit:?}, budget {budget}, {threads} threads");
                    assert_eq!(outcome == RepairOutcome::FullRefresh, cut, "{what}");
                    let reference = LocalPush::new(dyn_sim.graph(), config)
                        .unwrap()
                        .with_max_pushes(budget)
                        .run_to_operator();
                    assert_eq!(dyn_sim.operator().unwrap(), reference, "{what}");
                });
            }
        }
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
