//! LocalPush approximation of the SimRank matrix (paper Algorithm 1).
//!
//! The push process maintains an estimate `Ŝ` and a residual `R`, initialised
//! to `Ŝ = 0`, `R = I`. While some residual exceeds `(1−c)·ε` it is absorbed
//! into `Ŝ` and propagated to the pairs whose SimRank recursion references
//! it:
//!
//! ```text
//! Ŝ(a, b) += R(a, b)
//! for x ∈ N_a, y ∈ N_b, x ≠ y:
//!     R(x, y) += c · R(a, b) / (|N_x| · |N_y|)
//! R(a, b) = 0
//! ```
//!
//! Diagonal pairs never receive pushes (the exact recursion pins
//! `S(u, u) = 1`), which keeps the approximation consistent with
//! [`crate::exact_simrank`]. Lemma III.5 (Wang et al., ICDE'18) bounds the
//! total work by `O(d² / (c (1−c)² ε))` and the error by
//! `‖Ŝ − S‖_max < ε`.
//!
//! Two adaptations keep the operator useful on dense graphs (documented in
//! DESIGN.md §2):
//!
//! 1. **Residual sweep.** After the push loop, all remaining sub-threshold
//!    residual mass is absorbed into `Ŝ`. On graphs with average degree `d̄`,
//!    every off-diagonal SimRank score is only `Θ(c/d̄²)`, so with `ε = 0.1` a
//!    literal reading of Algorithm 1 would return the identity matrix and
//!    SIGMA's aggregation would degenerate. The sweep records the first-order
//!    (common-neighbour) terms at no extra asymptotic cost and can only
//!    *reduce* the approximation error, so Lemma III.5 still holds.
//! 2. **Relative pruning.** Algorithm 1 prunes entries below `ε / 10`; on
//!    dense graphs that absolute floor would again erase every off-diagonal
//!    entry, so pruning is done relative to each row's largest off-diagonal
//!    score instead.
//!
//! Finally the scores can be materialised as a row-wise top-k
//! [`CsrMatrix`] — the constant aggregation operator SIGMA trains with.
//!
//! ## Parallel execution
//!
//! The push process is scheduled in *rounds*: every pair whose residual
//! exceeds the threshold forms the round's frontier, the frontier is cut
//! into fixed-size chunks, and each chunk is pushed independently on the
//! shared [`sigma_parallel::ThreadPool`] with a chunk-local residual-delta
//! buffer. The buffers are merged into the global residual in chunk order.
//! Because the chunk boundaries and the merge order depend only on the
//! frontier — never on the thread count — the resulting scores are **bitwise
//! identical** for every `SIGMA_NUM_THREADS` setting (enforced by
//! `crates/simrank/tests/parallel_parity.rs`). Any round schedule is a valid
//! LocalPush schedule, so Lemma III.5's work and `‖Ŝ − S‖_max < ε` error
//! bounds carry over unchanged.

use crate::fxhash::{pair_key, FxHashMap};
use crate::incremental::{DecomposedScores, RepairReport, SeedRun};
use crate::{Result, SimRankConfig};
use sigma_graph::Graph;
use sigma_matrix::{kernels, CsrMatrix};
use sigma_obs::StaticCounter;
use sigma_parallel::{ScratchGuard, ScratchPool, ThreadPool};

static LOCALPUSH_RUNS: StaticCounter = StaticCounter::new(
    "sigma_localpush_runs_total",
    "LocalPush solver runs (full solves and incremental seed re-runs)",
);
static LOCALPUSH_ROUNDS: StaticCounter = StaticCounter::new(
    "sigma_localpush_rounds_total",
    "frontier rounds executed across all LocalPush runs",
);
static LOCALPUSH_PUSHES: StaticCounter = StaticCounter::new(
    "sigma_localpush_pushes_total",
    "residual pushes performed across all LocalPush runs",
);

/// Sparse, symmetric similarity scores produced by [`LocalPush`].
#[derive(Debug, Clone)]
pub struct SparseScores {
    num_nodes: usize,
    /// Per-row score maps: `rows[u][v] = Ŝ(u, v)`.
    rows: Vec<FxHashMap<u32, f32>>,
}

/// Fraction of a row's largest off-diagonal score below which entries are
/// pruned (the density-robust counterpart of Algorithm 1's `ε/10` floor).
/// Shared by the coupled run, the seed-decomposed run, and incremental
/// repair so every path prunes identically.
pub(crate) const RELATIVE_PRUNE_FRACTION: f32 = 0.01;

impl SparseScores {
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            rows: vec![FxHashMap::default(); num_nodes],
        }
    }

    /// Number of nodes (matrix dimension).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Approximate SimRank score `Ŝ(u, v)` (0.0 if not stored).
    pub fn get(&self, u: usize, v: usize) -> f32 {
        self.rows
            .get(u)
            .and_then(|r| r.get(&(v as u32)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(FxHashMap::len).sum()
    }

    /// Iterator over the stored entries of one row.
    pub fn row(&self, u: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.rows[u].iter().map(|(&v, &s)| (v as usize, s))
    }

    /// Drops entries strictly below `threshold` (Algorithm 1 pruning step).
    pub fn prune(&mut self, threshold: f32) {
        for row in &mut self.rows {
            row.retain(|_, v| *v >= threshold);
        }
    }

    /// Drops off-diagonal entries smaller than `fraction` of their row's
    /// largest off-diagonal score. Diagonal entries are always kept. This is
    /// the density-robust counterpart of Algorithm 1's absolute `ε/10` floor.
    pub fn prune_relative(&mut self, fraction: f32) {
        for u in 0..self.num_nodes {
            Self::prune_row_relative(u, &mut self.rows[u], fraction);
        }
    }

    /// Applies the relative pruning rule to the listed rows only (the
    /// incremental-repair path, where untouched rows are already pruned).
    pub(crate) fn prune_rows_relative(&mut self, rows: &[usize], fraction: f32) {
        for &u in rows {
            Self::prune_row_relative(u, &mut self.rows[u], fraction);
        }
    }

    /// Per-row body of [`SparseScores::prune_relative`]. Every aggregate it
    /// computes (the max, the retain predicate) is order-independent, so the
    /// outcome is a pure function of the row's contents.
    fn prune_row_relative(u: usize, row: &mut FxHashMap<u32, f32>, fraction: f32) {
        let row_max = row
            .iter()
            .filter(|(&v, _)| v as usize != u)
            .map(|(_, &s)| s)
            .fold(0.0f32, f32::max);
        if row_max <= 0.0 {
            return;
        }
        let floor = fraction * row_max;
        row.retain(|&v, s| v as usize == u || *s >= floor);
    }

    /// Materialises the scores as a CSR operator, optionally keeping only the
    /// `k` largest entries per row. This is SIGMA's aggregation matrix `S`.
    ///
    /// Rows are materialised in parallel over disjoint row ranges on the
    /// shared [`sigma_parallel::ThreadPool`] and concatenated in range order;
    /// top-k ties break towards the smaller column index. Both make the
    /// operator a pure function of the scores — independent of thread count
    /// and of hash-map iteration order — which is what lets incremental
    /// repair patch individual rows bitwise-identically to a full rebuild.
    pub fn to_csr(&self, top_k: Option<usize>) -> CsrMatrix {
        let rows: Vec<usize> = (0..self.num_nodes).collect();
        self.rows_to_csr(&rows, top_k)
    }

    /// Materialises the selected score rows as a `rows.len() × n` CSR slice
    /// (the `i`-th output row is score row `rows[i]`, top-k pruned exactly
    /// like [`SparseScores::to_csr`]). This is the patch-building primitive
    /// of incremental repair: combined with
    /// [`CsrMatrix::replace_rows`] it re-materialises only the
    /// rows an edit actually changed.
    ///
    /// # Panics
    /// Panics if any selected row is out of bounds.
    pub fn rows_to_csr(&self, rows: &[usize], top_k: Option<usize>) -> CsrMatrix {
        // Per-row stored-entry counts: dispatch estimate and the
        // nnz-balanced planner's weights in one pass (score rows are
        // heavily skewed on hub-dominated graphs).
        let weights: Vec<usize> = rows.iter().map(|&u| self.rows[u].len()).collect();
        let work: usize = weights.iter().sum();
        let pool = ThreadPool::global();
        let parts = if rows.len() > 1 && pool.should_parallelize(work) {
            pool.par_map_ranges_weighted(&weights, |range| {
                self.materialise_rows(&rows[range], top_k)
            })
        } else {
            vec![self.materialise_rows(rows, top_k)]
        };
        let (indptr, indices, values) = sigma_matrix::concat_row_parts(rows.len(), parts);
        CsrMatrix::from_raw(rows.len(), self.num_nodes, indptr, indices, values)
            .expect("scores produce a valid CSR layout")
    }

    /// Materialises one batch of rows; concatenated in range order by
    /// [`SparseScores::rows_to_csr`].
    fn materialise_rows(
        &self,
        rows: &[usize],
        top_k: Option<usize>,
    ) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let mut row_nnz = Vec::with_capacity(rows.len());
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut row_buf: Vec<(u32, f32)> = Vec::new();
        for &u in rows {
            row_buf.clear();
            row_buf.extend(self.rows[u].iter().map(|(&v, &s)| (v, s)));
            if let Some(k) = top_k {
                if row_buf.len() > k {
                    // Canonical selection: score descending, column ascending
                    // on ties — a total order, so the kept set does not
                    // depend on the (hash-map) traversal order above.
                    row_buf.sort_unstable_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    row_buf.truncate(k);
                }
            }
            row_buf.sort_unstable_by_key(|&(v, _)| v);
            for &(v, s) in &row_buf {
                indices.push(v);
                values.push(s);
            }
            row_nnz.push(indices.len());
        }
        (row_nnz, indices, values)
    }

    fn add(&mut self, u: u32, v: u32, value: f32) {
        *self.rows[u as usize].entry(v).or_insert(0.0) += value;
    }

    /// Replaces row `u` wholesale (the incremental-repair patch path).
    pub(crate) fn set_row(&mut self, u: usize, row: FxHashMap<u32, f32>) {
        self.rows[u] = row;
    }

    /// The largest stored score in row `u` (0.0 for an empty row), used by
    /// the adaptive pruning heuristics and tests.
    pub fn row_max(&self, u: usize) -> f32 {
        self.rows
            .get(u)
            .map(|r| r.values().copied().fold(0.0f32, f32::max))
            .unwrap_or(0.0)
    }
}

/// Frontier pairs per parallel work unit. The chunk boundaries are a pure
/// function of the frontier (never of the thread count), which is what makes
/// the parallel schedule bitwise deterministic; the value trades dispatch
/// overhead against load balance.
const PUSH_CHUNK: usize = 128;

/// One chunk's working set, recycled across push rounds through the scratch
/// pool: the absorbed-pair list and residual-delta map that used to be
/// allocated per chunk per round, plus the gather/product buffers of the
/// axpy-style push update. Site invariant: buffers return to the pool with
/// `absorbed` empty and `delta` drained (capacity — including the hash
/// map's table — survives the round trip).
#[derive(Default)]
struct ChunkScratch {
    /// Pairs whose residual was absorbed, in chunk order.
    absorbed: Vec<(u64, f32)>,
    /// Residual deltas generated by this chunk's pushes.
    delta: FxHashMap<u64, f32>,
    /// `1 / deg(y)` for each neighbour `y` of the pair's `b` endpoint,
    /// gathered once per pair instead of once per `(x, y)` combination.
    inv_nb: Vec<f32>,
    /// `scale_x · inv_nb[j]` for the current `x` — one SIMD-width
    /// [`kernels::scale`] per neighbour row, consumed by the scatter below.
    products: Vec<f32>,
}

/// Free list of [`ChunkScratch`] buffers shared by all push rounds (and, on
/// the global pool, by concurrent solvers — the buffers are pure scratch,
/// so sharing is safe). Retention is bounded twice: at most 32 buffers
/// (a round can return one guard per frontier chunk, far more than ever
/// run concurrently), and oversized delta tables are dropped rather than
/// returned (see [`DELTA_RETAIN_CAP`]) so one hub-heavy refresh cannot pin
/// huge hash tables in this process-lifetime static.
static PUSH_SCRATCH: ScratchPool<ChunkScratch> = ScratchPool::with_max_retained(32);

/// Delta maps whose table grew beyond this many entries are not returned to
/// [`PUSH_SCRATCH`]: a single hub pair can fan out to millions of keys, and
/// retaining such tables after the run would hold tens of megabytes of dead
/// capacity for the life of the process.
const DELTA_RETAIN_CAP: usize = 1 << 18;

/// Pushes one frontier chunk against the round's immutable residual map.
///
/// All mutation is confined to the returned scratch buffers, so chunks run
/// in parallel; [`LocalPush::run`] merges them in chunk order and the drop
/// of each guard recycles its buffers for the next round.
///
/// The inner update is restructured as a gather + [`kernels::scale`] (the
/// axpy-style row update shared with the spmm family) followed by a scatter
/// into the delta map: per element it computes exactly the historical
/// `scale_x · inv_deg[y]` product, so the scores are bit-identical to the
/// nested-loop formulation.
fn push_chunk(
    graph: &Graph,
    inv_deg: &[f32],
    residual: &FxHashMap<u64, f32>,
    chunk: &[u64],
    c: f32,
    threshold: f32,
) -> ScratchGuard<'static, ChunkScratch> {
    let mut scratch = PUSH_SCRATCH.take_or_else(ChunkScratch::default);
    debug_assert!(scratch.absorbed.is_empty(), "pooled absorb list dirty");
    debug_assert!(scratch.delta.is_empty(), "pooled delta map dirty");
    let ChunkScratch {
        absorbed,
        delta,
        inv_nb,
        products,
    } = &mut *scratch;
    for &key in chunk {
        let r = match residual.get(&key) {
            Some(&r) if r > threshold => r,
            _ => continue,
        };
        absorbed.push((key, r));
        let (a, b) = crate::fxhash::unpack_pair(key);
        let nbrs_b = graph.neighbors(b as usize);
        // Hoist the `1/deg(y)` gather out of the x-loop: one random-access
        // pass per pair instead of one per (x, y) combination.
        inv_nb.clear();
        inv_nb.extend(nbrs_b.iter().map(|&y| inv_deg[y as usize]));
        products.resize(inv_nb.len(), 0.0);
        let push_base = c * r;
        for &x in graph.neighbors(a as usize) {
            let scale_x = push_base * inv_deg[x as usize];
            kernels::scale(products, scale_x, inv_nb);
            for (&y, &p) in nbrs_b.iter().zip(products.iter()) {
                if x == y {
                    // Diagonal pairs are pinned to 1 in the exact recursion
                    // and never accumulate residual.
                    continue;
                }
                *delta.entry(pair_key(x, y)).or_insert(0.0) += p;
            }
        }
    }
    scratch
}

/// The LocalPush solver (paper Algorithm 1).
#[derive(Debug)]
pub struct LocalPush {
    config: SimRankConfig,
    graph: Graph,
    /// Safety valve on the total number of pushes; the theoretical bound is
    /// far below this for the configurations used in the reproduction.
    max_pushes: usize,
    pushes_performed: usize,
}

impl LocalPush {
    /// Creates a solver for `graph` with the given configuration.
    pub fn new(graph: &Graph, config: SimRankConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            graph: graph.clone(),
            max_pushes: 100_000_000,
            pushes_performed: 0,
        })
    }

    /// Overrides the safety cap on the number of pushes.
    pub fn with_max_pushes(mut self, max_pushes: usize) -> Self {
        self.max_pushes = max_pushes;
        self
    }

    /// Number of pushes performed by the last [`LocalPush::run`] call.
    pub fn pushes_performed(&self) -> usize {
        self.pushes_performed
    }

    /// Runs the push process and returns the pruned approximate scores.
    ///
    /// The push threshold is the paper's `(1−c)·ε`, so the Lemma III.5 work
    /// bound `O(d²/(c(1−c)²ε))` applies unchanged. Pushes are executed in
    /// deterministic frontier rounds chunked across the shared thread pool
    /// (see the module docs); results are bitwise identical for every thread
    /// count. After the push loop all remaining sub-threshold residual mass
    /// is swept into `Ŝ`, which keeps the top-k structure resolvable on
    /// dense graphs while only reducing the approximation error.
    pub fn run(&mut self) -> SparseScores {
        let n = self.graph.num_nodes();
        let c = self.config.decay as f32;
        let threshold = ((1.0 - self.config.decay) * self.config.epsilon) as f32;
        let mut scores = SparseScores::new(n);
        // Inverse degrees are read `deg(a)·deg(b)` times per push; cache them
        // once instead of re-deriving them from the CSR offsets in the loop.
        let inv_deg: Vec<f32> = (0..n)
            .map(|v| {
                let d = self.graph.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f32
                }
            })
            .collect();
        // Residuals keyed by the packed pair id. The Fx hash keeps the probe
        // cost to a couple of ALU operations, which dominates the push loop
        // on dense graphs.
        let mut residual: FxHashMap<u64, f32> = FxHashMap::default();
        residual.reserve(n * 4);
        let mut frontier: Vec<u64> = (0..n as u32).map(|u| pair_key(u, u)).collect();
        for &key in &frontier {
            residual.insert(key, 1.0);
        }
        self.pushes_performed = 0;
        LOCALPUSH_RUNS.inc();
        let _span = sigma_obs::span!("localpush_run", n);
        let pool = ThreadPool::global();

        while !frontier.is_empty() {
            LOCALPUSH_ROUNDS.inc();
            let remaining = self.max_pushes.saturating_sub(self.pushes_performed);
            if remaining == 0 {
                break;
            }
            if frontier.len() > remaining {
                // Budget safety valve: process a deterministic prefix, then
                // stop (the sweep below absorbs what is left, exactly like
                // the unbounded run absorbs sub-threshold residuals).
                frontier.truncate(remaining);
            }
            // Push every frontier chunk in parallel against the *immutable*
            // residual map; all writes land in chunk-local buffers.
            let graph = &self.graph;
            let residual_ref = &residual;
            let inv_deg_ref = &inv_deg;
            let outputs = pool.par_map_chunks(&frontier, PUSH_CHUNK, |_, chunk| {
                push_chunk(graph, inv_deg_ref, residual_ref, chunk, c, threshold)
            });
            // Merge pass 1 (chunk order = frontier order): absorb pushed mass
            // into Ŝ and zero the pushed residuals, before any deltas land.
            let mut frontier_len_processed = 0usize;
            for out in &outputs {
                for &(key, r) in &out.absorbed {
                    let (a, b) = crate::fxhash::unpack_pair(key);
                    scores.add(a, b, r);
                    residual.insert(key, 0.0);
                }
                frontier_len_processed += out.absorbed.len();
            }
            self.pushes_performed += frontier_len_processed;
            LOCALPUSH_PUSHES.add(frontier_len_processed as u64);
            // Merge pass 2 (chunk order): apply residual deltas. Distinct
            // keys touch independent accumulators and same-key contributions
            // are applied in chunk order, so the merged residual is
            // independent of how chunks were scheduled across threads.
            // Draining (rather than consuming) the maps lets each guard
            // return its buffers to the scratch pool for the next round.
            let mut candidates: Vec<u64> = Vec::new();
            for mut out in outputs {
                for (key, delta) in out.delta.drain() {
                    *residual.entry(key).or_insert(0.0) += delta;
                    candidates.push(key);
                }
                out.absorbed.clear();
                if out.delta.capacity() > DELTA_RETAIN_CAP {
                    // Detach instead of pooling: a hub fan-out grew this
                    // table too large to keep alive past the run.
                    drop(out.into_inner());
                }
            }
            // Next frontier: every touched pair now above the threshold, in
            // canonical (sorted, deduplicated) order.
            candidates.sort_unstable();
            candidates.dedup();
            candidates.retain(|key| residual.get(key).copied().unwrap_or(0.0) > threshold);
            frontier = candidates;
        }
        // Residual sweep: absorb all remaining sub-threshold mass so dense
        // graphs keep their (small but informative) first-order scores.
        for (&key, &r) in residual.iter() {
            if r > 0.0 {
                let (a, b) = crate::fxhash::unpack_pair(key);
                scores.add(a, b, r);
            }
        }
        // Pruning: drop entries that are trivial relative to their row.
        scores.prune_relative(RELATIVE_PRUNE_FRACTION);
        scores
    }

    /// Convenience: runs the solver and materialises the top-k CSR operator
    /// configured in [`SimRankConfig::top_k`].
    pub fn run_to_operator(&mut self) -> CsrMatrix {
        let scores = self.run();
        scores.to_csr(self.config.top_k)
    }

    /// Runs the push process in *seed-decomposed* form: one independent,
    /// fully serial push per seed pair `(w, w)`, scheduled across the shared
    /// pool with [`sigma_parallel::ThreadPool::par_map_weighted`] and merged
    /// in seed order.
    ///
    /// The decomposition records, per seed, its score contributions and the
    /// *footprint* of nodes whose adjacency or degree the push process read.
    /// An edge edit is invisible to every seed whose footprint avoids both
    /// endpoints, which is what makes [`LocalPush::repair`] exact: re-running
    /// only the dirty seeds reproduces the full recomputation bit for bit.
    /// See [`DecomposedScores`] for the maintenance API.
    ///
    /// Relative to [`LocalPush::run`] the push threshold is applied per seed
    /// rather than to the pooled residual, so slightly less mass propagates
    /// before the residual sweep absorbs it — the same Lemma III.5 work
    /// bound holds per seed, and the sweep keeps the error one-sided exactly
    /// as in the coupled run.
    pub fn run_decomposed(&mut self) -> DecomposedScores {
        let n = self.graph.num_nodes();
        let seeds: Vec<u32> = (0..n as u32).collect();
        let runs =
            crate::incremental::run_seeds(&self.graph, self.config, self.per_seed_budget(), &seeds);
        self.pushes_performed = runs.iter().map(SeedRun::pushes).sum();
        DecomposedScores::new(n, runs)
    }

    /// Incrementally repairs a decomposition after graph edits, re-pushing
    /// only from dirty seeds.
    ///
    /// `self` must be constructed over the *edited* graph (same node count
    /// and configuration as the run that produced `prior`), and `affected`
    /// must contain every node whose adjacency changed since `prior` was
    /// computed (supersets are allowed and merely repair more). Seeds whose
    /// recorded footprint avoids all affected nodes provably re-run to the
    /// identical result, so only the remaining seeds are re-pushed; the
    /// returned report lists the score rows whose assembled values may have
    /// changed. After the call `prior` matches what
    /// [`LocalPush::run_decomposed`] would produce from scratch on the edited
    /// graph, bit for bit.
    pub fn repair(
        &mut self,
        prior: &mut DecomposedScores,
        affected: &[usize],
    ) -> Result<RepairReport> {
        let n = self.graph.num_nodes();
        if prior.num_nodes() != n {
            return Err(crate::SimRankError::NodeOutOfBounds {
                node: prior.num_nodes(),
                num_nodes: n,
            });
        }
        for &node in affected {
            if node >= n {
                return Err(crate::SimRankError::NodeOutOfBounds { node, num_nodes: n });
            }
        }
        let dirty = prior.dirty_seeds(affected);
        let dirty_u32: Vec<u32> = dirty.iter().map(|&w| w as u32).collect();
        let new_runs = crate::incremental::run_seeds(
            &self.graph,
            self.config,
            self.per_seed_budget(),
            &dirty_u32,
        );
        self.pushes_performed = new_runs.iter().map(SeedRun::pushes).sum();
        let pushes = self.pushes_performed;
        let changed_rows = prior.replace_seed_runs(&dirty, new_runs);
        Ok(RepairReport {
            dirty_seeds: dirty,
            changed_rows,
            pushes,
        })
    }

    /// Push budget granted to each seed of the decomposed run — derived only
    /// from `max_pushes` and the node count, so a repair's re-pushed seeds
    /// are budgeted exactly like the full run's.
    fn per_seed_budget(&self) -> usize {
        self.max_pushes.div_ceil(self.graph.num_nodes().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_simrank;
    use sigma_graph::Graph;

    fn karate_like_graph() -> Graph {
        // A small graph with mixed degrees and a few communities.
        Graph::from_edges(
            12,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (6, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (9, 11),
                (0, 11),
            ],
        )
        .unwrap()
    }

    #[test]
    fn approximation_error_is_within_epsilon() {
        let g = karate_like_graph();
        let cfg = SimRankConfig::default();
        let exact = exact_simrank(&g, &cfg).unwrap();
        let approx = LocalPush::new(&g, cfg).unwrap().run();
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if u == v {
                    continue;
                }
                let err = (approx.get(u, v) - exact.get(u, v)).abs();
                assert!(
                    err < cfg.epsilon as f32 + 1e-4,
                    "error {err} at ({u},{v}): approx {} vs exact {}",
                    approx.get(u, v),
                    exact.get(u, v)
                );
            }
        }
    }

    #[test]
    fn tighter_epsilon_reduces_error() {
        let g = karate_like_graph();
        let exact = exact_simrank_long(&g);
        let loose = LocalPush::new(&g, SimRankConfig::new(0.6, 0.1, None).unwrap())
            .unwrap()
            .run();
        let tight = LocalPush::new(&g, SimRankConfig::new(0.6, 0.005, None).unwrap())
            .unwrap()
            .run();
        let max_err = |s: &SparseScores| {
            let mut m: f32 = 0.0;
            for u in 0..g.num_nodes() {
                for v in 0..g.num_nodes() {
                    if u != v {
                        m = m.max((s.get(u, v) - exact.get(u, v)).abs());
                    }
                }
            }
            m
        };
        assert!(max_err(&tight) <= max_err(&loose) + 1e-5);
        assert!(max_err(&tight) < 0.01);
    }

    fn exact_simrank_long(g: &Graph) -> sigma_matrix::DenseMatrix {
        crate::exact_simrank_iterations(g, 0.6, 40).unwrap()
    }

    #[test]
    fn diagonal_is_captured_exactly() {
        let g = karate_like_graph();
        let approx = LocalPush::new(&g, SimRankConfig::default()).unwrap().run();
        for u in 0..g.num_nodes() {
            assert!((approx.get(u, u) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn scores_are_symmetric_within_tolerance() {
        let g = karate_like_graph();
        let approx = LocalPush::new(&g, SimRankConfig::default()).unwrap().run();
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                // Each direction is within ε of the (symmetric) exact value,
                // so the asymmetry is bounded by 2ε.
                assert!((approx.get(u, v) - approx.get(v, u)).abs() < 0.2);
            }
        }
    }

    #[test]
    fn pruning_removes_small_entries() {
        let g = karate_like_graph();
        let cfg = SimRankConfig::default();
        let scores = LocalPush::new(&g, cfg).unwrap().run();
        // Off-diagonal entries trivially small relative to their row maximum
        // are pruned away; the diagonal is always kept.
        for u in 0..g.num_nodes() {
            let row_max = scores
                .row(u)
                .filter(|&(v, _)| v != u)
                .map(|(_, s)| s)
                .fold(0.0f32, f32::max);
            assert!((scores.get(u, u) - 1.0).abs() < 1e-6);
            for (v, s) in scores.row(u) {
                if v != u {
                    assert!(s >= 0.01 * row_max - 1e-9);
                }
            }
        }
    }

    #[test]
    fn dense_graphs_keep_first_order_structure() {
        // A dense-ish graph where every off-diagonal SimRank score sits below
        // the absolute (1−c)·ε push threshold: the residual sweep must still
        // record the first-order common-neighbour similarity so the top-k
        // operator does not collapse to the identity.
        let n = 40usize;
        let mut edges = Vec::new();
        for u in 0..n {
            for step in 1..=6usize {
                edges.push((u, (u + step) % n));
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        assert!(g.avg_degree() >= 10.0);
        let scores = LocalPush::new(&g, SimRankConfig::default()).unwrap().run();
        let off_diagonal: usize = (0..n)
            .map(|u| scores.row(u).filter(|&(v, _)| v != u).count())
            .sum();
        assert!(
            off_diagonal > n,
            "dense graph produced an (almost) diagonal operator: {off_diagonal} off-diagonal entries"
        );
        // Nodes two steps apart share many neighbours and must score higher
        // than far-apart nodes in the ring construction.
        assert!(scores.get(0, 2) > scores.get(0, 20));
    }

    #[test]
    fn top_k_operator_limits_row_width() {
        let g = karate_like_graph();
        let cfg = SimRankConfig::default().with_top_k(3);
        let op = LocalPush::new(&g, cfg).unwrap().run_to_operator();
        assert_eq!(op.shape(), (12, 12));
        for u in 0..12 {
            assert!(op.row_nnz(u) <= 3);
        }
    }

    #[test]
    fn push_count_is_reported_and_bounded_by_cap() {
        let g = karate_like_graph();
        let mut solver = LocalPush::new(&g, SimRankConfig::default())
            .unwrap()
            .with_max_pushes(5);
        let _ = solver.run();
        assert!(solver.pushes_performed() >= 1);
        assert!(solver.pushes_performed() <= 6);
    }

    #[test]
    fn isolated_nodes_keep_only_self_similarity() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let scores = LocalPush::new(&g, SimRankConfig::default()).unwrap().run();
        assert_eq!(scores.get(2, 2), 1.0);
        assert_eq!(scores.get(2, 3), 0.0);
        assert_eq!(scores.get(3, 0), 0.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(LocalPush::new(
            &g,
            SimRankConfig {
                decay: 1.2,
                epsilon: 0.1,
                top_k: None
            }
        )
        .is_err());
    }

    #[test]
    fn csr_materialisation_matches_scores() {
        let g = karate_like_graph();
        let scores = LocalPush::new(&g, SimRankConfig::default()).unwrap().run();
        let csr = scores.to_csr(None);
        assert_eq!(csr.nnz(), scores.nnz());
        for u in 0..g.num_nodes() {
            for (v, s) in scores.row(u) {
                assert!((csr.get(u, v) - s).abs() < 1e-6);
            }
        }
    }
}
