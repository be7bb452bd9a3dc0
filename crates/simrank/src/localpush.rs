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
//! Two adaptations keep the operator useful on dense graphs:
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
//! ## Parallel execution
//!
//! The push process runs in *rounds*: every pair whose residual exceeds the
//! threshold forms the round's frontier, and the round is a **row-wise
//! sparse product**. Each row `x` with a frontier row among its neighbours
//! *pulls*
//!
//! ```text
//! Δ(x, y) = c/|N_x| · 1/|N_y| · Σ_{a ∈ N_x} Σ_{(a,b) ∈ frontier, y ∈ N_b} R(a, b)
//! ```
//!
//! into a dense accumulator with a touched list (the Gustavson shape of
//! `spgemm`), reads the touched columns back in ascending order, merges them
//! with the residual the row carries, and hands back the pairs that crossed
//! the threshold; rows no frontier row touches are not pulled. Rows are cut
//! across the shared [`sigma_parallel::ThreadPool`] by pull work and each is
//! **owned by exactly one task**, which sums in one canonical order —
//! `a ∈ N_x` ascending, the frontier pairs of `a` by column, `N_b` in
//! adjacency order, the degree factors applied to the finished sum — so the
//! scores are **bitwise identical** at every `SIGMA_NUM_THREADS` by
//! construction (`tests/parallel_parity.rs` pins them to the nested-loop
//! reference in `sigma-testutil`). A pair is absorbed into `Ŝ` when it
//! crosses the threshold and propagated by the next round if the push budget
//! allows: each round's frontier is cut row-major to the pushes left, and
//! the cut pairs stay absorbed. Any round schedule is a valid LocalPush
//! schedule, so Lemma III.5's work and `‖Ŝ − S‖_max < ε` bounds carry over
//! unchanged.
//!
//! ## One loop for fresh runs and replays
//!
//! A run can be brought to an edited graph by re-pulling only the rows the
//! edit reaches and reading every other row's frontier from the run's
//! [`FrontierLog`] (the replay rule is in the `incremental` module docs). A
//! fresh run is that replay with an empty log and every node edited: every
//! row is dirty from round 1, so every row is pulled in every round against
//! the frontier the round before crossed — exactly the rounds above. So
//! [`LocalPush::run`], [`LocalPush::run_to_operator`] and the maintainer's
//! repair all go through one round loop, one budget cut and one set of
//! accumulators per run.
//!
//! ## Finishing a row, and materialising the operator
//!
//! While the rounds run, a row of `Ŝ` is a column-ascending *absorb log*: a
//! pair absorbed in several rounds is listed once per absorb, in round
//! order. A row is finished once its state is final: the log and the
//! residual the row still carries are merged — each column summed left to
//! right, the log's absorbs in round order, then the residual — the row is
//! pruned relative to its largest off-diagonal score, and its sink keeps the
//! whole row for [`LocalPush::run`] or its top-k entries for an operator.
//! The pool task that pulls a row finishes it and frees its state (when is
//! in the `incremental` module docs), so an operator build never holds the
//! score matrix. One top-k selection serves operators, replays and
//! [`SparseScores::to_csr`]: a `select_nth` against the k-th entry of the
//! top-k order and a filter that leaves the kept entries in column order.

use crate::incremental::FrontierLog;
use crate::{Result, SimRankConfig};
use sigma_graph::Graph;
use sigma_matrix::CsrMatrix;
use sigma_obs::{StaticCounter, StaticHistogram, Stopwatch};
use std::cmp::Ordering;
use std::mem::take;

pub(crate) static LOCALPUSH_RUNS: StaticCounter = StaticCounter::new(
    "sigma_localpush_runs_total",
    "LocalPush solver runs (full solves and repair replays)",
);
pub(crate) static LOCALPUSH_ROUNDS: StaticCounter = StaticCounter::new(
    "sigma_localpush_rounds_total",
    "frontier rounds executed across all LocalPush runs",
);
pub(crate) static LOCALPUSH_PUSHES: StaticCounter = StaticCounter::new(
    "sigma_localpush_pushes_total",
    "residual pushes performed across all LocalPush runs",
);
static LOCALPUSH_PULL_NS: StaticHistogram = StaticHistogram::new(
    "sigma_localpush_pull_ns",
    "fresh LocalPush runs: the push rounds, each row finished and selected by the task that pulls it",
);

/// One sparse row: `(column, value)` pairs, column-ascending.
pub(crate) type SparseRow = Vec<(u32, f32)>;

/// Sparse, symmetric similarity scores produced by [`LocalPush`].
#[derive(Debug, Clone)]
pub struct SparseScores {
    num_nodes: usize,
    /// `rows[u]` holds `(v, Ŝ(u, v))`, strictly column-ascending.
    rows: Vec<SparseRow>,
}

/// Fraction of a row's largest off-diagonal score below which entries are
/// pruned (the density-robust counterpart of Algorithm 1's `ε/10` floor).
/// Every finished row — of a full run or a replay — is pruned with it.
const RELATIVE_PRUNE_FRACTION: f32 = 0.01;

/// Merges two column-ascending rows, in which a column may repeat, into one.
/// On equal columns every `head` entry comes before every `tail` entry, so
/// each column's entries are listed in the order `head ++ tail` lists them.
pub(crate) fn merge_ordered(head: &[(u32, f32)], tail: &[(u32, f32)]) -> SparseRow {
    let mut merged = Vec::with_capacity(head.len() + tail.len());
    let mut tail = tail.iter().copied().peekable();
    for &(col, value) in head {
        merged.extend(std::iter::from_fn(|| tail.next_if(|&(t, _)| t < col)));
        merged.push((col, value));
    }
    merged.extend(tail);
    merged
}

/// Collapses each run of equal columns of a column-ascending row into one
/// entry, summing the run left to right.
fn sum_runs(row: &mut SparseRow) {
    row.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// The top-k selection order: score descending, column ascending on ties —
/// a total order, so the kept set is a pure function of the row.
fn by_score_then_column(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The `top_k` entries of one finished, column-ascending row, in column
/// order, or `None` when the row keeps every entry (`top_k` is `None` or
/// not below the row's length): the sink every pulled row goes through.
/// Selecting is a filter against the k-th entry of the selection order, so
/// the kept entries need no re-sort; `select_buf` is the selection buffer.
pub(crate) fn select_top_k(
    row: &[(u32, f32)],
    top_k: Option<usize>,
    select_buf: &mut SparseRow,
) -> Option<SparseRow> {
    let k = top_k.filter(|&k| k < row.len())?;
    select_buf.clear();
    select_buf.extend_from_slice(row);
    let kth = *select_buf
        .select_nth_unstable_by(k - 1, by_score_then_column)
        .1;
    let mut kept = Vec::with_capacity(k);
    kept.extend(
        row.iter()
            .filter(|entry| by_score_then_column(entry, &kth).is_le()),
    );
    Some(kept)
}

/// The `rows.len() × cols` CSR matrix whose `i`-th row is `rows[i]`.
pub(crate) fn csr_of(cols: usize, rows: &[SparseRow]) -> CsrMatrix {
    let nnz = rows.iter().map(Vec::len).sum();
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    let (mut indices, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    indptr.push(0);
    for row in rows {
        indices.extend(row.iter().map(|&(col, _)| col));
        values.extend(row.iter().map(|&(_, value)| value));
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw(rows.len(), cols, indptr, indices, values)
        .expect("score rows produce a valid CSR layout")
}

impl SparseScores {
    /// Number of nodes (matrix dimension).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Approximate SimRank score `Ŝ(u, v)` (0.0 if not stored).
    pub fn get(&self, u: usize, v: usize) -> f32 {
        let (Some(row), Ok(v)) = (self.rows.get(u), u32::try_from(v)) else {
            return 0.0;
        };
        row.binary_search_by_key(&v, |&(col, _)| col)
            .map_or(0.0, |i| row[i].1)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Iterator over the stored entries of one row, column-ascending.
    pub fn row(&self, u: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.rows[u].iter().map(|&(v, s)| (v as usize, s))
    }

    /// Materialises the scores as a CSR operator, optionally keeping only the
    /// `k` largest entries per row. This is SIGMA's aggregation matrix `S`.
    ///
    /// Top-k ties break towards the smaller column index, so the operator is
    /// a pure function of the scores and equals
    /// [`LocalPush::run_to_operator`], which selects each row as it is
    /// finished.
    pub fn to_csr(&self, top_k: Option<usize>) -> CsrMatrix {
        let rows: Vec<usize> = (0..self.num_nodes).collect();
        self.rows_to_csr(&rows, top_k)
    }

    /// Materialises the selected score rows as a `rows.len() × n` CSR slice
    /// (the `i`-th output row is score row `rows[i]`, top-k pruned exactly
    /// like [`SparseScores::to_csr`]).
    ///
    /// # Panics
    /// Panics if any selected row is out of bounds.
    pub fn rows_to_csr(&self, rows: &[usize], top_k: Option<usize>) -> CsrMatrix {
        let mut select_buf = Vec::new();
        let select = |&u: &usize| {
            let row = &self.rows[u];
            select_top_k(row, top_k, &mut select_buf).unwrap_or_else(|| row.clone())
        };
        csr_of(self.num_nodes, &rows.iter().map(select).collect::<Vec<_>>())
    }
}

/// `1 / deg(v)` per node (0 for isolated nodes), cached once instead of
/// re-derived from the CSR offsets in the push loops.
pub(crate) fn inverse_degrees(graph: &Graph) -> Vec<f32> {
    (0..graph.num_nodes())
        .map(|v| match graph.degree(v) {
            0 => 0.0,
            d => 1.0 / d as f32,
        })
        .collect()
}

/// The push budget a solver starts with; the theoretical bound is far below
/// it for the configurations used in the reproduction.
pub(crate) const DEFAULT_MAX_PUSHES: usize = 100_000_000;

/// The LocalPush solver (paper Algorithm 1).
#[derive(Debug)]
pub struct LocalPush {
    pub(crate) config: SimRankConfig,
    pub(crate) graph: Graph,
    /// Safety valve on the total number of pushes.
    pub(crate) max_pushes: usize,
    pub(crate) pushes_performed: usize,
}

/// A Gustavson working set: a dense per-column sum and the columns it
/// touched. `sums` and `marks` are all zero and `touched` empty between rows.
#[derive(Default)]
pub(crate) struct Accumulator {
    sums: Vec<f32>,
    touched: Vec<u32>,
    /// One bit per column, set only inside [`Accumulator::drain_ascending`].
    marks: Vec<u64>,
}

impl Accumulator {
    /// Grows a clear accumulator to `columns` columns.
    pub(crate) fn resize(&mut self, columns: usize) {
        self.sums.resize(columns, 0.0);
        self.marks.resize(columns.div_ceil(64), 0);
    }

    /// Adds `value` to `col`'s sum. Residuals and score contributions are
    /// positive, so a zero sum means "not touched yet" — and the first add
    /// is `0.0 + value`, exactly `value`.
    #[inline]
    fn add(&mut self, col: u32, value: f32) {
        debug_assert!(value > 0.0, "accumulated values must be positive");
        let sum = &mut self.sums[col as usize];
        if *sum == 0.0 {
            self.touched.push(col);
        }
        *sum += value;
    }

    /// Hands every touched column and its sum to `f` in ascending column
    /// order, leaving the accumulator clear.
    fn drain_ascending(&mut self, mut f: impl FnMut(u32, f32)) {
        let touched = self.touched.len();
        let sums = &mut self.sums;
        let mut emit = |col: u32| f(col, take(&mut sums[col as usize]));
        // Columns come out ascending either by sorting the touched list or
        // by marking them in a bitmap and reading its set bits in order;
        // the bitmap costs a word per 64 columns and no comparisons, so it
        // wins unless the row is very sparse — and a sparse row never scans
        // the bitmap.
        if self.marks.len() <= touched * (touched.max(1).ilog2() as usize) {
            for col in self.touched.drain(..) {
                self.marks[col as usize / 64] |= 1 << (col % 64);
            }
            for (word, bits) in self.marks.iter_mut().enumerate() {
                let mut bits = take(bits);
                while bits != 0 {
                    emit(word as u32 * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else {
            self.touched.sort_unstable();
            self.touched.drain(..).for_each(emit);
        }
    }
}

/// The residual sweep of one row: its absorb log and the residual it still
/// carries merged into one strictly column-ascending row — each column
/// summed left to right, the log's absorbs in round order, then the
/// residual — and pruned relative to the row's largest off-diagonal score.
pub(crate) fn finish_row(x: usize, log: &[(u32, f32)], residual: &[(u32, f32)]) -> SparseRow {
    let mut row = merge_ordered(log, residual);
    sum_runs(&mut row);
    // Scores are positive, so a row with no off-diagonal score keeps all.
    let off_diagonal = row.iter().filter(|&&(v, _)| v as usize != x);
    let row_max = off_diagonal.map(|&(_, s)| s).fold(0.0f32, f32::max);
    let floor = RELATIVE_PRUNE_FRACTION * row_max;
    row.retain(|&(v, s)| v as usize == x || s >= floor);
    row
}

impl LocalPush {
    /// Creates a solver for `graph` with the given configuration.
    pub fn new(graph: &Graph, config: SimRankConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            graph: graph.clone(),
            max_pushes: DEFAULT_MAX_PUSHES,
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
    /// bound `O(d²/(c(1−c)²ε))` applies unchanged. Pushes run in deterministic
    /// row-wise rounds on the shared thread pool (see the module docs), with
    /// bitwise identical results at every thread count. The remaining
    /// sub-threshold residual is then swept into `Ŝ`, which keeps the top-k
    /// structure resolvable on dense graphs and only reduces the error.
    pub fn run(&mut self) -> SparseScores {
        let (rows, _) = self.fresh_run(None);
        SparseScores {
            num_nodes: self.graph.num_nodes(),
            rows,
        }
    }

    /// A fresh run: the replay of an empty log with every node edited, so
    /// every pair is tainted and every row dirty from round 1 (see the
    /// module docs). Returns every row finished with its top `keep` entries,
    /// in row order, and the run's frontier log.
    pub(crate) fn fresh_run(&mut self, keep: Option<usize>) -> (Vec<SparseRow>, FrontierLog) {
        let n = self.graph.num_nodes();
        let _span = sigma_obs::span!("localpush_run", n);
        let clock = Stopwatch::start();
        let all = (0..n as u32).collect();
        let rounds = self.replay_rounds(&FrontierLog::default(), &vec![true; n], all, keep);
        self.pushes_performed = rounds.pushes;
        LOCALPUSH_PUSHES.add(rounds.pushes as u64);
        LOCALPUSH_PULL_NS.record(clock.elapsed_ns());
        (rounds.finished, rounds.log)
    }
    /// Pulls one round's delta into row `x` (see the module docs), returning
    /// the row's new carried residual and the pairs that crossed the
    /// threshold. `frontier(a)` is the pairs `(a, b)` the round pushes with
    /// their residual; `carried` is the sub-threshold mass row `x` holds.
    pub(crate) fn pull_row<'f>(
        &self,
        inv_deg: &[f32],
        frontier: impl Fn(u32) -> &'f [(u32, f32)],
        carried: &[(u32, f32)],
        x: u32,
        acc: &mut Accumulator,
    ) -> (SparseRow, SparseRow) {
        for &a in self.graph.neighbors(x as usize) {
            for &(b, r) in frontier(a) {
                for &y in self.graph.neighbors(b as usize) {
                    acc.add(y, r);
                }
            }
        }
        let threshold = ((1.0 - self.config.decay) * self.config.epsilon) as f32;
        let scale_x = self.config.decay as f32 * inv_deg[x as usize];
        let mut kept = Vec::with_capacity(carried.len() + acc.touched.len());
        let mut crossed = Vec::new();
        let mut old = carried.iter().copied().peekable();
        acc.drain_ascending(|y, sum| {
            if y == x {
                // Diagonal pairs are pinned to 1 in the exact recursion and
                // never accumulate residual.
                return;
            }
            kept.extend(std::iter::from_fn(|| old.next_if(|&(v, _)| v < y)));
            let delta = scale_x * inv_deg[y as usize] * sum;
            let r = old
                .next_if(|&(v, _)| v == y)
                .map_or(delta, |(_, r)| r + delta);
            if r > threshold {
                crossed.push((y, r));
            } else {
                kept.push((y, r));
            }
        });
        kept.extend(old);
        (kept, crossed)
    }

    /// Runs the solver straight to the top-k CSR operator configured in
    /// [`SimRankConfig::top_k`]: each row is selected as it is finished, so
    /// the score matrix is never built.
    pub fn run_to_operator(&mut self) -> CsrMatrix {
        let (rows, _) = self.fresh_run(self.config.top_k);
        csr_of(self.graph.num_nodes(), &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_simrank;
    use crate::incremental::tests::{edit, replay_onto};
    use sigma_graph::Graph;
    use sigma_testutil::reference::top_k_reference;

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
        assert_eq!(solver.pushes_performed(), 5);
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

    fn strictly_sorted(scores: &SparseScores) -> bool {
        scores
            .rows
            .iter()
            .all(|row| row.windows(2).all(|w| w[0].0 < w[1].0))
    }

    #[test]
    fn rows_stay_sorted_through_runs_repairs_and_pruning() {
        let g = karate_like_graph();
        let cfg = SimRankConfig::new(0.6, 0.005, None).unwrap();
        // Multi-round coupled run: rows are merged from several absorb
        // rounds plus the residual sweep.
        let mut solver = LocalPush::new(&g, cfg).unwrap();
        let scores = solver.run();
        assert!(solver.pushes_performed() > g.num_nodes());
        assert!(strictly_sorted(&scores));

        // A replay after an edit finishes rows the same way (and its CSR
        // slice would not build from unsorted rows).
        let edited = edit(&g, &[(1, 7)], &[]);
        assert!(!replay_onto(&g, &edited, cfg).rows.is_empty());
    }

    #[test]
    fn accumulator_rows_come_out_ascending_and_leave_it_clear() {
        // 4 096 columns = 64 bitmap words: three touched columns take the
        // sort path, a few hundred the bitmap path; both must agree with
        // the obvious answer and leave nothing behind.
        let mut acc = Accumulator::default();
        acc.resize(4096);
        for touched in [3usize, 700] {
            let cols: Vec<u32> = (0..touched as u32)
                .map(|i| (i * 2311 + 17) % 4096)
                .collect();
            for &col in cols.iter().chain(&cols[..touched / 2]) {
                acc.add(col, 0.25);
            }
            let mut want: Vec<(u32, f32)> = cols
                .iter()
                .enumerate()
                .map(|(i, &col)| (col, if i < touched / 2 { 0.5 } else { 0.25 }))
                .collect();
            want.sort_by_key(|&(col, _)| col);
            let mut take_row = || {
                let mut row = Vec::new();
                acc.drain_ascending(|col, sum| row.push((col, sum)));
                row
            };
            assert_eq!(take_row(), want);
            assert!(take_row().is_empty());
            assert!(acc.sums.iter().all(|&s| s == 0.0));
            assert!(acc.marks.iter().all(|&m| m == 0));
        }
    }

    #[test]
    fn absent_and_out_of_range_pairs_score_zero() {
        let mut rows = vec![Vec::new(); 3];
        rows[1] = vec![(0, 0.25), (1, 1.0)];
        let scores = SparseScores { num_nodes: 3, rows };
        assert_eq!(scores.get(1, 0), 0.25);
        assert_eq!(scores.get(1, 2), 0.0);
        assert_eq!(scores.get(0, 1), 0.0);
        assert_eq!(scores.get(3, 0), 0.0);
        assert_eq!(scores.get(1, 3), 0.0);
        // Beyond u32: must not alias a stored column.
        assert_eq!(scores.get(1, (1usize << 32) + 1), 0.0);
    }

    #[test]
    fn top_k_breaks_score_ties_towards_the_smaller_column() {
        let row = vec![(0, 0.2), (1, 0.5), (2, 0.2), (3, 1.0), (4, 0.5), (6, 0.2)];
        let mut rows = vec![Vec::new(); 7];
        (rows[3], rows[5]) = (row.clone(), row);
        let scores = SparseScores { num_nodes: 7, rows };
        assert_eq!(
            scores.to_csr(Some(4)).row_iter(3).collect::<Vec<_>>(),
            vec![(0, 0.2), (1, 0.5), (3, 1.0), (4, 0.5)]
        );
        for k in 1..=7 {
            let csr = scores.to_csr(Some(k));
            for u in 0..7 {
                let kept: Vec<_> = csr.row_iter(u).map(|(c, v)| (c as u32, v)).collect();
                assert_eq!(kept, top_k_reference(&scores.rows[u], Some(k)), "k = {k}");
            }
            assert_eq!(
                scores.rows_to_csr(&[5, 3], Some(k)).row_iter(0).count(),
                k.min(6)
            );
        }
    }
}
