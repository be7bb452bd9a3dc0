//! Seed-decomposed LocalPush and exact incremental repair.
//!
//! The coupled push process of [`crate::LocalPush::run`] pools residual mass
//! from every seed pair `(w, w)` before thresholding, which makes its output
//! a *global* function of the graph: there is no sound way to tell, after an
//! edge edit, which score rows a partial re-run would have to touch. This
//! module trades that coupling for **exact locality**:
//!
//! * [`crate::LocalPush::run_decomposed`] runs one independent push process
//!   per seed. Each [`SeedRun`] records its score contributions *and its
//!   footprint* — the set of nodes whose adjacency list or degree the
//!   process read. Because a push only ever reads the neighbourhoods of
//!   nodes that already hold residual, the footprint is exactly the set of
//!   pair coordinates the process touched.
//! * An edge edit `(a, b)` changes the adjacency list and degree of `a` and
//!   `b` and nothing else. By induction over push rounds, a seed whose
//!   footprint contains neither endpoint replays *identically* on the edited
//!   graph: every value it reads is unchanged, so every value it writes is
//!   unchanged. Such seeds are **clean** and their cached runs are reused;
//!   the rest are **dirty** and re-pushed ([`crate::LocalPush::repair`]).
//! * Score rows are assembled by summing seed contributions in seed order
//!   (and, within a seed, in absorb order), so a row whose contributing
//!   seeds are all clean assembles to bit-for-bit the same `f32`s as a full
//!   recomputation — the repair only has to re-assemble rows touched by a
//!   dirty seed, before or after the edit.
//!
//! ## What a repair costs
//!
//! Every stage is paid per thing that changed, and each has a histogram
//! (`sigma_simrank_repair_{dirty_scan,repush,assemble,materialise}_ns`):
//!
//! 1. **Dirty scan** — each seed's sorted footprint is merged against the
//!    sorted edit endpoints: `O(Σ |footprint|)`, no graph access.
//! 2. **Re-push** — one [`SeedRun`] per dirty seed, scheduled on the shared
//!    pool; the push and sweep order is the full run's, the two hash tables
//!    a process works in are reused from seed to seed.
//! 3. **Assembly** — [`DecomposedScores`] keeps, beside the seed runs, the
//!    transposed *row → contributing seeds* index. Swapping in the re-pushed
//!    runs moves each dirty seed from the rows it left to the rows it
//!    entered; re-summing a changed row then reads exactly the runs the
//!    index lists for it, into one reusable dense accumulator:
//!    `O(contributions of the changed rows)`, independent of the number of
//!    seeds. [`AssemblyWork`] reports the count.
//! 4. **Materialisation** — top-k selection over the changed rows, once
//!    ([`crate::DynamicSimRank`] splices the result into its cached operator
//!    and serves consumers' row requests from there).
//!
//! The differential harness in `sigma-testutil` replays random edit traces
//! through both paths and asserts bitwise equality of scores, operators and
//! served logits at 1 and 4 threads; `tests/incremental_repair.rs` pins the
//! assembly to the scan-every-seed reference and the index to one rebuilt
//! from scratch after every round.

use crate::fxhash::{pair_key, unpack_pair, FxHashMap, FxHashSet};
use crate::localpush::{inverse_degrees, Accumulator, SparseScores};
use crate::SimRankConfig;
use sigma_graph::Graph;
use sigma_obs::{StaticCounter, StaticHistogram};
use sigma_parallel::{ScratchPool, ThreadPool};

// One repair laps a single `sigma_obs::Stopwatch` through these four, so the
// stage samples of a repair add up to its duration.
pub(crate) static REPAIR_DIRTY_SCAN_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_dirty_scan_ns",
    "repair stage 1: solver set-up and the footprint scan that finds dirty seeds",
);
pub(crate) static REPAIR_REPUSH_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_repush_ns",
    "repair stage 2: re-running the push process of every dirty seed",
);
pub(crate) static REPAIR_ASSEMBLE_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_assemble_ns",
    "repair stage 3: row -> seed index patch and re-summing the changed score rows",
);
pub(crate) static REPAIR_MATERIALISE_NS: StaticHistogram = StaticHistogram::new(
    "sigma_simrank_repair_materialise_ns",
    "repair stage 4: top-k selection of the changed rows and their splice into the operator",
);
pub(crate) static REPAIR_ROWS: StaticCounter = StaticCounter::new(
    "sigma_simrank_repair_rows_total",
    "score rows re-assembled by incremental repairs",
);
pub(crate) static REPAIR_ENTRIES: StaticCounter = StaticCounter::new(
    "sigma_simrank_repair_entries_total",
    "seed contributions re-summed by incremental repairs",
);

/// The outcome of one seed's independent push process.
///
/// Contributions are stored CSR-style — one entry array plus row offsets —
/// so re-summing a row walks contiguous memory instead of chasing one small
/// allocation per (seed, row).
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// Ids of the output rows this seed contributes to, ascending.
    row_ids: Vec<u32>,
    /// `entries[row_ptr[i]..row_ptr[i + 1]]` are the contributions to row
    /// `row_ids[i]`.
    row_ptr: Vec<usize>,
    /// `(column, value)` score contributions; within a row they keep the
    /// canonical absorb-then-sweep order, which is the summation order row
    /// assembly replays.
    entries: Vec<(u32, f32)>,
    /// Sorted ids of every node whose adjacency or degree this run read. A
    /// graph edit is invisible to the run iff neither endpoint is listed.
    footprint: Vec<u32>,
    /// Number of residual absorptions performed.
    pushes: usize,
}

impl SeedRun {
    /// Groups an absorb-order log of `(row, column, value)` contributions by
    /// row. The sort is stable, so each row keeps its absorb order.
    fn new(mut absorbed: Vec<(u32, u32, f32)>, footprint: Vec<u32>, pushes: usize) -> Self {
        absorbed.sort_by_key(|&(row, _, _)| row);
        let mut row_ids = Vec::new();
        let mut row_ptr = Vec::new();
        let mut entries = Vec::with_capacity(absorbed.len());
        for (row, col, value) in absorbed {
            if row_ids.last() != Some(&row) {
                row_ids.push(row);
                row_ptr.push(entries.len());
            }
            entries.push((col, value));
        }
        row_ptr.push(entries.len());
        Self {
            row_ids,
            row_ptr,
            entries,
            footprint,
            pushes,
        }
    }

    /// Number of residual absorptions this run performed.
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Sorted ids of the nodes whose adjacency or degree the run read.
    pub fn footprint(&self) -> &[u32] {
        &self.footprint
    }

    /// Ids of the score rows this run contributes to, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.row_ids
    }

    /// This run's `(column, value)` contributions to score row `row`, in
    /// absorb order (empty if it contributes nothing there).
    pub fn contributions(&self, row: u32) -> &[(u32, f32)] {
        match self.row_ids.binary_search(&row) {
            Ok(i) => &self.entries[self.row_ptr[i]..self.row_ptr[i + 1]],
            Err(_) => &[],
        }
    }

    /// Whether any of `sorted_nodes` (sorted ascending) is in the footprint.
    fn reads_any(&self, sorted_nodes: &[u32]) -> bool {
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.footprint.len() && j < sorted_nodes.len() {
            match self.footprint[i].cmp(&sorted_nodes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// A full seed-decomposed score computation, maintainable under edits.
///
/// Produced by [`crate::LocalPush::run_decomposed`], patched in place by
/// [`crate::LocalPush::repair`], and assembled into [`SparseScores`] (whole
/// or row-by-row) on demand. The assembly is canonical — seed order, then
/// per-seed absorb order — so a row re-assembled after a repair is bitwise
/// identical to the same row of a from-scratch decomposed run.
#[derive(Debug, Clone)]
pub struct DecomposedScores {
    num_nodes: usize,
    seeds: Vec<SeedRun>,
    /// `row_seeds[u]`: ascending ids of the seeds contributing to score row
    /// `u` — the transpose of the seeds' row lists, kept in step with them
    /// by [`DecomposedScores::replace_seed_runs`].
    row_seeds: Vec<Vec<u32>>,
}

/// What a [`crate::LocalPush::repair`] call actually did.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Seeds whose push processes were re-run (sorted).
    pub dirty_seeds: Vec<usize>,
    /// Score rows whose assembled values may differ (sorted): every row a
    /// dirty seed contributed to, before or after the edit. Rows outside
    /// this set are untouched and provably unchanged.
    pub changed_rows: Vec<usize>,
    /// Residual absorptions performed by the re-pushed seeds.
    pub pushes: usize,
}

/// The work one [`DecomposedScores::assemble_rows_into`] call did — counts,
/// not clocks, so tests can pin the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssemblyWork {
    /// Seed runs read: one per (assembled row, seed contributing to it).
    pub runs_visited: usize,
    /// Score contributions summed.
    pub entries: usize,
}

impl DecomposedScores {
    pub(crate) fn new(num_nodes: usize, seeds: Vec<SeedRun>) -> Self {
        debug_assert_eq!(num_nodes, seeds.len());
        let mut row_seeds = vec![Vec::new(); num_nodes];
        for (w, run) in seeds.iter().enumerate() {
            for &row in &run.row_ids {
                row_seeds[row as usize].push(w as u32);
            }
        }
        Self {
            num_nodes,
            seeds,
            row_seeds,
        }
    }

    /// Number of nodes (score-matrix dimension).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total residual absorptions across all cached seed runs.
    pub fn total_pushes(&self) -> usize {
        self.seeds.iter().map(SeedRun::pushes).sum()
    }

    /// The cached push process of every seed, indexed by seed id.
    pub fn seed_runs(&self) -> &[SeedRun] {
        &self.seeds
    }

    /// Ascending ids of the seeds whose runs contribute to score row `row`.
    pub fn contributing_seeds(&self, row: usize) -> &[u32] {
        &self.row_seeds[row]
    }

    /// Seeds whose footprint intersects `affected` (sorted seed ids). These
    /// are exactly the push processes an edit restricted to `affected` can
    /// influence.
    pub fn dirty_seeds(&self, affected: &[usize]) -> Vec<usize> {
        let mut sorted: Vec<u32> = affected.iter().map(|&v| v as u32).collect();
        sorted.sort_unstable();
        sorted.dedup();
        self.seeds
            .iter()
            .enumerate()
            .filter(|(_, run)| run.reads_any(&sorted))
            .map(|(w, _)| w)
            .collect()
    }

    /// Swaps in re-pushed runs for the listed seeds, moves each seed in the
    /// row → seed index from the rows it left to the rows it entered, and
    /// returns the sorted ids of every score row either version of a
    /// swapped seed contributed to — the rows a caller must re-assemble.
    pub(crate) fn replace_seed_runs(
        &mut self,
        dirty: &[usize],
        new_runs: Vec<SeedRun>,
    ) -> Vec<usize> {
        debug_assert_eq!(dirty.len(), new_runs.len());
        let mut changed: Vec<u32> = Vec::new();
        for (&w, new_run) in dirty.iter().zip(new_runs) {
            let old_run = std::mem::replace(&mut self.seeds[w], new_run);
            let new_run = &self.seeds[w];
            let seed = w as u32;
            for &row in &old_run.row_ids {
                if new_run.row_ids.binary_search(&row).is_err() {
                    self.row_seeds[row as usize].retain(|&s| s != seed);
                }
            }
            for &row in &new_run.row_ids {
                let seeds = &mut self.row_seeds[row as usize];
                if let Err(i) = seeds.binary_search(&seed) {
                    seeds.insert(i, seed);
                }
            }
            changed.extend_from_slice(&old_run.row_ids);
            changed.extend_from_slice(&new_run.row_ids);
        }
        changed.sort_unstable();
        changed.dedup();
        changed.into_iter().map(|row| row as usize).collect()
    }

    /// Assembles the full pruned score matrix (the decomposed counterpart of
    /// [`crate::LocalPush::run`]'s return value).
    pub fn assemble(&self) -> SparseScores {
        let mut scores = SparseScores::new(self.num_nodes);
        let rows: Vec<usize> = (0..self.num_nodes).collect();
        self.assemble_rows_into(&mut scores, &rows);
        scores
    }

    /// Re-assembles the listed score rows of `scores` from the cached seed
    /// contributions, replacing whatever the rows held, and re-prunes them.
    /// Only the seeds the row → seed index lists for a row are read, so the
    /// cost is the number of contributions re-summed (reported back as
    /// [`AssemblyWork`]), not rows × seeds.
    ///
    /// Summation replays the canonical order (seeds ascending, entries in
    /// absorb order) into a dense per-column accumulator, so a row assembled
    /// here is bitwise identical to the same row of
    /// [`DecomposedScores::assemble`] on an equal decomposition.
    pub fn assemble_rows_into(&self, scores: &mut SparseScores, rows: &[usize]) -> AssemblyWork {
        let mut acc = Accumulator::default();
        acc.resize(self.num_nodes);
        let mut work = AssemblyWork::default();
        let mut slices: Vec<&[(u32, f32)]> = Vec::new();
        for &u in rows {
            // Look every slice up before summing any: the lookups are
            // independent cache misses, which overlap only when no
            // accumulation sits between them.
            slices.clear();
            let seeds = self.row_seeds[u].iter();
            slices.extend(seeds.map(|&w| self.seeds[w as usize].contributions(u as u32)));
            work.runs_visited += slices.len();
            for contributions in &slices {
                work.entries += contributions.len();
                for &(col, value) in *contributions {
                    acc.add(col, value);
                }
            }
            // `take_row` makes one exactly-sized allocation per row: growing
            // the row by appends made a concurrent reader thread 40 % slower
            // for the length of the repair (`repair_churn`, PR 14).
            scores.set_row(u, acc.take_row());
        }
        work
    }
}

/// Runs the independent push processes of the listed seeds on the shared
/// pool and returns them in seed order. Seed costs are heavily skewed (a
/// hub seed's push tree dwarfs a leaf's), so scheduling goes through
/// [`ThreadPool::par_map_weighted`] with a squared-degree cost estimate —
/// the first push round of seed `w` already fans out over
/// `deg(w)²` neighbour pairs. Small dirty-seed batches still get one task
/// per seed; full-graph runs are batched into contiguous weight-balanced
/// runs instead of paying one scoped task per node. Each process is fully
/// serial, so the results are bitwise identical at every thread count and
/// batching choice.
pub(crate) fn run_seeds(
    graph: &Graph,
    config: SimRankConfig,
    budget: usize,
    seeds: &[u32],
) -> Vec<SeedRun> {
    let c = config.decay as f32;
    let threshold = ((1.0 - config.decay) * config.epsilon) as f32;
    let inv_deg = inverse_degrees(graph);
    let weights: Vec<usize> = seeds
        .iter()
        .map(|&w| {
            graph
                .degree(w as usize)
                .saturating_mul(graph.degree(w as usize))
                + 1
        })
        .collect();
    ThreadPool::global().par_map_weighted(seeds, &weights, |&seed| {
        seed_run(graph, &inv_deg, seed, c, threshold, budget)
    })
}

/// The hash tables one push process works in, reused from seed to seed so a
/// re-push does not grow two tables from empty per dirty seed. Invariant:
/// both are empty whenever the scratch is in the pool.
#[derive(Default)]
struct SeedScratch {
    residual: FxHashMap<u64, f32>,
    footprint: FxHashSet<u32>,
}

static SEED_SCRATCH: ScratchPool<SeedScratch> = ScratchPool::new();

/// One seed's complete push process: rounds of threshold-exceeding frontier
/// pairs, absorbed in canonical (sorted-frontier) order, followed by a
/// sweep of the remaining residual in sorted-pair order.
fn seed_run(
    graph: &Graph,
    inv_deg: &[f32],
    seed: u32,
    c: f32,
    threshold: f32,
    budget: usize,
) -> SeedRun {
    let mut scratch = SEED_SCRATCH.take_or_else(SeedScratch::default);
    let SeedScratch {
        residual,
        footprint,
    } = &mut *scratch;
    // `(row, column, value)` in absorb order.
    let mut absorbed: Vec<(u32, u32, f32)> = Vec::new();
    footprint.insert(seed);
    residual.insert(pair_key(seed, seed), 1.0);
    let mut frontier: Vec<u64> = vec![pair_key(seed, seed)];
    let mut pushes = 0usize;
    while !frontier.is_empty() {
        let remaining = budget.saturating_sub(pushes);
        if remaining == 0 {
            break;
        }
        if frontier.len() > remaining {
            // Budget safety valve, mirroring `LocalPush::run`: process a
            // deterministic prefix; the sweep below absorbs the rest.
            frontier.truncate(remaining);
        }
        let mut candidates: Vec<u64> = Vec::new();
        for &key in &frontier {
            let r = match residual.get(&key) {
                Some(&r) if r > threshold => r,
                _ => continue,
            };
            let (a, b) = unpack_pair(key);
            absorbed.push((a, b, r));
            residual.insert(key, 0.0);
            pushes += 1;
            let push_base = c * r;
            let (near_a, near_b) = (graph.neighbors(a as usize), graph.neighbors(b as usize));
            // A neighbour is read iff it forms an off-diagonal pair with
            // some neighbour of the other endpoint.
            let pairs_off = |v: u32, others: &[u32]| others.iter().any(|&o| o != v);
            footprint.extend(near_a.iter().filter(|&&x| pairs_off(x, near_b)));
            footprint.extend(near_b.iter().filter(|&&y| pairs_off(y, near_a)));
            for &x in near_a {
                let scale_x = push_base * inv_deg[x as usize];
                for &y in near_b {
                    if x == y {
                        // Diagonal pairs are pinned to 1 in the exact
                        // recursion and never accumulate residual.
                        continue;
                    }
                    let target = pair_key(x, y);
                    *residual.entry(target).or_insert(0.0) += scale_x * inv_deg[y as usize];
                    candidates.push(target);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|key| residual.get(key).copied().unwrap_or(0.0) > threshold);
        frontier = candidates;
    }
    // Sweep the remaining sub-threshold residual in sorted-pair order (the
    // canonical tail of the per-row summation order).
    let mut leftovers: Vec<u64> = residual
        .iter()
        .filter(|&(_, &r)| r > 0.0)
        .map(|(&key, _)| key)
        .collect();
    leftovers.sort_unstable();
    for key in leftovers {
        let (a, b) = unpack_pair(key);
        absorbed.push((a, b, residual[&key]));
    }
    let mut footprint: Vec<u32> = footprint.drain().collect();
    footprint.sort_unstable();
    residual.clear();
    SeedRun::new(absorbed, footprint, pushes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalPush;

    fn ring_with_chords(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((0, n / 2));
        edges.push((1, n / 3));
        Graph::from_edges(n, &edges).unwrap()
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
    fn decomposed_run_approximates_like_the_coupled_run() {
        let g = ring_with_chords(16);
        let cfg = SimRankConfig::default();
        let exact = crate::exact_simrank(&g, &cfg).unwrap();
        let decomposed = LocalPush::new(&g, cfg).unwrap().run_decomposed();
        let scores = decomposed.assemble();
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if u == v {
                    assert!((scores.get(u, u) - 1.0).abs() < 1e-6);
                    continue;
                }
                let err = (scores.get(u, v) - exact.get(u, v)).abs();
                assert!(err < cfg.epsilon as f32 + 1e-4, "error {err} at ({u},{v})");
            }
        }
    }

    #[test]
    fn footprints_cover_contributed_rows() {
        // Every row a seed contributes to is a pair coordinate it touched,
        // hence in its footprint — the invariant dirty-row tracking rests on.
        let g = ring_with_chords(14);
        let decomposed = LocalPush::new(&g, SimRankConfig::default())
            .unwrap()
            .run_decomposed();
        for run in &decomposed.seeds {
            for row in run.rows() {
                assert!(run.footprint.binary_search(row).is_ok());
            }
        }
    }

    #[test]
    fn repair_after_edit_matches_full_recomputation_bitwise() {
        let n = 18;
        let g = ring_with_chords(n);
        let cfg = SimRankConfig::default();
        let mut decomposed = LocalPush::new(&g, cfg).unwrap().run_decomposed();
        let mut scores = decomposed.assemble();

        // Edit: add a chord, remove a ring edge.
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        edges.push((2, 11));
        edges.retain(|&(a, b)| (a, b) != (4, 5) && (a, b) != (5, 4));
        let edited = Graph::from_edges(n, &edges).unwrap();

        let mut solver = LocalPush::new(&edited, cfg).unwrap();
        let report = solver.repair(&mut decomposed, &[2, 11, 4, 5]).unwrap();
        decomposed.assemble_rows_into(&mut scores, &report.changed_rows);

        let fresh = LocalPush::new(&edited, cfg).unwrap().run_decomposed();
        let fresh_scores = fresh.assemble();
        assert_eq!(scores_bits(&scores), scores_bits(&fresh_scores));
        // The operator materialisations agree bitwise too.
        assert_eq!(scores.to_csr(Some(4)), fresh_scores.to_csr(Some(4)));
        assert!(!report.dirty_seeds.is_empty());
        assert!(report.pushes <= fresh.total_pushes());
    }

    #[test]
    fn clean_seeds_are_not_re_pushed() {
        // Two far-apart components: editing inside one must leave every seed
        // of the other clean.
        let mut edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        edges.extend((0..6).map(|i| (6 + i, 6 + (i + 1) % 6)));
        let g = Graph::from_edges(12, &edges).unwrap();
        let cfg = SimRankConfig::default();
        let mut decomposed = LocalPush::new(&g, cfg).unwrap().run_decomposed();

        let mut edited_edges = edges.clone();
        edited_edges.push((0, 3));
        let edited = Graph::from_edges(12, &edited_edges).unwrap();
        let report = LocalPush::new(&edited, cfg)
            .unwrap()
            .repair(&mut decomposed, &[0, 3])
            .unwrap();
        for &w in &report.dirty_seeds {
            assert!(w < 6, "seed {w} of the untouched component was re-pushed");
        }
        for &row in &report.changed_rows {
            assert!(row < 6, "row {row} of the untouched component was patched");
        }
        // Locality in push work too: strictly less than a full run.
        let full = LocalPush::new(&edited, cfg).unwrap().run_decomposed();
        assert!(report.pushes < full.total_pushes());
    }

    #[test]
    fn assembly_visits_only_the_runs_the_index_lists() {
        // The two-component graph again, as a count: re-assembling the
        // edited component's rows reads one run per (row, listed seed) and
        // no run of the other component — a rows × seeds scan would read
        // `changed_rows.len() * 12`.
        let mut edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        edges.extend((0..6).map(|i| (6 + i, 6 + (i + 1) % 6)));
        let cfg = SimRankConfig::default();
        let g = Graph::from_edges(12, &edges).unwrap();
        let mut decomposed = LocalPush::new(&g, cfg).unwrap().run_decomposed();
        let mut scores = decomposed.assemble();
        edges.push((0, 3));
        let edited = Graph::from_edges(12, &edges).unwrap();
        let report = LocalPush::new(&edited, cfg)
            .unwrap()
            .repair(&mut decomposed, &[0, 3])
            .unwrap();
        assert!(!report.changed_rows.is_empty());
        let work = decomposed.assemble_rows_into(&mut scores, &report.changed_rows);
        let listed = report
            .changed_rows
            .iter()
            .map(|&row| decomposed.contributing_seeds(row));
        assert!(listed.clone().flatten().all(|&seed| seed < 6));
        assert_eq!(work.runs_visited, listed.map(<[u32]>::len).sum::<usize>());
        assert!(work.runs_visited < report.changed_rows.len() * 12);
        let entries = |row: &usize| -> usize {
            let runs = decomposed.seed_runs().iter();
            runs.map(|run| run.contributions(*row as u32).len()).sum()
        };
        assert_eq!(
            work.entries,
            report.changed_rows.iter().map(entries).sum::<usize>()
        );
    }

    #[test]
    fn a_neighbour_that_only_pairs_with_itself_is_not_in_the_footprint() {
        // Star: a leaf seed's one push meets only the diagonal pair
        // (centre, centre), which is skipped, so it reads nothing but
        // itself; the centre's push pairs every leaf with another leaf.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let decomposed = LocalPush::new(&g, SimRankConfig::default())
            .unwrap()
            .run_decomposed();
        assert_eq!(decomposed.seed_runs()[1].footprint(), [1]);
        assert_eq!(decomposed.seed_runs()[0].footprint(), [0, 1, 2, 3]);
    }

    #[test]
    fn empty_affected_set_is_a_no_op() {
        let g = ring_with_chords(10);
        let cfg = SimRankConfig::default();
        let mut decomposed = LocalPush::new(&g, cfg).unwrap().run_decomposed();
        let report = LocalPush::new(&g, cfg)
            .unwrap()
            .repair(&mut decomposed, &[])
            .unwrap();
        assert!(report.dirty_seeds.is_empty());
        assert!(report.changed_rows.is_empty());
        assert_eq!(report.pushes, 0);
    }

    #[test]
    fn repair_validates_bounds() {
        let g = ring_with_chords(10);
        let cfg = SimRankConfig::default();
        let mut decomposed = LocalPush::new(&g, cfg).unwrap().run_decomposed();
        assert!(LocalPush::new(&g, cfg)
            .unwrap()
            .repair(&mut decomposed, &[10])
            .is_err());
        let smaller = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert!(LocalPush::new(&smaller, cfg)
            .unwrap()
            .repair(&mut decomposed, &[0])
            .is_err());
    }
}
