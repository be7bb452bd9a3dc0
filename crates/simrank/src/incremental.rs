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
//! The differential harness in `sigma-testutil` replays random edit traces
//! through both paths and asserts bitwise equality of scores, operators and
//! served logits at 1 and 4 threads.

use crate::fxhash::{pair_key, unpack_pair, FxHashMap, FxHashSet};
use crate::localpush::{inverse_degrees, sum_by_column, SparseScores};
use crate::SimRankConfig;
use sigma_graph::Graph;
use sigma_parallel::ThreadPool;

/// The outcome of one seed's independent push process.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// Score contributions grouped by output row (sorted by row id); within
    /// a row, entries keep the canonical absorb-then-sweep order, which is
    /// the summation order row assembly replays.
    rows: Vec<(u32, Vec<(u32, f32)>)>,
    /// Sorted ids of every node whose adjacency or degree this run read. A
    /// graph edit is invisible to the run iff neither endpoint is listed.
    footprint: Vec<u32>,
    /// Number of residual absorptions performed.
    pushes: usize,
}

impl SeedRun {
    /// Number of residual absorptions this run performed.
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Sorted ids of the nodes whose adjacency or degree the run read.
    pub fn footprint(&self) -> &[u32] {
        &self.footprint
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

impl DecomposedScores {
    pub(crate) fn new(num_nodes: usize, seeds: Vec<SeedRun>) -> Self {
        debug_assert_eq!(num_nodes, seeds.len());
        Self { num_nodes, seeds }
    }

    /// Number of nodes (score-matrix dimension).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total residual absorptions across all cached seed runs.
    pub fn total_pushes(&self) -> usize {
        self.seeds.iter().map(SeedRun::pushes).sum()
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

    /// Swaps in re-pushed runs for the listed seeds and returns the sorted
    /// ids of every score row either version of a swapped seed contributed
    /// to — the rows a caller must re-assemble.
    pub(crate) fn replace_seed_runs(
        &mut self,
        dirty: &[usize],
        new_runs: Vec<SeedRun>,
    ) -> Vec<usize> {
        debug_assert_eq!(dirty.len(), new_runs.len());
        let mut changed: FxHashSet<u32> = FxHashSet::default();
        for (&w, new_run) in dirty.iter().zip(new_runs) {
            for (row, _) in &self.seeds[w].rows {
                changed.insert(*row);
            }
            for (row, _) in &new_run.rows {
                changed.insert(*row);
            }
            self.seeds[w] = new_run;
        }
        let mut changed: Vec<usize> = changed.into_iter().map(|r| r as usize).collect();
        changed.sort_unstable();
        changed
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
    ///
    /// Summation replays the canonical order (seeds ascending, entries in
    /// absorb order), so a row assembled here is bitwise identical to the
    /// same row of [`DecomposedScores::assemble`] on an equal decomposition.
    pub fn assemble_rows_into(&self, scores: &mut SparseScores, rows: &[usize]) {
        for &u in rows {
            let target = u as u32;
            let contributions = self.seeds.iter().filter_map(|run| {
                let i = run.rows.binary_search_by_key(&target, |&(r, _)| r).ok()?;
                Some(run.rows[i].1.as_slice())
            });
            // One exactly-sized allocation per row: growing the row by
            // appends made a concurrent reader thread 40 % slower for the
            // length of the repair (`repair_churn`, PR 14).
            let mut row = contributions.collect::<Vec<_>>().concat();
            sum_by_column(&mut row);
            scores.set_row(u, row);
        }
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
    let mut residual: FxHashMap<u64, f32> = FxHashMap::default();
    let mut rows: FxHashMap<u32, Vec<(u32, f32)>> = FxHashMap::default();
    let mut footprint: FxHashSet<u32> = FxHashSet::default();
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
            rows.entry(a).or_default().push((b, r));
            residual.insert(key, 0.0);
            pushes += 1;
            let push_base = c * r;
            for &x in graph.neighbors(a as usize) {
                let scale_x = push_base * inv_deg[x as usize];
                for &y in graph.neighbors(b as usize) {
                    if x == y {
                        // Diagonal pairs are pinned to 1 in the exact
                        // recursion and never accumulate residual.
                        continue;
                    }
                    let target = pair_key(x, y);
                    *residual.entry(target).or_insert(0.0) += scale_x * inv_deg[y as usize];
                    candidates.push(target);
                    footprint.insert(x);
                    footprint.insert(y);
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
        let r = residual[&key];
        let (a, b) = unpack_pair(key);
        rows.entry(a).or_default().push((b, r));
    }
    let mut rows: Vec<(u32, Vec<(u32, f32)>)> = rows.into_iter().collect();
    rows.sort_unstable_by_key(|&(r, _)| r);
    let mut footprint: Vec<u32> = footprint.into_iter().collect();
    footprint.sort_unstable();
    SeedRun {
        rows,
        footprint,
        pushes,
    }
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
            for (row, _) in &run.rows {
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
