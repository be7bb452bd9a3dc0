//! The push rounds of [`LocalPush`], and replaying a run on an edited
//! graph.
//!
//! A row's pull in a round is a pure function of its adjacency and degree,
//! its neighbours' frontier pairs `(a, b)`, each `N_b` with the degrees in
//! it, and the residual the row carries. So a run that records its
//! [`FrontierLog`] is brought to an edited graph by re-pulling only the rows
//! whose inputs changed ([`LocalPush::replay`]). With `P` the nodes whose
//! adjacency changed, a logged pair `(a, b)` is *tainted* when
//! `b ∈ P ∪ N(P)`, and row `x` is dirty from round `t` on when `x ∈ P` or
//! some `a ∈ N_x` has a round-`t` frontier that changed or holds a tainted
//! pair. A dirty row is pulled from round 1, building its residual and
//! absorb log; clean rows' frontiers are read from the log, and their own
//! bits cannot have changed. With only the identity round the log is empty
//! and the dirty rows are the 2-hop ball of `P`.
//!
//! [`LocalPush::replay_rounds`] is the only round loop: a fresh run
//! ([`LocalPush::run`], [`LocalPush::run_to_operator`]) is the replay of an
//! empty log with every node edited. Every row is then dirty from round 1
//! and pulled in every round against the frontier the round before crossed,
//! which is Algorithm 1's round schedule. The loop cuts each round's
//! frontier row-major to the push budget left; a fresh run keeps the cut
//! pairs absorbed, a replay that starts from or runs into a cut returns
//! `None`.
//!
//! A row is finished once, by the pool task of the pass that leaves its
//! state final, which frees its residual and absorb log: right after its
//! first pull if that pull crossed nothing, else by the pass after the last
//! round. A freed row that a later round reaches is re-pulled from round 1,
//! rebuilding its state bit for bit, and held to the end, so a row's pull
//! work is at most doubled, and the frontier log and push counts do not
//! depend on when a row is finished.

use crate::dynamic::{REPAIR_DIRTY_SCAN_NS, REPAIR_REPLAY_NS};
use crate::localpush::{
    csr_of, finish_row, inverse_degrees, merge_ordered, select_top_k, Accumulator, SparseRow,
    LOCALPUSH_PUSHES, LOCALPUSH_ROUNDS, LOCALPUSH_RUNS,
};
use crate::LocalPush;
use sigma_matrix::CsrMatrix;
use sigma_obs::Stopwatch;
use sigma_parallel::ThreadPool;
use std::mem::{replace, size_of, take};
use std::sync::Mutex;

/// The pairs a run pushed in every round after the identity round, with
/// their residual bits: what [`LocalPush::replay`] reads clean rows'
/// frontiers from. When no off-diagonal pair crosses the threshold (ε = 0.1
/// on the Pokec-like graphs) it holds nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FrontierLog {
    /// `rounds[i]` is the frontier round `i + 2` pushed; round 1 pushes
    /// every diagonal pair `(a, a)` with residual 1 and is not stored.
    pub(crate) rounds: Vec<FrontierRound>,
    /// Whether the push budget cut a round. No replay reproduces such a run.
    pub(crate) cut: bool,
}

impl FrontierLog {
    /// Heap bytes the log's rounds hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        let row = |(_, pairs): &(u32, SparseRow)| {
            size_of::<(u32, SparseRow)>() + pairs.capacity() * size_of::<(u32, f32)>()
        };
        self.rounds.iter().flatten().map(row).sum()
    }
}

/// One round's frontier: the rows that pushed, ascending, each with its
/// pairs `(b, residual)`, column-ascending.
pub(crate) type FrontierRound = Vec<(u32, SparseRow)>;

/// Row `x`'s pairs in `round` (empty if it pushed nothing there).
fn pairs_of(round: &[(u32, SparseRow)], x: u32) -> &[(u32, f32)] {
    round
        .binary_search_by_key(&x, |&(row, _)| row)
        .map_or(&[], |i| &round[i].1)
}

/// What [`LocalPush::replay`] recomputed.
#[derive(Debug)]
pub(crate) struct Replay {
    /// The rows re-pulled, ascending.
    pub(crate) rows: Vec<usize>,
    /// Their top-k operator rows on the edited graph, `rows.len() × n`.
    pub(crate) operator_rows: CsrMatrix,
    /// The edited graph's frontier log.
    pub(crate) log: FrontierLog,
}

/// What [`LocalPush::replay_rounds`] leaves behind.
pub(crate) struct Rounds {
    /// The rows pulled, ascending.
    pub(crate) rows: Vec<u32>,
    /// Each of them finished, through the rounds' sink.
    pub(crate) finished: Vec<SparseRow>,
    /// Pairs the pulled rows absorbed, their diagonal pairs included.
    pub(crate) absorbs: usize,
    /// The frontier log of the run on this graph.
    pub(crate) log: FrontierLog,
    /// Pairs pushed by every row, pulled or not: at most the push budget.
    pub(crate) pushes: usize,
}

/// A row the rounds pull: a row an edit reaches, or every row of a fresh
/// run.
#[derive(Default)]
struct DirtyRow {
    x: u32,
    /// The first round not pulled yet: 1 for a row that just became dirty.
    next_round: usize,
    /// Whether the row holds unfinished state; a pulled row that does not is finished.
    held: bool,
    residual: SparseRow,
    /// The absorb log, from the diagonal pair on.
    absorbed: SparseRow,
    /// The pairs that crossed in the last round pulled: the row's frontier
    /// in the next one.
    crossed: SparseRow,
    /// The finished row, through the rounds' sink.
    finished: SparseRow,
    /// Pairs absorbed by the finished row, its diagonal pair included.
    absorbs: usize,
}

/// The frontiers of the rounds a replay has reached: round 1 is the
/// identity, round `t ≥ 2` is `rounds[t - 2]`.
struct Frontiers {
    /// The diagonal pairs round 1 pushes: all of them unless the budget cut
    /// the round, a row-major prefix then.
    identity: SparseRow,
    rounds: Vec<FrontierRound>,
}

impl Frontiers {
    fn get(&self, round: usize, a: u32) -> &[(u32, f32)] {
        match round {
            1 => self
                .identity
                .get(a as usize)
                .map_or(&[], std::slice::from_ref),
            t => pairs_of(&self.rounds[t - 2], a),
        }
    }
}

impl LocalPush {
    /// Brings a run recorded in `log` to this solver's graph, re-pulling only
    /// the rows the edit reaches (see the module docs), and returns their
    /// top-k operator rows: the rows of [`LocalPush::run_to_operator`] on
    /// this graph, bit for bit, at any pool width. `edited` holds every node
    /// whose adjacency differs from the graph `log` was recorded on.
    /// [`LocalPush::pushes_performed`] then counts the re-pulled rows'
    /// pushes. `None` when the push budget cut a round of either run, which
    /// no replay reproduces. Laps `clock` into the repair's dirty-scan and
    /// replay stages.
    pub(crate) fn replay(
        &mut self,
        log: &FrontierLog,
        edited: &[u32],
        clock: &mut Stopwatch,
    ) -> Option<Replay> {
        if log.cut {
            return None;
        }
        let graph = &self.graph;
        let n = graph.num_nodes();
        let mut tainted = vec![false; n];
        for &p in edited {
            tainted[p as usize] = true;
            for &q in graph.neighbors(p as usize) {
                tainted[q as usize] = true;
            }
        }
        // Round 1 pushes every diagonal pair: a row's is tainted iff the
        // row is, and none changed.
        let mut dirty = edited.to_vec();
        for a in (0..n).filter(|&a| tainted[a]) {
            dirty.extend_from_slice(graph.neighbors(a));
        }
        REPAIR_DIRTY_SCAN_NS.record(clock.lap());
        let rounds = self.replay_rounds(log, &tainted, dirty, self.config.top_k);
        if rounds.log.cut {
            return None;
        }
        // Every pair a row absorbed it pushed in the next round: no round
        // was cut.
        self.pushes_performed = rounds.absorbs;
        LOCALPUSH_PUSHES.add(self.pushes_performed as u64);
        let replay = Replay {
            rows: rounds.rows.iter().map(|&x| x as usize).collect(),
            operator_rows: csr_of(n, &rounds.finished),
            log: rounds.log,
        };
        REPAIR_REPLAY_NS.record(clock.lap());
        Some(replay)
    }

    /// The push rounds on this solver's graph, re-pulling the rows `newly`
    /// lists (dirty from round 1, in any order, repeats allowed) and the
    /// rows they make dirty, and reading every other row's frontier from
    /// `log`; `tainted` marks `P ∪ N(P)` (see the module docs). Each round's
    /// frontier is cut row-major to the pushes the budget has left, and the
    /// cut pairs stay absorbed. Every pulled row is finished with its top
    /// `keep` entries (all for `None`).
    pub(crate) fn replay_rounds(
        &self,
        log: &FrontierLog,
        tainted: &[bool],
        mut newly: Vec<u32>,
        keep: Option<usize>,
    ) -> Rounds {
        LOCALPUSH_RUNS.inc();
        let graph = &self.graph;
        let n = graph.num_nodes();
        let inv_deg = inverse_degrees(graph);
        // `R = I` and every valid threshold is below 1: all diagonal pairs
        // cross it at once.
        let mut pushes = n.min(self.max_pushes);
        let mut cut = pushes < n;
        let mut frontiers = Frontiers {
            identity: (0..pushes as u32).map(|a| (a, 1.0)).collect(),
            rounds: Vec::new(),
        };
        let mut is_dirty = vec![false; n];
        let mut dirty: Vec<DirtyRow> = Vec::new();
        // One accumulator per concurrent task, kept for the whole run.
        let accumulators = Mutex::new(Vec::new());
        for t in 1.. {
            newly.retain(|&x| !replace(&mut is_dirty[x as usize], true));
            if !newly.is_empty() {
                let new = |x| DirtyRow {
                    x,
                    next_round: 1,
                    ..DirtyRow::default()
                };
                dirty.extend(newly.drain(..).map(new));
                dirty.sort_unstable_by_key(|row| row.x);
            }
            LOCALPUSH_ROUNDS.inc();
            self.pull_dirty_rows(
                &inv_deg,
                &frontiers,
                &mut dirty,
                Some(t),
                keep,
                &accumulators,
            );

            // Round `t + 1`'s frontier: the logged one of clean rows, the
            // replayed one of dirty rows, cut row-major to the budget left.
            let logged = log.rounds.get(t - 1);
            let clean = logged.into_iter().flatten();
            let clean = clean.filter(|(x, _)| !is_dirty[*x as usize]).cloned();
            let replayed = dirty.iter_mut().filter(|row| !row.crossed.is_empty());
            let mut next: FrontierRound = clean
                .chain(replayed.map(|row| (row.x, take(&mut row.crossed))))
                .collect();
            next.sort_unstable_by_key(|&(x, _)| x);
            let mut budget = self.max_pushes - pushes;
            next.retain_mut(|(_, pairs)| {
                cut |= pairs.len() > budget;
                pairs.truncate(budget);
                budget -= pairs.len();
                !pairs.is_empty()
            });
            pushes = self.max_pushes - budget;
            if next.is_empty() && (cut || logged.is_none()) {
                break;
            }
            for a in changed_or_tainted(logged, &next, tainted) {
                newly.extend_from_slice(graph.neighbors(a as usize));
            }
            frontiers.rounds.push(next);
        }
        self.pull_dirty_rows(&inv_deg, &frontiers, &mut dirty, None, keep, &accumulators);
        // Once a round is empty every later one is; a fresh run logs none
        // of them.
        frontiers.rounds.retain(|round| !round.is_empty());
        Rounds {
            rows: dirty.iter().map(|row| row.x).collect(),
            absorbs: dirty.iter().map(|row| row.absorbs).sum(),
            finished: dirty.into_iter().map(|row| row.finished).collect(),
            log: FrontierLog {
                rounds: frontiers.rounds,
                cut,
            },
            pushes,
        }
    }

    /// One pass over the dirty rows on the pool, each row owned by one
    /// task, which takes an accumulator from `accumulators` and puts it
    /// back. Pass `Some(t)` pulls every row through rounds `next_round..=t`,
    /// skipping a round in which none of its neighbours pushed; pass `None`
    /// comes after the last round. The task finishes each row once, with
    /// its top `keep` entries, and frees its state: right after its first
    /// pull if that crossed nothing, in pass `None` otherwise. A row whose
    /// state was freed and that a later round reaches is re-pulled from
    /// round 1 and held.
    fn pull_dirty_rows(
        &self,
        inv_deg: &[f32],
        frontiers: &Frontiers,
        dirty: &mut [DirtyRow],
        round: Option<usize>,
        keep: Option<usize>,
        accumulators: &Mutex<Vec<Accumulator>>,
    ) {
        let graph = &self.graph;
        let reached = |row: &DirtyRow, s: usize| {
            let neighbours = graph.neighbors(row.x as usize);
            neighbours.iter().any(|&a| !frontiers.get(s, a).is_empty())
        };
        // The rounds pass `t` pulls a row through.
        let rounds = |row: &DirtyRow, t: usize| match row.next_round {
            next if next == 1 || row.held => next..=t,
            next if (next..=t).any(|s| reached(row, s)) => 1..=t,
            _ => t + 1..=t,
        };
        let pull = |_: usize, block: &mut [DirtyRow]| {
            let spare = || accumulators.lock().expect("accumulator pool lock poisoned");
            let mut acc = spare().pop().unwrap_or_default();
            acc.resize(graph.num_nodes());
            let mut select_buf = Vec::new();
            for row in block {
                let fresh = row.next_round == 1;
                if let Some(t) = round {
                    let rounds = rounds(row, t);
                    if *rounds.start() == 1 {
                        row.absorbed = vec![(row.x, 1.0)];
                    }
                    for s in rounds {
                        row.crossed.clear();
                        if !reached(row, s) {
                            continue;
                        }
                        let frontier = |a: u32| frontiers.get(s, a);
                        let (kept, crossed) =
                            self.pull_row(inv_deg, frontier, &row.residual, row.x, &mut acc);
                        row.residual = kept;
                        if !crossed.is_empty() {
                            row.absorbed = merge_ordered(&row.absorbed, &crossed);
                        }
                        row.crossed = crossed;
                        row.held = true;
                    }
                    row.next_round = t + 1;
                }
                // The row's state is final unless a later round reaches it:
                // likely once its first pull crossed nothing (every row on
                // graphs where no off-diagonal pair crosses), certain after
                // the last round.
                let finished = match round {
                    Some(_) => fresh && row.crossed.is_empty(),
                    None => row.held,
                };
                if finished {
                    row.held = false;
                    row.absorbs = row.absorbed.len();
                    let finished = finish_row(row.x as usize, &row.absorbed, &row.residual);
                    row.finished =
                        select_top_k(&finished, keep, &mut select_buf).unwrap_or(finished);
                    (row.residual, row.absorbed) = (Vec::new(), Vec::new());
                }
            }
            spare().push(acc);
        };
        // Work per row, for the planner: a pass as long as the pulls' outer
        // loops, so a one-thread pool skips it.
        let pool = ThreadPool::global();
        if dirty.len() > 1 && pool.num_threads() > 1 {
            let work = |row: &DirtyRow| -> usize {
                let Some(t) = round else {
                    return 1 + row.absorbed.len() + row.residual.len();
                };
                let frontier = rounds(row, t).flat_map(|s| {
                    let neighbours = graph.neighbors(row.x as usize).iter();
                    neighbours.flat_map(move |&a| frontiers.get(s, a))
                });
                1 + frontier
                    .map(|&(b, _)| graph.degree(b as usize))
                    .sum::<usize>()
            };
            let weights: Vec<usize> = dirty.iter().map(work).collect();
            if pool.should_parallelize(weights.iter().sum()) {
                pool.par_row_blocks_mut_weighted(dirty, 1, &weights, pull);
                return;
            }
        }
        pull(0, dirty);
    }
}

/// The rows whose frontier in a replayed round differs, bit for bit, from
/// the logged one or holds a tainted pair: their neighbours are dirty from
/// that round on.
fn changed_or_tainted(
    logged: Option<&FrontierRound>,
    replayed: &FrontierRound,
    tainted: &[bool],
) -> Vec<u32> {
    let logged = logged.map_or(&[][..], Vec::as_slice);
    let mut rows: Vec<u32> = replayed.iter().chain(logged).map(|&(a, _)| a).collect();
    rows.sort_unstable();
    rows.dedup();
    rows.retain(|&a| {
        let pairs = pairs_of(replayed, a);
        // Residuals are positive and finite, so `!=` compares bits.
        pairs != pairs_of(logged, a) || pairs.iter().any(|&(b, _)| tainted[b as usize])
    });
    rows
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{SimRankConfig, SparseScores};
    use sigma_graph::Graph;
    use sigma_testutil::at_pool_width;
    use sigma_testutil::reference::{localpush_reference_at, top_k_reference};

    /// `graph` with `inserted` added and `deleted` removed.
    pub(crate) fn edit(
        graph: &Graph,
        inserted: &[(usize, usize)],
        deleted: &[(usize, usize)],
    ) -> Graph {
        let kept = graph.edges().filter(|e| !deleted.contains(e));
        let edges: Vec<(usize, usize)> = kept.chain(inserted.iter().copied()).collect();
        Graph::from_edges(graph.num_nodes(), &edges).unwrap()
    }

    /// A recorded run on `before`, replayed onto `after`.
    pub(crate) fn replay_onto(before: &Graph, after: &Graph, cfg: SimRankConfig) -> Replay {
        let edited: Vec<u32> = (0..before.num_nodes() as u32)
            .filter(|&u| before.neighbors(u as usize) != after.neighbors(u as usize))
            .collect();
        let (_, log) = LocalPush::new(before, cfg).unwrap().fresh_run(None);
        let mut solver = LocalPush::new(after, cfg).unwrap();
        let replay = solver.replay(&log, &edited, &mut Stopwatch::start());
        replay.expect("no push budget in play")
    }

    /// A 60-node ring with a chord every seventh node, degree 2–3: at
    /// ε = 0.005 pairs cross the threshold for several rounds.
    fn chorded_ring() -> Graph {
        let mut ring: Vec<(usize, usize)> = (0..60).map(|u| (u, (u + 1) % 60)).collect();
        ring.extend((0..60).step_by(7).map(|u| (u, (u + 17) % 60)));
        Graph::from_edges(60, &ring).unwrap()
    }

    #[test]
    fn repair_after_edit_matches_full_recomputation_bitwise() {
        // Every score row a full run on the edited graph changes — not only
        // the top-k rows — was replayed, to the full run's bits, so the
        // replayed rows spliced into the old operator are the full run's
        // operator; and the replay logs what the full run logs. A node cut
        // off, reattached, and chords added and removed.
        let g = chorded_ring();
        let cut_off = edit(&g, &[], &[(6, 7), (7, 8)]);
        let reattached = edit(&cut_off, &[(7, 30)], &[]);
        let chorded = edit(&g, &[(0, 30), (15, 45)], &[(20, 21)]);
        for (before, after) in [(&g, &cut_off), (&cut_off, &reattached), (&g, &chorded)] {
            for epsilon in [0.1, 0.02, 0.005] {
                let cfg = SimRankConfig::new(0.6, epsilon, Some(4)).unwrap();
                let replay = replay_onto(before, after, cfg);
                let old = LocalPush::new(before, cfg).unwrap().run();
                let new = LocalPush::new(after, cfg).unwrap().run();
                let (_, fresh_log) = LocalPush::new(after, cfg).unwrap().fresh_run(None);
                assert_eq!(replay.log, fresh_log, "ε {epsilon}: frontier log");
                let operator = new.to_csr(cfg.top_k);
                let spliced = old
                    .to_csr(cfg.top_k)
                    .replace_rows(&replay.rows, &replay.operator_rows);
                assert_eq!(spliced.unwrap(), operator, "ε {epsilon}: spliced operator");
                for u in 0..g.num_nodes() {
                    let bits = |s: &SparseScores| -> Vec<(usize, u32)> {
                        s.row(u).map(|(v, x)| (v, x.to_bits())).collect()
                    };
                    if replay.rows.binary_search(&u).is_err() {
                        assert_eq!(bits(&old), bits(&new), "ε {epsilon}: row {u} not replayed");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_affected_set_is_a_no_op() {
        // No node edited: nothing is dirty, nothing is pulled, and the log
        // carries over unchanged.
        let g = chorded_ring();
        for epsilon in [0.1, 0.005] {
            let cfg = SimRankConfig::new(0.6, epsilon, Some(4)).unwrap();
            let mut solver = LocalPush::new(&g, cfg).unwrap();
            let (_, log) = solver.fresh_run(None);
            let replay = solver.replay(&log, &[], &mut Stopwatch::start()).unwrap();
            assert!(replay.rows.is_empty() && replay.operator_rows.nnz() == 0);
            assert_eq!(replay.log, log, "ε {epsilon}");
            assert_eq!(solver.pushes_performed(), 0);
        }
    }

    #[test]
    fn rows_a_later_round_reaches_are_re_pulled_to_the_reference_bits() {
        // A row whose first pull crossed nothing is finished and frees its
        // state, and a later round's frontier reaches some such rows: hubs
        // beside leaves, and the Snap-patents preset. Those rows are
        // re-pulled from round 1; scores, operator, frontier log and pushes
        // stay the nested-loop reference's at every pool width.
        let power_law = sigma_testutil::power_law_graph(300, 60, 47);
        let patents = sigma_datasets::DatasetPreset::SnapPatents.build(0.2, 47);
        for g in [&power_law, &patents.unwrap().graph] {
            let cfg = SimRankConfig::new(0.6, 0.1, Some(8)).unwrap();
            let reference = localpush_reference_at(g, (0.6, 0.1), usize::MAX);
            let n = g.num_nodes();
            // Rows that push nothing in round 2 but neighbour a row that
            // pushes in round 2 or later.
            let pushing = |round: &FrontierRound, x: u32| round.iter().any(|(a, _)| *a == x);
            let re_pulled = (0..n as u32).filter(|&x| {
                let reached = |round| g.neighbors(x as usize).iter().any(|&a| pushing(round, a));
                !pushing(&reference.log[0], x) && reference.log.iter().any(reached)
            });
            assert!(re_pulled.count() > 0, "{n} nodes: no row is re-pulled");
            let bits = |row: &[(u32, f32)]| -> Vec<(u32, u32)> {
                row.iter().map(|&(v, s)| (v, s.to_bits())).collect()
            };
            for threads in [1, 2, 4] {
                at_pool_width(threads, || {
                    let what = format!("{n} nodes, {threads} threads");
                    let mut solver = LocalPush::new(g, cfg).unwrap();
                    let (scores, log) = solver.fresh_run(None);
                    assert_eq!(solver.pushes_performed(), reference.pushes, "{what}");
                    // Residuals are positive and finite, so `==` compares bits.
                    assert_eq!(log.rounds, reference.log, "{what}: frontier log");
                    assert!(!log.cut);
                    let operator = LocalPush::new(g, cfg).unwrap().run_to_operator();
                    for (u, want) in reference.rows.iter().enumerate() {
                        assert_eq!(bits(&scores[u]), bits(want), "{what}: score row {u}");
                        let got: Vec<(u32, f32)> =
                            operator.row_iter(u).map(|(v, s)| (v as u32, s)).collect();
                        let want = top_k_reference(want, cfg.top_k);
                        assert_eq!(bits(&got), bits(&want), "{what}: operator row {u}");
                    }
                });
            }
        }
    }
}
