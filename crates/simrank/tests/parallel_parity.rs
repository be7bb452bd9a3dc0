//! Serial/parallel parity for the LocalPush SimRank solver.
//!
//! A LocalPush round is a row-wise sparse product: every output row is owned
//! by exactly one task that sums in one canonical order, so the approximate
//! scores must be **bitwise identical** under any `SIGMA_NUM_THREADS` — and
//! identical to the nested-loop reference of that order in `sigma-testutil`.
//! These tests force the global pool to 1, 2 and 4 threads (each through
//! `sigma_testutil::at_pool_width`, so no two of them race the process-wide
//! width) and compare `f32` bit patterns, push counts, and the materialised
//! top-k operator — the latter also against the sort-the-row top-k
//! reference.

use sigma_datasets::DatasetPreset;
use sigma_graph::Graph;
use sigma_matrix::CsrMatrix;
use sigma_simrank::{
    DynamicSimRank, EdgeUpdate, LocalPush, RepairOutcome, SimRankConfig, SparseScores,
};
use sigma_testutil::reference::{localpush_reference, top_k_reference};
use sigma_testutil::{at_pool_width, power_law_graph};

/// A 200-node ring with six chord offsets: the first round's pull work
/// exceeds the pool's dispatch floor, so rounds genuinely split across tasks.
fn chorded_ring(n: usize) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for step in [1usize, 2, 3, 5, 8, 13] {
            edges.push((u, (u + step) % n));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// A small irregular graph with isolated nodes and degree skew.
fn irregular_graph() -> Graph {
    Graph::from_edges(
        16,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 5),
            (10, 11),
            // Nodes 12–15 are isolated.
        ],
    )
    .unwrap()
}

fn run_at(g: &Graph, cfg: SimRankConfig, threads: usize) -> (SparseScores, usize) {
    at_pool_width(threads, || {
        let mut solver = LocalPush::new(g, cfg).unwrap();
        let scores = solver.run();
        (scores, solver.pushes_performed())
    })
}

fn assert_scores_bitwise_eq(a: &SparseScores, b: &SparseScores, what: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: node count");
    assert_eq!(a.nnz(), b.nnz(), "{what}: stored entry count");
    for u in 0..a.num_nodes() {
        let mut row_a: Vec<(usize, u32)> = a.row(u).map(|(v, s)| (v, s.to_bits())).collect();
        let mut row_b: Vec<(usize, u32)> = b.row(u).map(|(v, s)| (v, s.to_bits())).collect();
        row_a.sort_unstable();
        row_b.sort_unstable();
        assert_eq!(row_a, row_b, "{what}: row {u} differs");
    }
}

#[test]
fn localpush_scores_are_bitwise_identical_across_thread_counts() {
    let g = chorded_ring(200);
    let cfg = SimRankConfig::default();
    let (serial, serial_pushes) = run_at(&g, cfg, 1);
    let (parallel, parallel_pushes) = run_at(&g, cfg, 4);
    assert_eq!(
        serial_pushes, parallel_pushes,
        "the deterministic round schedule must perform the same pushes"
    );
    assert_scores_bitwise_eq(&serial, &parallel, "chorded ring");
}

#[test]
fn localpush_operator_is_identical_across_a_thread_sweep() {
    let g = chorded_ring(150);
    let cfg = SimRankConfig::default().with_top_k(8);
    let operator_at = |threads| {
        at_pool_width(threads, || {
            LocalPush::new(&g, cfg).unwrap().run_to_operator()
        })
    };
    let reference = operator_at(1);
    for threads in [2usize, 4, 8] {
        // CSR equality is structural + exact f32 values.
        assert_eq!(
            reference,
            operator_at(threads),
            "top-k operator differs at {threads} threads"
        );
    }
}

#[test]
fn localpush_parity_holds_on_irregular_graphs_and_tight_epsilon() {
    let g = irregular_graph();
    for cfg in [
        SimRankConfig::default(),
        SimRankConfig::new(0.6, 0.005, Some(4)).unwrap(),
        SimRankConfig::new(0.8, 0.02, None).unwrap(),
    ] {
        let (serial, serial_pushes) = run_at(&g, cfg, 1);
        let (parallel, parallel_pushes) = run_at(&g, cfg, 4);
        assert_eq!(serial_pushes, parallel_pushes);
        assert_scores_bitwise_eq(&serial, &parallel, "irregular graph");
    }
}

#[test]
fn replay_is_bitwise_identical_across_thread_counts() {
    // At ε = 0.1 the chorded ring has one round; at ε = 0.005 the sparse
    // ring has several, and rows turn dirty in late rounds.
    let mut sparse: Vec<(usize, usize)> = (0..300).map(|u| (u, (u + 1) % 300)).collect();
    sparse.extend((0..300).step_by(7).map(|u| (u, (u + 40) % 300)));
    for (g, cfg) in [
        (chorded_ring(120), SimRankConfig::default().with_top_k(8)),
        (
            Graph::from_edges(300, &sparse).unwrap(),
            SimRankConfig::new(0.6, 0.005, Some(8)).unwrap(),
        ),
    ] {
        let edits = [
            EdgeUpdate::Insert(0, 60),
            EdgeUpdate::Delete(10, 11),
            EdgeUpdate::Insert(90, 115),
        ];
        let repaired_at = |threads| {
            at_pool_width(threads, || {
                let mut maintainer = DynamicSimRank::new(g.clone(), cfg, usize::MAX).unwrap();
                let _ = maintainer.operator().unwrap();
                maintainer.apply_batch(&edits).unwrap();
                let outcome = maintainer.repair().unwrap();
                (outcome, maintainer.operator().unwrap())
            })
        };
        let (serial, serial_operator) = repaired_at(1);
        let (parallel, parallel_operator) = repaired_at(4);
        assert!(matches!(serial, RepairOutcome::Patched(_)));
        assert_eq!(serial, parallel, "the repair reports differ");
        assert_eq!(serial_operator, parallel_operator, "repaired operator");
    }
}

/// A hub-dominated ("skewed-degree") graph: a few hubs adjacent to large
/// spoke fans plus a connecting ring. Seed costs and score-row widths are
/// maximally uneven, exercising the weighted seed scheduler, the
/// nnz-balanced `rows_to_csr` planner, and the work-weighted row pull.
fn hub_graph(n: usize, hubs: usize) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        edges.push((u, (u + 1) % n));
    }
    for h in 0..hubs {
        for spoke in (hubs..n).step_by(hubs) {
            edges.push((h, (spoke + h) % n));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

#[test]
fn localpush_parity_holds_on_skewed_degree_graphs() {
    let g = hub_graph(160, 3);
    let cfg = SimRankConfig::default().with_top_k(8);
    let (serial, serial_pushes) = run_at(&g, cfg, 1);
    let (parallel, parallel_pushes) = run_at(&g, cfg, 4);
    assert_eq!(serial_pushes, parallel_pushes);
    assert_scores_bitwise_eq(&serial, &parallel, "hub graph");
    // The materialised operator (weighted rows_to_csr) agrees too.
    let op_serial = at_pool_width(1, || serial.to_csr(Some(8)));
    let op_parallel = at_pool_width(4, || parallel.to_csr(Some(8)));
    assert_eq!(op_serial, op_parallel, "hub-graph top-k operator");
}

#[test]
fn localpush_push_budget_is_thread_count_independent() {
    let g = chorded_ring(150);
    let cfg = SimRankConfig::default();
    for budget in [5usize, 100, 1000] {
        let budgeted_at = |threads| {
            at_pool_width(threads, || {
                let mut solver = LocalPush::new(&g, cfg).unwrap().with_max_pushes(budget);
                let scores = solver.run();
                (scores, solver.pushes_performed())
            })
        };
        let (serial_scores, serial_pushes) = budgeted_at(1);
        let (parallel_scores, parallel_pushes) = budgeted_at(4);
        assert_eq!(serial_pushes, parallel_pushes);
        assert!(serial_pushes <= budget);
        assert_scores_bitwise_eq(&serial_scores, &parallel_scores, "budgeted run");
    }
}

/// `(column, value bits)` of every stored entry of one row.
fn row_bits(row: impl IntoIterator<Item = (u32, f32)>) -> Vec<(u32, u32)> {
    row.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
}

/// Every row of `operator` (row `i` expected to be `want[i]`), bit for bit.
fn assert_operator_rows(operator: &CsrMatrix, want: &[Vec<(u32, u32)>], what: &str) {
    assert_eq!(operator.rows(), want.len(), "{what}: row count");
    for (i, want) in want.iter().enumerate() {
        let got = row_bits(operator.row_iter(i).map(|(v, s)| (v as u32, s)));
        assert_eq!(&got, want, "{what}: row {i}");
    }
}

/// At 1, 2 and 4 threads, against the nested-loop reference of the
/// canonical summation order and the sort-the-row top-k reference: `run()`
/// (score bits and push count); its `to_csr` and a `rows_to_csr` slice,
/// each at top `top_k` and with no top-k cut (every entry the relative
/// prune left); and `run_to_operator()` at top `top_k`.
fn assert_matches_reference(
    g: &Graph,
    cfg: SimRankConfig,
    max_pushes: usize,
    top_k: usize,
    what: &str,
) {
    let reference = localpush_reference(g, cfg, max_pushes);
    let operator_rows = |k| -> Vec<Vec<(u32, u32)>> {
        let rows = reference.rows.iter();
        rows.map(|row| row_bits(top_k_reference(row, k))).collect()
    };
    let (want_scores, want_top_k) = (operator_rows(None), operator_rows(Some(top_k)));
    // Out of order, with repeats, every third row.
    let n = g.num_nodes();
    let slice: Vec<usize> = (0..n).rev().step_by(3).chain([0, 0, n / 2]).collect();
    for threads in [1usize, 2, 4] {
        at_pool_width(threads, || {
            let what = format!("{what} at {threads} threads");
            let mut solver = LocalPush::new(g, cfg).unwrap().with_max_pushes(max_pushes);
            let scores = solver.run();
            assert_eq!(
                solver.pushes_performed(),
                reference.pushes,
                "{what}: pushes"
            );
            for (u, want) in want_scores.iter().enumerate() {
                let got = row_bits(scores.row(u).map(|(v, s)| (v as u32, s)));
                assert_eq!(&got, want, "{what}: score row {u}");
            }
            for (k, want) in [(None, &want_scores), (Some(top_k), &want_top_k)] {
                let what = format!("{what}, top-k {k:?}");
                assert_operator_rows(&scores.to_csr(k), want, &format!("{what}, to_csr"));
                let want_slice: Vec<_> = slice.iter().map(|&u| want[u].clone()).collect();
                assert_operator_rows(
                    &scores.rows_to_csr(&slice, k),
                    &want_slice,
                    &format!("{what}, rows_to_csr"),
                );
            }
            let operator = LocalPush::new(g, cfg.with_top_k(top_k))
                .unwrap()
                .with_max_pushes(max_pushes)
                .run_to_operator();
            assert_operator_rows(&operator, &want_top_k, &format!("{what}, run_to_operator"));
        });
    }
}

#[test]
fn localpush_matches_the_reference_on_a_power_law_graph() {
    // Σ deg² is far above the pool's dispatch floor, so the first round
    // splits across tasks with very uneven row weights.
    let g = power_law_graph(500, 150, 47);
    assert_matches_reference(&g, SimRankConfig::default(), usize::MAX, 8, "power law");
}

#[test]
fn localpush_matches_the_reference_over_many_sparse_rounds() {
    // Degree 2–3 and a tight ε: off-diagonal pairs stay above the threshold
    // for several rounds, so rows carry residual from round to round, most
    // rows sit out the late rounds, and some pairs are absorbed twice — the
    // absorb log then holds a column twice, and the sweep's summation order
    // (absorbs in round order, then the residual) shows in the bits.
    let mut edges: Vec<(usize, usize)> = (0..300).map(|u| (u, (u + 1) % 300)).collect();
    edges.extend((0..300).step_by(7).map(|u| (u, (u + 40) % 300)));
    let g = Graph::from_edges(300, &edges).unwrap();
    let cfg = SimRankConfig::new(0.6, 0.005, None).unwrap();
    let reference = localpush_reference(&g, cfg, usize::MAX);
    assert!(reference.rounds >= 3, "only {} rounds", reference.rounds);
    assert!(
        reference.pushes > g.num_nodes(),
        "no off-diagonal pair was pushed"
    );
    assert_matches_reference(&g, cfg, usize::MAX, 8, "sparse rounds");
}

#[test]
fn localpush_matches_the_reference_when_the_budget_cuts_a_round() {
    let g = chorded_ring(150);
    let cfg = SimRankConfig::new(0.6, 0.01, None).unwrap();
    let unbounded = localpush_reference(&g, cfg, usize::MAX);
    assert!(unbounded.rounds >= 2);
    // Inside the first round, and part-way through the row-major frontier
    // of the second.
    for budget in [97, g.num_nodes() + (unbounded.pushes - g.num_nodes()) / 3] {
        assert!(budget < unbounded.pushes);
        assert_eq!(localpush_reference(&g, cfg, budget).pushes, budget);
        assert_matches_reference(&g, cfg, budget, 8, "budgeted");
    }
}

#[test]
fn localpush_matches_the_reference_with_isolated_nodes() {
    for cfg in [
        SimRankConfig::default(),
        SimRankConfig::new(0.8, 0.005, None).unwrap(),
    ] {
        assert_matches_reference(&irregular_graph(), cfg, usize::MAX, 4, "isolated nodes");
    }
}

#[test]
fn localpush_matches_the_reference_on_the_pokec_preset() {
    // The `learn_pokec` benchmark's generator and SimRank settings at a
    // third of its size: rows hundreds of entries wide, a top-16 cut.
    let g = DatasetPreset::Pokec.build(0.5, 47).unwrap().graph;
    let cfg = SimRankConfig::new(0.6, 0.1, None).unwrap();
    assert_matches_reference(&g, cfg, usize::MAX, 16, "pokec preset");
}
