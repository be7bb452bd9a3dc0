//! Cross-crate integration: a long dynamic-serving scenario driven through
//! the `sigma-testutil` differential oracle.
//!
//! A pokec-shaped graph takes a multi-batch stream of insertions and
//! deletions; after every batch the long-lived engine is patched by
//! `InferenceEngine::repair_from` and checked — operator rows, served
//! logits, cache counters — against a from-scratch rebuild. On a graph this
//! size the repair region must also be a small fraction of the graph, which
//! pins the economics of the repair path, not just its correctness.

use sigma_graph::Graph;
use sigma_simrank::{DecomposedScores, DynamicSimRank, EdgeUpdate, LocalPush, SimRankConfig};
use sigma_simrank::{RepairReport, SparseScores};
use sigma_testutil::reference::{assemble_row_reference, row_seed_index_reference};
use sigma_testutil::{random_graph, random_trace, replay_differential, TraceShape};

#[test]
fn long_edit_stream_repairs_exactly_and_locally() {
    // Large and sparse: the push horizon around an edit covers only a small
    // neighbourhood of the 200-node ring-plus-chords topology.
    let num_nodes = 200;
    let graph = random_graph(num_nodes, 15, 2024);
    let shape = TraceShape {
        batches: 4,
        batch_len: 2,
        delete_probability: 0.4,
        readd_probability: 0.3,
    };
    let trace = random_trace(&graph, shape, 2024);
    let report = replay_differential(&graph, &trace, 6, 2024);

    assert_eq!(report.rounds, 4);
    assert_eq!(report.num_nodes, num_nodes);
    // Correctness is asserted inside the oracle; here we pin locality: the
    // average repair must touch well under half the operator rows.
    let avg_patched = report.operator_rows_patched as f64 / report.rounds as f64;
    assert!(
        avg_patched < num_nodes as f64 / 2.0,
        "repair is not local: {avg_patched:.1} rows patched per round on {num_nodes} nodes"
    );
    // Embedding repair is strictly first-order: at most two rows per edit.
    assert!(report.embedding_rows_patched <= report.rounds * shape.batch_len * 2);
    assert!(report.full_recompute_pushes > 0);
}

#[test]
fn repair_survives_densification_of_a_sparse_region() {
    // Repeated insertions around one hub: the repair region grows with the
    // hub's reach but the differential contract must keep holding.
    let graph = random_graph(40, 5, 7);
    let trace: Vec<Vec<sigma_simrank::EdgeUpdate>> = (0..3)
        .map(|round| {
            (0..3)
                .map(|i| sigma_simrank::EdgeUpdate::Insert(0, 3 + 3 * round + i))
                .collect()
        })
        .collect();
    let report = replay_differential(&graph, &trace, 5, 7);
    assert_eq!(report.rounds, 3);
    assert!(report.operator_rows_patched > 0);
}

/// Asserts every score row bitwise-equal to the scan-every-seed reference
/// assembly and the row → seed index equal to one rebuilt from scratch.
fn assert_matches_reference(decomposed: &DecomposedScores, scores: &SparseScores, when: &str) {
    let index = row_seed_index_reference(decomposed);
    for (u, seeds) in index.iter().enumerate() {
        assert_eq!(
            decomposed.contributing_seeds(u),
            seeds.as_slice(),
            "{when}: row -> seed index of row {u}"
        );
        let bits = |row: Vec<(u32, f32)>| -> Vec<(u32, u32)> {
            row.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
        };
        assert_eq!(
            bits(scores.row(u).map(|(v, s)| (v as u32, s)).collect()),
            bits(assemble_row_reference(decomposed, u)),
            "{when}: score row {u}"
        );
    }
}

/// Replays `trace` batch by batch through `LocalPush::repair` +
/// `assemble_rows_into`, checking the whole state against the reference
/// after every round (`inspect` sees the decomposition then too). Returns
/// the reports for shape assertions.
fn replay_against_reference(
    graph: &Graph,
    config: SimRankConfig,
    trace: &[Vec<EdgeUpdate>],
    mut inspect: impl FnMut(usize, &DecomposedScores),
) -> Vec<RepairReport> {
    let mut decomposed = LocalPush::new(graph, config).unwrap().run_decomposed();
    let mut scores = decomposed.assemble();
    assert_matches_reference(&decomposed, &scores, "initial assembly");
    // The maintainer is only the graph editor here; its own scores stay unused.
    let mut editor = DynamicSimRank::new(graph.clone(), config, usize::MAX).unwrap();
    let mut reports = Vec::new();
    for (round, batch) in trace.iter().enumerate() {
        editor.apply_batch(batch).unwrap();
        let endpoints: Vec<usize> = batch
            .iter()
            .flat_map(|&(EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v))| [u, v])
            .collect();
        let report = LocalPush::new(editor.graph(), config)
            .unwrap()
            .repair(&mut decomposed, &endpoints)
            .unwrap();
        let work = decomposed.assemble_rows_into(&mut scores, &report.changed_rows);
        let listed: usize = report
            .changed_rows
            .iter()
            .map(|&row| decomposed.contributing_seeds(row).len())
            .sum();
        assert_eq!(work.runs_visited, listed, "round {round}: runs visited");
        assert_matches_reference(&decomposed, &scores, &format!("round {round}"));
        inspect(round, &decomposed);
        reports.push(report);
    }
    // The patched decomposition is the one a fresh run would build.
    let fresh = LocalPush::new(editor.graph(), config)
        .unwrap()
        .run_decomposed();
    assert_matches_reference(&fresh, &scores, "fresh run on the final graph");
    reports
}

#[test]
fn assembly_and_index_match_the_reference_over_random_edit_streams() {
    let shape = TraceShape {
        batches: 4,
        batch_len: 3,
        delete_probability: 0.45,
        readd_probability: 0.4,
    };
    for (seed, nodes, chords, epsilon) in [
        (11u64, 30usize, 12usize, 0.1f64),
        (12, 48, 30, 0.02),
        (13, 24, 60, 0.1),
    ] {
        let graph = random_graph(nodes, chords, seed);
        let config = SimRankConfig::new(0.6, epsilon, Some(6)).unwrap();
        let trace = random_trace(&graph, shape, seed);
        let reports = replay_against_reference(&graph, config, &trace, |_, _| {});
        assert!(
            reports.iter().any(|r| !r.dirty_seeds.is_empty()),
            "seed {seed}: the trace changed nothing"
        );
    }
}

#[test]
fn assembly_and_index_survive_rows_leaving_and_entering_a_seed() {
    let graph = random_graph(36, 10, 5);
    let config = SimRankConfig::new(0.6, 0.02, None).unwrap();
    let cut: Vec<EdgeUpdate> = graph
        .neighbors(7)
        .iter()
        .map(|&w| EdgeUpdate::Delete(7, w as usize))
        .collect();
    let trace = vec![
        // Node 7 loses every edge: seed 7 shrinks to its own diagonal and
        // leaves the seed list of every row it used to reach.
        cut.clone(),
        // ... and comes back, re-entering them (delete-then-re-add across
        // rounds, where the dirty seeds' old and new row sets differ).
        cut.iter()
            .map(|&update| match update {
                EdgeUpdate::Delete(u, v) => EdgeUpdate::Insert(u, v),
                insert => insert,
            })
            .collect(),
        // Densification of a sparse region: a hub grows around node 0.
        (0..6).map(|i| EdgeUpdate::Insert(0, 12 + 3 * i)).collect(),
        (0..6).map(|i| EdgeUpdate::Insert(0, 13 + 3 * i)).collect(),
    ];
    let mut reach = Vec::new();
    let reports = replay_against_reference(&graph, config, &trace, |_, decomposed| {
        reach.push(decomposed.seed_runs()[7].rows().to_vec());
    });
    assert_eq!(reach[0], [7], "an isolated seed reaches only its diagonal");
    assert!(reach[1].len() > 1, "re-attached, seed 7 reaches other rows");
    assert!(reports[0].dirty_seeds.contains(&7));
    assert!(reports[1].dirty_seeds.contains(&7));
}
