//! Cross-crate integration: a long dynamic-serving scenario driven through
//! the `sigma-testutil` differential oracle.
//!
//! A pokec-shaped graph takes a multi-batch stream of insertions and
//! deletions; after every batch the long-lived engine is patched by
//! `InferenceEngine::repair_from` and checked — operator rows, served
//! logits, cache counters — against a from-scratch rebuild. On a graph this
//! size the repair region must also be a small fraction of the graph, which
//! pins the economics of the repair path, not just its correctness. The
//! maintainer alone is held to the coupled LocalPush run on random edit
//! streams, a node leaving and rejoining the graph, and a growing hub.

use sigma_simrank::{DynamicSimRank, EdgeUpdate, SimRankConfig};
use sigma_testutil::{
    random_graph, random_trace, replay_differential, replay_maintainer, TraceShape,
};

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

#[test]
fn replay_matches_the_coupled_run_over_random_edit_streams() {
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
        let report = replay_maintainer(&graph, config, &trace);
        assert!(
            report.rows_changed > 0,
            "seed {seed}: the trace changed nothing"
        );
    }
}

#[test]
fn replay_survives_a_node_leaving_and_rejoining_the_graph() {
    let graph = random_graph(36, 10, 5);
    let config = SimRankConfig::new(0.6, 0.02, Some(6)).unwrap();
    let cut: Vec<EdgeUpdate> = graph
        .neighbors(7)
        .iter()
        .map(|&w| EdgeUpdate::Delete(7, w as usize))
        .collect();
    let trace = vec![
        // Node 7 loses every edge: its row shrinks to its own diagonal and
        // it leaves every frontier it used to push into.
        cut.clone(),
        // ... and comes back (delete-then-re-add across rounds).
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
    let report = replay_maintainer(&graph, config, &trace);
    assert_eq!(report.rounds, trace.len());
    // Isolated, node 7 is similar to itself alone.
    let mut maintainer = DynamicSimRank::new(graph, config, usize::MAX).unwrap();
    maintainer.apply_batch(&trace[0]).unwrap();
    let _ = maintainer.repair().unwrap();
    let operator = maintainer.operator().unwrap();
    assert_eq!(operator.row_iter(7).collect::<Vec<_>>(), [(7, 1.0)]);
}
