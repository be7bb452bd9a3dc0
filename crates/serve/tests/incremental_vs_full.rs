//! Proptest differential suite: incremental repair ≡ full refresh, bit for
//! bit, across random graphs, random edit traces, and thread counts.
//!
//! Every case runs the `sigma_testutil` oracle, which replays an edit trace
//! through a long-lived engine patched by `InferenceEngine::repair_from` and
//! through from-scratch recomputation on the edited graph, asserting after
//! each batch that the operator rows, every served logit, and the cache
//! observability counters agree exactly. The same trace is replayed with the
//! shared pool pinned to 1 and to 4 threads — repair must be bitwise
//! deterministic in the thread count too.

use proptest::prelude::*;
use sigma_simrank::EdgeUpdate;
use sigma_testutil::{at_pool_width, random_graph, random_trace, replay_differential, TraceShape};

/// Replays one trace at both pool widths and cross-checks the reports.
fn replay_at_both_widths(
    graph: &sigma_graph::Graph,
    trace: &[Vec<EdgeUpdate>],
    top_k: usize,
    seed: u64,
) {
    let serial = at_pool_width(1, || replay_differential(graph, trace, top_k, seed));
    let parallel = at_pool_width(4, || replay_differential(graph, trace, top_k, seed));
    // The oracle already asserted bitwise equality against the from-scratch
    // reference at each width; the widths must also agree with each other
    // on everything they observed.
    assert_eq!(serial, parallel, "repair diverged across thread counts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn incremental_repair_matches_full_refresh_bitwise(
        (num_nodes, extra_edges, seed) in (12usize..32, 4usize..24, 0u64..1_000_000),
        (batches, batch_len) in (1usize..4, 2usize..6),
    ) {
        let graph = random_graph(num_nodes, extra_edges, seed);
        let shape = TraceShape {
            batches,
            batch_len,
            ..TraceShape::default()
        };
        let trace = random_trace(&graph, shape, seed);
        replay_at_both_widths(&graph, &trace, 5, seed);
    }

    #[test]
    fn delete_heavy_traces_repair_exactly(
        seed in 0u64..1_000_000,
    ) {
        // Deletions shrink neighbourhoods and can empty operator rows; the
        // delete-then-readd shape must land back on the original bits.
        let graph = random_graph(20, 20, seed);
        let shape = TraceShape {
            batches: 3,
            batch_len: 4,
            delete_probability: 0.8,
            readd_probability: 0.5,
        };
        let trace = random_trace(&graph, shape, seed);
        replay_at_both_widths(&graph, &trace, 4, seed);
    }
}

#[test]
fn empty_trace_is_an_exact_no_op_at_both_widths() {
    let graph = random_graph(16, 8, 42);
    let trace = vec![Vec::new(), Vec::new()];
    let serial = at_pool_width(1, || replay_differential(&graph, &trace, 4, 42));
    let parallel = at_pool_width(4, || replay_differential(&graph, &trace, 4, 42));
    assert_eq!(serial, parallel);
    assert_eq!(serial.operator_rows_patched, 0);
    assert_eq!(serial.embedding_rows_patched, 0);
    assert_eq!(serial.cache_rows_invalidated, 0);
}

#[test]
fn delete_then_readd_within_one_batch_round_trips() {
    let graph = random_graph(18, 10, 7);
    // Explicit worst case for the bookkeeping: the same edge is deleted and
    // re-added in one batch (net no-op on topology, but both endpoints are
    // recorded as edited), plus genuine no-op edits around it.
    let trace = vec![vec![
        EdgeUpdate::Delete(0, 1),
        EdgeUpdate::Insert(0, 1),
        EdgeUpdate::Insert(3, 3),  // self-loop: pure no-op
        EdgeUpdate::Delete(2, 11), // likely absent: no-op unless generated
    ]];
    let serial = at_pool_width(1, || replay_differential(&graph, &trace, 5, 7));
    let parallel = at_pool_width(4, || replay_differential(&graph, &trace, 5, 7));
    assert_eq!(serial, parallel);
}
