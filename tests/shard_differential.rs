//! Cross-crate integration: the shard-generic differential oracle.
//!
//! An N-shard `ShardRouter` must be bitwise indistinguishable from a
//! single `InferenceEngine` — logits, labels, `most_similar` answers (ids
//! *and* score bits), operator rows, cache attribution, per-shard
//! hit/eviction accounting — through edit + incremental-repair traces, at
//! every shard count and every thread count, on both the decoded (owned)
//! and mapped (zero-copy v2) shard paths. The oracle
//! (`sigma_testutil::replay_differential_sharded`) asserts all of that per
//! batch, interleaving top-k similarity queries before and after each
//! repair round; this suite sweeps the dimensions and additionally pins
//! the *economics*: repair fan-out on a large sparse graph must be
//! footprint-sparse, measured through the router's `sigma_shard_*`
//! counters.

use sigma_testutil::{
    at_pool_width, random_graph, random_trace, replay_differential_sharded, TraceShape,
};

/// The tentpole sweep dimensions: shard counts including 1 (the router
/// degenerates to a façade over one engine) and 7 (odd, so ranges never
/// align with batch structure), thread counts covering the serial and
/// parallel kernel configurations.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 7];
const THREAD_COUNTS: &[usize] = &[1, 4];

fn sweep(mapped: bool, seed: u64) {
    let graph = random_graph(32, 10, seed);
    let shape = TraceShape {
        batches: 3,
        batch_len: 2,
        delete_probability: 0.4,
        readd_probability: 0.3,
    };
    let trace = random_trace(&graph, shape, seed);
    for &threads in THREAD_COUNTS {
        at_pool_width(threads, || {
            for &shards in SHARD_COUNTS {
                let report = replay_differential_sharded(&graph, &trace, 6, seed, shards, mapped);
                assert_eq!(
                    report.rounds,
                    trace.len(),
                    "shards={shards} threads={threads} mapped={mapped}"
                );
                assert_eq!(report.shards, shards);
                assert!(
                    report.repair_fanout > 0,
                    "shards={shards} threads={threads} mapped={mapped}: trace repaired nothing"
                );
            }
        });
    }
}

#[test]
fn router_is_bitwise_equal_to_one_engine_across_shards_and_threads() {
    sweep(false, 41);
}

#[test]
fn mapped_router_is_bitwise_equal_to_one_engine_across_shards_and_threads() {
    sweep(true, 43);
}

#[test]
fn more_shards_than_nodes_still_replays_exactly() {
    // 12 nodes behind 16 shards: the plan pads empty tail shards, which
    // must construct, receive zero traffic, and never repair.
    let graph = random_graph(12, 4, 11);
    let trace = random_trace(
        &graph,
        TraceShape {
            batches: 2,
            batch_len: 1,
            delete_probability: 0.5,
            readd_probability: 0.0,
        },
        11,
    );
    let report = replay_differential_sharded(&graph, &trace, 4, 11, 16, false);
    assert_eq!(report.rounds, trace.len());
    // At least the 4 always-empty tail shards are skipped every round.
    assert!(report.repair_skipped >= (trace.len() * 4) as u64);
}

#[test]
fn repair_fanout_is_footprint_sparse_on_the_incremental_repair_fixture() {
    // The 200-node fixture from tests/incremental_repair.rs: large and
    // sparse, so a localised edit's dirty row set covers a small
    // neighbourhood — most of 7 shards must be skipped, proven via the
    // sigma_shard_* fan-out counters the oracle folds into its report.
    let num_nodes = 200;
    let graph = random_graph(num_nodes, 15, 2024);
    let shape = TraceShape {
        batches: 4,
        batch_len: 2,
        delete_probability: 0.4,
        readd_probability: 0.3,
    };
    let trace = random_trace(&graph, shape, 2024);
    let shards = 7;
    let report = replay_differential_sharded(&graph, &trace, 6, 2024, shards, false);

    assert_eq!(report.rounds, 4);
    assert_eq!(report.num_nodes, num_nodes);
    assert_eq!(
        report.repair_fanout + report.repair_skipped,
        (report.rounds * shards) as u64,
        "every shard-round is either repaired or skipped"
    );
    // Footprint sparsity: localised edits must not fan out to the whole
    // fleet. (Correctness of every skip is asserted inside the oracle —
    // skipped ranges provably miss the reference dirty sets — so this
    // bound is purely about the economics.)
    assert!(
        report.repair_skipped > 0,
        "no shard was ever skipped: repair fan-out is not footprint-sparse \
         (fanout={}, skipped={})",
        report.repair_fanout,
        report.repair_skipped
    );
    // And the average repair touches well under half the rows, matching
    // the single-engine locality bound.
    let avg_patched = report.operator_rows_patched as f64 / report.rounds as f64;
    assert!(
        avg_patched < num_nodes as f64 / 2.0,
        "repair is not local: {avg_patched:.1} rows patched per round on {num_nodes} nodes"
    );
}
