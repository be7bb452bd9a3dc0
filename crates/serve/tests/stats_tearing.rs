//! Pins the documented `EngineStats` snapshot semantics (observability PR
//! satellite): snapshots are lock-free relaxed loads, so each counter is
//! individually monotone and exact, cross-counter identities hold once the
//! engine quiesces, and nothing more is promised while queries are in
//! flight. Also covers the counters this PR added (`cache_evictions`,
//! `repair_dirty_seeds`); the engine's registration in the process-wide
//! metrics registry is pinned by `registry_counters.rs`, a binary of its own.

use sigma_serve::{EngineConfig, EngineStats, InferenceEngine, ServeSnapshot};
use sigma_simrank::EdgeUpdate;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn engine(snapshot: &ServeSnapshot, cache_capacity: usize) -> InferenceEngine {
    InferenceEngine::new(
        snapshot,
        EngineConfig {
            cache_capacity,
            workers: 0,
            max_chunk: 8,
        },
    )
    .expect("engine")
}

fn assert_monotone(prev: &EngineStats, next: &EngineStats) {
    // Every field is a monotone counter: a later snapshot never observes a
    // smaller value, even when it tears against concurrent writers.
    let pairs = [
        ("nodes_served", prev.nodes_served, next.nodes_served),
        ("batches_served", prev.batches_served, next.batches_served),
        ("cache_hits", prev.cache_hits, next.cache_hits),
        ("cache_misses", prev.cache_misses, next.cache_misses),
        (
            "cache_evictions",
            prev.cache_evictions,
            next.cache_evictions,
        ),
        (
            "rows_invalidated",
            prev.rows_invalidated,
            next.rows_invalidated,
        ),
        (
            "operator_refreshes",
            prev.operator_refreshes,
            next.operator_refreshes,
        ),
        (
            "operator_repairs",
            prev.operator_repairs,
            next.operator_repairs,
        ),
        ("rows_repaired", prev.rows_repaired, next.rows_repaired),
        (
            "embedding_rows_repaired",
            prev.embedding_rows_repaired,
            next.embedding_rows_repaired,
        ),
        (
            "repair_dirty_seeds",
            prev.repair_dirty_seeds,
            next.repair_dirty_seeds,
        ),
    ];
    for (name, a, b) in pairs {
        assert!(a <= b, "{name} went backwards: {a} -> {b}");
    }
}

#[test]
fn snapshots_are_monotone_under_concurrent_load_and_exact_at_quiescence() {
    let graph = random_graph(24, 10, 7);
    let fixture = serving_fixture(&graph, 4, 7);
    let n = graph.num_nodes();
    let engine = Arc::new(engine(&fixture.snapshot, n));

    let stop = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..3)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let nodes: Vec<usize> = (0..n).map(|i| (i + t) % n).collect();
                let mut iters = 0u64;
                let mut nodes_queried = 0u64;
                loop {
                    let _ = engine.predict_batch(&nodes).expect("query");
                    nodes_queried += nodes.len() as u64;
                    let _ = engine.predict(t % n).expect("single query");
                    nodes_queried += 1;
                    iters += 1;
                    // Run at least a few rounds even if the reader finishes
                    // first, so quiescent identities have real traffic behind
                    // them.
                    if iters >= 8 && stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                nodes_queried
            })
        })
        .collect();

    // Reader: successive torn snapshots must still be per-field monotone.
    let mut prev = engine.stats();
    for _ in 0..200 {
        let next = engine.stats();
        assert_monotone(&prev, &next);
        prev = next;
    }

    stop.store(true, Ordering::Relaxed);
    let mut nodes_queried = 0u64;
    for handle in queriers {
        nodes_queried += handle.join().expect("querier");
    }

    // Quiesced: the documented cross-field identities hold exactly.
    let settled = engine.stats();
    assert_eq!(settled.nodes_served, nodes_queried);
    assert_eq!(
        settled.cache_hits + settled.cache_misses,
        settled.nodes_served,
        "every served node is exactly one hit or one miss"
    );
    assert!(settled.batches_served > 0);
}

#[test]
fn capacity_pressure_is_counted_as_evictions_not_invalidations() {
    let graph = random_graph(30, 8, 21);
    let fixture = serving_fixture(&graph, 4, 21);
    let n = graph.num_nodes();
    // Cache far smaller than the working set: sweeping all nodes twice must
    // displace live entries by LRU pressure alone.
    let engine = engine(&fixture.snapshot, 4);
    let all: Vec<usize> = (0..n).collect();
    let _ = engine.predict_batch(&all).expect("first sweep");
    let _ = engine.predict_batch(&all).expect("second sweep");
    let stats = engine.stats();
    assert!(
        stats.cache_evictions > 0,
        "an undersized cache must report LRU displacement"
    );
    assert_eq!(
        stats.rows_invalidated, 0,
        "no edits happened: correctness invalidations must stay at zero"
    );
    assert!(engine.cached_rows() <= 4);
}

#[test]
fn repair_accounts_dirty_seeds() {
    let graph = random_graph(22, 14, 31);
    let mut fixture = serving_fixture(&graph, 5, 31);
    let n = graph.num_nodes();
    let engine = engine(&fixture.snapshot, n);
    fixture
        .maintainer
        .apply(EdgeUpdate::Insert(0, n / 2))
        .expect("edit");
    let before = engine.stats();
    let repair = engine.repair_from(&mut fixture.maintainer).expect("repair");
    let after = engine.stats();
    assert!(!repair.full_refresh);
    assert_eq!(after.operator_repairs, before.operator_repairs + 1);
    assert!(
        after.repair_dirty_seeds > before.repair_dirty_seeds,
        "an edge insert must dirty at least the endpoint seeds"
    );
}
