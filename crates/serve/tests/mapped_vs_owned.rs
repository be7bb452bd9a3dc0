//! The zero-copy contract: an engine serving straight out of a mapped
//! snapshot is **observationally identical** to one built from the decoded
//! snapshot — bitwise-equal logits, equal repair reports, and equal cache
//! counters — through queries, edge updates, incremental repairs, and hot
//! reloads, at both serial and parallel kernel widths.
//!
//! The two engines are driven in lockstep from identically-seeded fixtures;
//! any divergence is a real divergence of the storage paths, since every
//! other input is shared.

use std::sync::Arc;

use sigma_serve::{
    EngineConfig, EngineStats, InferenceEngine, MappedSnapshot, Prediction, ServeSnapshot,
};
use sigma_testutil::{
    at_pool_width, random_graph, random_trace, serving_fixture, ServingFixture, TraceShape,
};

/// Writes the fixture snapshot (embeddings precomputed, so the mapped
/// engine cold-starts without running the encoder) and maps it back.
fn write_and_map(snapshot: &ServeSnapshot, name: &str) -> Arc<MappedSnapshot> {
    let path = std::env::temp_dir().join(name);
    snapshot.save(&path).unwrap();
    let mapped = Arc::new(MappedSnapshot::open(&path).unwrap());
    // The mapping holds the pages; the directory entry can go.
    let _ = std::fs::remove_file(&path);
    mapped
}

fn logits_bits(served: &[Prediction]) -> Vec<Vec<u32>> {
    served
        .iter()
        .map(|p| p.logits.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The counters both paths must agree on. `snapshot_reloads` is excluded
/// only because the scenarios reload the engines a different number of
/// times on purpose; every serving-path counter must match exactly.
fn serving_counters(stats: &EngineStats) -> [u64; 8] {
    [
        stats.nodes_served,
        stats.batches_served,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.rows_invalidated,
        stats.rows_repaired,
        stats.embedding_rows_repaired,
    ]
}

/// Drives an owned-storage and a mapped-storage engine through the same
/// query + edit + repair schedule at pool width `threads` and asserts
/// equality after every step. The width is held for the whole schedule:
/// `predict_batch` reads it on every call to decide whether to chunk (one
/// `batches_served` per chunk), so a width flipped by a sibling test between
/// the owned and the mapped engine's call is a counter divergence that
/// neither storage path caused.
fn run_differential(threads: usize, seed: u64) {
    at_pool_width(threads, || differential(threads, seed));
}

fn differential(threads: usize, seed: u64) {
    let graph = random_graph(36, 20, seed);
    let n = graph.num_nodes();
    let top_k = 6;

    // Two identically-seeded fixtures: one per engine, so each has its own
    // maintainer to repair from.
    let ServingFixture {
        mut snapshot,
        maintainer: mut owned_maintainer,
        ..
    } = serving_fixture(&graph, top_k, seed);
    let ServingFixture {
        maintainer: mut mapped_maintainer,
        ..
    } = serving_fixture(&graph, top_k, seed);
    snapshot.precompute_embeddings().unwrap();
    let mapped = write_and_map(
        &snapshot,
        &format!("sigma-mapped-vs-owned-{threads}-{seed}.snapshot"),
    );
    assert!(mapped.has_embeddings());

    let config = EngineConfig {
        cache_capacity: n,
        workers: 0,
        max_chunk: 16,
    };
    let owned = InferenceEngine::new(&snapshot, config).unwrap();
    let zero_copy = InferenceEngine::from_mapped(mapped.clone(), config).unwrap();
    let all: Vec<usize> = (0..n).collect();

    let assert_step = |step: &str| {
        let a = owned.predict_batch(&all).unwrap();
        let b = zero_copy.predict_batch(&all).unwrap();
        assert_eq!(logits_bits(&a), logits_bits(&b), "{step}: logits diverge");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.label, y.label, "{step}: labels diverge");
            assert_eq!(x.cached, y.cached, "{step}: cache behaviour diverges");
            assert_eq!(x.stale, y.stale, "{step}: staleness diverges");
        }
        assert_eq!(
            serving_counters(&owned.stats()),
            serving_counters(&zero_copy.stats()),
            "{step}: serving counters diverge"
        );
    };

    assert_eq!(owned.alpha().to_bits(), zero_copy.alpha().to_bits());
    assert_step("cold start");
    assert_step("warm cache");

    // Edge updates: targeted invalidation must evict the same rows.
    for batch in random_trace(&graph, TraceShape::default(), seed ^ 0xED17) {
        let a = owned.apply_edge_updates(&batch).unwrap();
        let b = zero_copy.apply_edge_updates(&batch).unwrap();
        assert_eq!(a, b, "edge updates invalidate different row counts");
        assert_eq!(owned.stale_nodes(), zero_copy.stale_nodes());
    }
    assert_step("after edge updates");

    // Incremental repair: the mapped engine promotes its stores
    // copy-on-write; the repaired results must still match the owned path
    // (and, transitively via the sigma-testutil oracle, a full refresh).
    for batch in random_trace(&graph, TraceShape::default(), seed ^ 0x9e37) {
        owned_maintainer.apply_batch(&batch).unwrap();
        mapped_maintainer.apply_batch(&batch).unwrap();
        let a = owned.repair_from(&mut owned_maintainer).unwrap();
        let b = zero_copy.repair_from(&mut mapped_maintainer).unwrap();
        assert_eq!(a, b, "repair reports diverge");
        assert_step("after incremental repair");
    }
    let op_a = owned.operator().unwrap();
    let op_b = zero_copy.operator().unwrap();
    assert_eq!(op_a.indptr(), op_b.indptr());
    assert_eq!(op_a.indices(), op_b.indices());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(op_a.values()), bits(op_b.values()));
}

#[test]
fn mapped_engine_is_bitwise_identical_to_owned_at_one_thread() {
    run_differential(1, 41);
}

#[test]
fn mapped_engine_is_bitwise_identical_to_owned_at_four_threads() {
    run_differential(4, 43);
}

#[test]
fn hot_reload_swaps_to_a_mapped_snapshot_between_queries() {
    let graph = random_graph(30, 16, 47);
    let n = graph.num_nodes();
    let ServingFixture { mut snapshot, .. } = serving_fixture(&graph, 6, 47);
    snapshot.precompute_embeddings().unwrap();
    let mapped = write_and_map(&snapshot, "sigma-hot-reload-mapped.snapshot");

    let engine = InferenceEngine::new(&snapshot, EngineConfig::default()).unwrap();
    let all: Vec<usize> = (0..n).collect();
    let before = engine.predict_batch(&all).unwrap();
    assert_eq!(engine.stats().snapshot_reloads, 0);

    // Reload onto the mapping: same snapshot content, new storage. The
    // first post-reload query recomputes every row (the cache was cleared
    // under the epoch guard) and must reproduce the pre-reload answers
    // bitwise.
    engine.hot_reload_mapped(mapped).unwrap();
    assert_eq!(engine.stats().snapshot_reloads, 1);
    assert_eq!(engine.cached_rows(), 0, "reload must clear the cache");
    let after = engine.predict_batch(&all).unwrap();
    assert_eq!(logits_bits(&before), logits_bits(&after));
    assert!(after.iter().all(|p| !p.cached && !p.stale));

    // And onto a second mapping of the same content.
    let mapped = write_and_map(&snapshot, "sigma-hot-reload-mapped-2.snapshot");
    engine.hot_reload_mapped(mapped).unwrap();
    assert_eq!(engine.stats().snapshot_reloads, 2);
    let again = engine.predict_batch(&all).unwrap();
    assert_eq!(logits_bits(&before), logits_bits(&again));
}

#[test]
fn hot_reload_rejects_mismatched_dimensions() {
    let ServingFixture { snapshot, .. } = serving_fixture(&random_graph(24, 10, 53), 6, 53);
    let ServingFixture {
        snapshot: other, ..
    } = serving_fixture(&random_graph(25, 10, 53), 6, 53);
    let engine = InferenceEngine::new(&snapshot, EngineConfig::default()).unwrap();
    let other = write_and_map(&other, "sigma-hot-reload-mismatch.snapshot");
    assert!(engine.hot_reload_mapped(other).is_err());
    // The failed reload must leave the engine serving.
    assert!(engine.predict(0).is_ok());
    assert_eq!(engine.stats().snapshot_reloads, 0);
}
