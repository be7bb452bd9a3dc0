//! Behavioural contracts of the in-process [`ShardRouter`] that the
//! differential oracle does not pin directly:
//!
//! * a **no-op edit trace** (deletes of absent edges, duplicate inserts,
//!   self-loops — everything the maintainer records as *nothing*) must fan
//!   repair out to **zero** shards, observable through the
//!   `sigma_shard_repair_*` counters;
//! * construction with **more shards than nodes** pads empty-range engines
//!   that never panic and never receive traffic;
//! * the façade preserves the engine's typed error surface
//!   ([`ServeError::InvalidQuery`], [`ServeError::ShardConfig`]);
//! * edge-update fan-out invalidates exactly what one engine would, while
//!   skipping footprint-free shards;
//! * a router **nobody has touched** reports nothing: construction is not
//!   a refresh, whichever constructor built it;
//! * a mapped fleet must map **one artifact**: same dimensions are not
//!   enough;
//! * a repair **touches** exactly the shards whose range meets its
//!   footprint — nodes it un-stales included.

use sigma_serve::{
    EngineConfig, InferenceEngine, MappedSnapshot, Prediction, ServeError, ShardRouter,
    ShardRouterConfig,
};
use sigma_simrank::EdgeUpdate;
use sigma_testutil::{random_graph, serving_fixture};

fn engine_config(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        cache_capacity,
        workers: 0,
        max_chunk: 64,
    }
}

fn assert_bitwise_eq(a: &Prediction, b: &Prediction) {
    assert_eq!(a.node, b.node);
    assert_eq!(a.label, b.label);
    let bits_a: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "logits diverge at node {}", a.node);
}

#[test]
fn noop_edits_fan_repair_out_to_zero_shards() {
    let graph = random_graph(30, 8, 7);
    let fixture = serving_fixture(&graph, 5, 7);
    let mut maintainer = fixture.maintainer;
    let shards = 4;
    let router = ShardRouter::new(
        &fixture.snapshot,
        &ShardRouterConfig {
            shards,
            engine: engine_config(30),
        },
    )
    .expect("router construction");

    // Pure no-op edits: the maintainer's graph never changes, so
    // `affected_nodes()` / `edited_nodes()` stay empty.
    let (u, v) = graph.edges().next().expect("graph has edges");
    let mut absent = None;
    'outer: for a in 0..30usize {
        for b in (a + 1)..30 {
            if !graph.has_edge(a, b) {
                absent = Some((a, b));
                break 'outer;
            }
        }
    }
    let (a, b) = absent.expect("a 30-node degree-8 graph is not complete");
    maintainer.apply(EdgeUpdate::Delete(a, b)).unwrap(); // missing delete
    maintainer.apply(EdgeUpdate::Insert(u, v)).unwrap(); // duplicate insert
    maintainer.apply(EdgeUpdate::Insert(3, 3)).unwrap(); // self-loop
    assert!(maintainer.affected_nodes().is_empty(), "edits were no-ops");

    let repair = router.repair_from(&mut maintainer).expect("repair");
    assert!(!repair.full_refresh);
    assert_eq!(repair.fanout, 0, "no-op edits must touch no shard");
    assert_eq!(repair.skipped, shards);
    assert!(repair.operator_rows.is_empty());
    assert!(repair.shard_repairs.iter().all(Option::is_none));

    let stats = router.stats();
    assert_eq!(stats.repair_fanout, 0, "sigma_shard_repair_fanout_total");
    assert_eq!(
        stats.repair_skipped, shards as u64,
        "sigma_shard_repair_skipped_total"
    );
    assert_eq!(stats.repair_dirty_seeds, 0);
    assert_eq!(stats.engines.operator_repairs, 0);
    assert_eq!(stats.engines.rows_repaired, 0);
}

#[test]
fn more_shards_than_nodes_pads_idle_engines_without_panicking() {
    let graph = random_graph(6, 3, 13);
    let fixture = serving_fixture(&graph, 3, 13);
    let shards = 16;
    let router = ShardRouter::new(
        &fixture.snapshot,
        &ShardRouterConfig {
            shards,
            engine: engine_config(6),
        },
    )
    .expect("16 shards over 6 nodes must construct");
    assert_eq!(router.num_shards(), shards);
    assert_eq!(router.num_nodes(), 6);

    let reference = InferenceEngine::new(&fixture.snapshot, engine_config(6)).unwrap();
    let nodes: Vec<usize> = (0..6).collect();
    let routed = router.predict_batch(&nodes).expect("batch");
    let expected = reference.predict_batch(&nodes).expect("reference batch");
    for (a, b) in routed.iter().zip(&expected) {
        assert_bitwise_eq(a, b);
    }
    // Empty-range tail shards exist but never serve.
    let stats = router.stats();
    assert_eq!(stats.per_shard.len(), shards);
    let idle = stats
        .per_shard
        .iter()
        .zip(router.plan().ranges())
        .filter(|(s, range)| range.is_empty() && s.nodes_served == 0)
        .count();
    assert!(
        idle >= shards - 6,
        "at least {} tail shards must stay idle, saw {idle}",
        shards - 6
    );
    assert_eq!(stats.engines.nodes_served, 6);
    assert_eq!(stats.queries_routed, 6);
    assert_eq!(stats.batches_routed, 1);
}

#[test]
fn router_preserves_the_typed_error_surface() {
    let graph = random_graph(12, 4, 3);
    let fixture = serving_fixture(&graph, 4, 3);

    // Zero shards is a configuration error, not a panic.
    let err = ShardRouter::new(
        &fixture.snapshot,
        &ShardRouterConfig {
            shards: 0,
            engine: engine_config(12),
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ServeError::ShardConfig { shards: 0, .. }),
        "zero shards must surface as ShardConfig, got {err}"
    );
    assert!(err.to_string().contains("shard"));

    // An empty mapped fleet is equally typed.
    let err = ShardRouter::from_mapped(Vec::new(), engine_config(12)).unwrap_err();
    assert!(matches!(err, ServeError::ShardConfig { shards: 0, .. }));

    // Out-of-range queries return InvalidQuery from both entry points.
    let router = ShardRouter::new(
        &fixture.snapshot,
        &ShardRouterConfig {
            shards: 3,
            engine: engine_config(12),
        },
    )
    .unwrap();
    for err in [
        router.predict(12).unwrap_err(),
        router.predict_batch(&[0, 1, 99]).unwrap_err(),
    ] {
        match err {
            ServeError::InvalidQuery { node, num_nodes } => {
                assert!(node >= 12);
                assert_eq!(num_nodes, 12);
            }
            other => panic!("expected InvalidQuery, got {other}"),
        }
    }
    // A rejected batch serves nothing and routes nothing.
    assert_eq!(router.stats().queries_routed, 0);
}

#[test]
fn edge_update_fanout_invalidates_exactly_what_one_engine_would() {
    let graph = random_graph(40, 6, 21);
    let fixture = serving_fixture(&graph, 5, 21);
    let shards = 5;
    let router = ShardRouter::new(
        &fixture.snapshot,
        &ShardRouterConfig {
            shards,
            engine: engine_config(40),
        },
    )
    .unwrap();
    let reference = InferenceEngine::new(&fixture.snapshot, engine_config(40)).unwrap();

    // Warm every cache on both sides so invalidation counts are comparable.
    let nodes: Vec<usize> = (0..40).collect();
    let routed = router.predict_batch(&nodes).unwrap();
    let expected = reference.predict_batch(&nodes).unwrap();
    for (a, b) in routed.iter().zip(&expected) {
        assert_bitwise_eq(a, b);
    }
    assert_eq!(router.cached_rows(), reference.cached_rows());

    // One real edit: the router invalidates the same number of cached rows
    // as the single engine, marks the same nodes stale, and skips every
    // shard the footprint provably misses.
    let (u, v) = graph.edges().next().expect("graph has edges");
    let updates = [EdgeUpdate::Delete(u, v)];
    let router_invalidated = router.apply_edge_updates(&updates).unwrap();
    let engine_invalidated = reference.apply_edge_updates(&updates).unwrap();
    assert_eq!(router_invalidated, engine_invalidated);
    assert_eq!(router.stale_nodes(), reference.stale_nodes());
    assert!(
        !router.stale_nodes().is_empty(),
        "a real edit marks staleness"
    );

    let stats = router.stats();
    assert_eq!(
        stats.edge_update_fanout + stats.edge_update_skipped,
        shards as u64,
        "every shard is either fanned to or skipped"
    );
    assert!(
        stats.edge_update_fanout >= 1,
        "the owner shard must be touched"
    );
}

#[test]
fn a_fresh_router_reports_no_engine_activity() {
    let graph = random_graph(20, 6, 17);
    let fixture = serving_fixture(&graph, 4, 17);
    let mut image = Vec::new();
    fixture.snapshot.write_to(&mut image).unwrap();
    let mapped = std::sync::Arc::new(MappedSnapshot::from_bytes(&image).unwrap());
    for shards in [1usize, 3] {
        let owned = ShardRouter::new(
            &fixture.snapshot,
            &ShardRouterConfig {
                shards,
                engine: engine_config(20),
            },
        )
        .unwrap();
        let zero_copy =
            ShardRouter::from_mapped(vec![mapped.clone(); shards], engine_config(20)).unwrap();
        for (router, how) in [(owned, "new"), (zero_copy, "from_mapped")] {
            let stats = router.stats();
            assert_eq!(stats.per_shard.len(), shards, "{how}, {shards} shards");
            for (field, value) in stats.engines.fields() {
                assert_eq!(
                    value, 0,
                    "{how}, {shards} shards: `{field}` moved before any call"
                );
            }
        }
    }
}

#[test]
fn a_mapped_fleet_of_two_different_artifacts_is_refused() {
    let graph = random_graph(20, 6, 19);
    let image_of = |top_k: usize, seed: u64| {
        let mut image = Vec::new();
        serving_fixture(&graph, top_k, seed)
            .snapshot
            .write_to(&mut image)
            .unwrap();
        image
    };
    let map = |image: &[u8]| std::sync::Arc::new(MappedSnapshot::from_bytes(image).unwrap());
    let image = image_of(4, 19);

    // One mapping shared, or one image mapped three times: the same artifact.
    let shared = map(&image);
    ShardRouter::from_mapped(vec![shared; 3], engine_config(20)).expect("clones of one Arc");
    ShardRouter::from_mapped((0..3).map(|_| map(&image)).collect(), engine_config(20))
        .expect("separate mappings of one image");

    // Same nodes, classes and feature width — but another operator (top-k 3)
    // or other weights under the same operator (seed 20, equal section
    // lengths): served together they would blend two models.
    for (other, what) in [(image_of(3, 19), "operator"), (image_of(4, 20), "weights")] {
        assert_eq!(map(&other).num_nodes(), map(&image).num_nodes());
        let fleet = vec![map(&image), map(&image), map(&other)];
        let err = ShardRouter::from_mapped(fleet, engine_config(20)).unwrap_err();
        match &err {
            ServeError::ShardConfig { shards: 3, reason } => assert!(
                reason.contains("shard 2"),
                "different {what}: the refusal must name the odd shard: {reason}"
            ),
            other => panic!("different {what}: expected ShardConfig, got {other}"),
        }
    }
}

#[test]
fn a_repair_touches_exactly_the_shards_its_footprint_meets() {
    // One row per shard, so that no shard is touched on a neighbour's account.
    let graph = random_graph(200, 15, 2024);
    let shards = 200;
    let router = ShardRouter::new(
        &serving_fixture(&graph, 6, 2024).snapshot,
        &ShardRouterConfig {
            shards,
            engine: engine_config(200),
        },
    )
    .unwrap();
    let mut router_maintainer = serving_fixture(&graph, 6, 2024).maintainer;
    let reference_fixture = serving_fixture(&graph, 6, 2024);
    let reference = InferenceEngine::new(&reference_fixture.snapshot, engine_config(200)).unwrap();
    let mut reference_maintainer = reference_fixture.maintainer;

    // One real edit, announced to the servers before the maintainers repair:
    // the first-order region it marks stale is wider than what the repair
    // then patches, re-encodes or invalidates.
    let (u, v) = graph.edges().next().expect("graph has edges");
    let updates = [EdgeUpdate::Delete(u, v)];
    router.apply_edge_updates(&updates).unwrap();
    reference.apply_edge_updates(&updates).unwrap();
    let stale = router.stale_nodes();
    assert_eq!(stale, reference.stale_nodes());
    router_maintainer.apply_batch(&updates).unwrap();
    reference_maintainer.apply_batch(&updates).unwrap();

    let expected = reference.repair_from(&mut reference_maintainer).unwrap();
    let repair = router.repair_from(&mut router_maintainer).unwrap();
    let mut touched_by_staleness_alone = 0;
    for (shard, range) in router.plan().ranges().iter().enumerate() {
        let meets = |rows: &[usize]| rows.iter().any(|row| range.contains(row));
        let repaired = meets(&expected.operator_rows)
            || meets(&expected.embedding_rows)
            || meets(&expected.invalidated_rows);
        assert_eq!(
            repair.shard_repairs[shard].is_some(),
            repaired || meets(&stale),
            "shard {shard} ({range:?}): touched iff its range meets the footprint"
        );
        touched_by_staleness_alone += usize::from(!repaired && meets(&stale));
    }
    assert!(
        touched_by_staleness_alone > 0,
        "the fixture must hold a shard only the un-staling reaches"
    );
    assert_eq!(repair.fanout + repair.skipped, shards);
    assert!(
        router.stale_nodes().is_empty(),
        "a repair clears all staleness"
    );
}
