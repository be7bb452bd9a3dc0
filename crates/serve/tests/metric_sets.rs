//! The engine's and the router's `metric_set!` tables against what they
//! generated: every declared exposition name is exported exactly once with
//! its `# HELP` / `# TYPE` (or, obs-off, not registered at all while the
//! counters still count), and `fields()` lists the stats struct's own
//! fields in order.

use sigma_serve::{
    EngineConfig, EngineStats, InferenceEngine, RouterStats, ShardRouter, ShardRouterConfig,
};
use sigma_testutil::metrics::{assert_fields_match_struct, assert_metric_set_exposed};
use sigma_testutil::{random_graph, serving_fixture};

#[test]
fn engine_metric_set_is_declared_once_and_exposed_once() {
    let fixture = serving_fixture(&random_graph(16, 8, 21), 4, 21);
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine");
    engine.predict(3).expect("predict");
    let stats = engine.stats();
    assert_eq!((stats.nodes_served, stats.batches_served), (1, 1));
    assert_metric_set_exposed(EngineStats::METRICS);
    assert_eq!(EngineStats::METRICS.len(), 13 + 3);
    assert_fields_match_struct(
        &format!("{stats:#?}"),
        0,
        stats.fields(),
        EngineStats::METRICS,
    );
}

#[test]
fn router_metric_set_is_declared_once_and_exposed_once() {
    let fixture = serving_fixture(&random_graph(16, 8, 22), 4, 22);
    let config = ShardRouterConfig {
        shards: 2,
        engine: EngineConfig::default(),
    };
    let router = ShardRouter::new(&fixture.snapshot, &config).expect("router");
    router.predict_batch(&[1, 14]).expect("predict");
    let stats = router.stats();
    assert_eq!((stats.batches_routed, stats.queries_routed), (1, 2));
    // The generated `+=` summed the shards' own counters.
    assert_eq!(stats.engines.nodes_served, 2);
    let mut sum = EngineStats::default();
    for shard in &stats.per_shard {
        sum += shard;
    }
    assert_eq!(sum, stats.engines);
    assert_metric_set_exposed(RouterStats::METRICS);
    assert_metric_set_exposed(EngineStats::METRICS);
    assert_eq!(RouterStats::METRICS.len(), 10 + 1);
    // `engines` and `per_shard` are hand-written leading fields.
    assert_fields_match_struct(
        &format!("{stats:#?}"),
        2,
        stats.fields(),
        RouterStats::METRICS,
    );
}
