//! With the `obs` feature on, an engine's counters and latency histograms
//! surface in the process-wide metrics registry.
//!
//! This is a test binary of its own on purpose: the registry reports each
//! `sigma_serve_*` family as the sum over the engines alive in the process,
//! so a before/after delta is only exact while no other test is creating or
//! dropping engines beside it (inside `stats_tearing.rs` it failed 19 runs
//! in 300). Keep it the only test in this file.

#![cfg(feature = "obs")]

use sigma_serve::{EngineConfig, InferenceEngine};
use sigma_testutil::{random_graph, serving_fixture};

#[test]
fn engine_counters_appear_in_the_global_registry() {
    let graph = random_graph(16, 8, 5);
    let fixture = serving_fixture(&graph, 4, 5);
    let n = graph.num_nodes();
    let engine = InferenceEngine::new(
        &fixture.snapshot,
        EngineConfig {
            cache_capacity: n,
            workers: 0,
            max_chunk: 8,
        },
    )
    .expect("engine");
    let before = sigma_obs::snapshot().counter("sigma_serve_nodes_served_total");
    let all: Vec<usize> = (0..n).collect();
    let _ = engine.predict_batch(&all).expect("query");
    let after = sigma_obs::snapshot().counter("sigma_serve_nodes_served_total");
    assert_eq!(
        after,
        before + n as u64,
        "engine serving must surface in the process-wide registry ({before} -> {after})"
    );
    // The latency histograms registered and recorded too.
    let snap = sigma_obs::snapshot();
    match snap
        .get("sigma_serve_predict_batch_ns")
        .expect("batch latency histogram registered")
    {
        sigma_obs::MetricValue::Histogram(h) => assert!(h.count > 0),
        other => panic!("expected a histogram, got {other:?}"),
    }
}
