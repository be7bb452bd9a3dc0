//! End-to-end daemon tests through real sockets.
//!
//! The load-bearing assertion: responses that travelled the full wire path
//! (HTTP parse → admission queue → worker → micro-batcher → engine → JSON →
//! socket) are **bitwise identical** to direct in-process engine calls over
//! the same snapshot. Runs under `SIGMA_NUM_THREADS=1` and `=4` in CI; the
//! contract is thread-count independent.

use sigma_daemon::{json, Backend, Daemon, DaemonConfig, DaemonMetrics, DaemonStats};
use sigma_graph::Graph;
use sigma_serve::{
    EngineConfig, EngineStats, InferenceEngine, Prediction, ServeSnapshot, ShardRouter,
    ShardRouterConfig,
};
use sigma_testutil::metrics::{assert_fields_match_struct, assert_metric_set_exposed};
use sigma_testutil::wire;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::Arc;

fn fixture_graph(seed: u64) -> Graph {
    random_graph(40, 60, seed)
}

/// Decodes `{"node":…, "label":…, "logits":[…]}` into a comparable triple;
/// `cached`/`stale` are intentionally ignored (they depend on query order,
/// not on the model).
fn decode_prediction(value: &json::Json) -> (usize, usize, Vec<u32>) {
    let node = value.get("node").and_then(json::Json::as_index).unwrap();
    let label = value.get("label").and_then(json::Json::as_index).unwrap();
    let logits: Vec<u32> = value
        .get("logits")
        .and_then(json::Json::as_arr)
        .unwrap()
        .iter()
        .map(|l| (l.as_num().unwrap() as f32).to_bits())
        .collect();
    (node, label, logits)
}

fn reference_bits(p: &Prediction) -> (usize, usize, Vec<u32>) {
    (
        p.node,
        p.label,
        p.logits.iter().map(|l| l.to_bits()).collect(),
    )
}

#[test]
fn predict_is_bitwise_equal_to_in_process_engine() {
    let fixture = serving_fixture(&fixture_graph(11), 4, 11);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference");
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    for node in 0..fixture.snapshot.num_nodes() {
        let resp = wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
            .expect("predict");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let value = json::parse(&resp.body).expect("response parses");
        let expected = reference.predict(node).expect("reference predict");
        assert_eq!(
            decode_prediction(&value),
            reference_bits(&expected),
            "wire logits for node {node} must be bitwise equal"
        );
    }
    daemon.shutdown();
}

#[test]
fn predict_batch_is_bitwise_equal_and_order_preserving() {
    let fixture = serving_fixture(&fixture_graph(12), 4, 12);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference");
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");

    // Deliberately unsorted, with repeats.
    let nodes = [7usize, 3, 7, 0, 21, 14, 3];
    let body = format!(
        "{{\"nodes\": [{}]}}",
        nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let resp = wire::post_json(daemon.local_addr(), "/v1/predict_batch", &body).expect("batch");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    let value = json::parse(&resp.body).expect("response parses");
    assert_eq!(
        value.get("count").and_then(json::Json::as_index),
        Some(nodes.len())
    );
    let served = value
        .get("predictions")
        .and_then(json::Json::as_arr)
        .expect("predictions array");
    let expected = reference.predict_batch(&nodes).expect("reference batch");
    assert_eq!(served.len(), expected.len());
    for (wire_pred, reference_pred) in served.iter().zip(&expected) {
        assert_eq!(decode_prediction(wire_pred), reference_bits(reference_pred));
    }
    daemon.shutdown();
}

#[test]
fn sharded_backend_is_bitwise_equal_over_the_wire() {
    let fixture = serving_fixture(&fixture_graph(13), 4, 13);
    let router = ShardRouter::new(
        &fixture.snapshot,
        &ShardRouterConfig {
            shards: 4,
            engine: EngineConfig::default(),
        },
    )
    .expect("router");
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference");
    let daemon = Daemon::start(
        Backend::Router(Arc::new(router)),
        None,
        DaemonConfig::default(),
    )
    .expect("daemon");
    let addr = daemon.local_addr();

    for node in (0..fixture.snapshot.num_nodes()).step_by(3) {
        let resp = wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
            .expect("predict");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let value = json::parse(&resp.body).expect("response parses");
        let expected = reference.predict(node).expect("reference predict");
        assert_eq!(decode_prediction(&value), reference_bits(&expected));
    }
    daemon.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let fixture = serving_fixture(&fixture_graph(14), 4, 14);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");

    let mut client = wire::WireClient::connect(daemon.local_addr()).expect("connect");
    for node in 0..10usize {
        let resp = client
            .request(
                "POST",
                "/v1/predict",
                &[],
                format!("{{\"node\": {node}}}").as_bytes(),
            )
            .expect("keep-alive request");
        assert_eq!(resp.status, 200);
    }
    let stats = daemon.stats();
    assert_eq!(
        stats.connections_accepted, 1,
        "one connection, ten requests"
    );
    assert_eq!(stats.requests, 10);
    daemon.shutdown();
}

/// The accounting of coalescing under concurrent clients: every predict
/// goes through the batcher, every flush is exactly one engine batch, and
/// every reply is bitwise-correct whichever flush carried it. *How many*
/// flushes four racing clients make is a scheduling outcome; that followers
/// behind a flush in flight become one batch is pinned on an exact
/// interleaving in `batch.rs`.
#[test]
fn concurrent_predicts_coalesce_into_one_engine_batch() {
    let fixture = serving_fixture(&fixture_graph(15), 4, 15);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference");
    let daemon = Daemon::start(
        Backend::Engine(engine.clone()),
        None,
        DaemonConfig::default(),
    )
    .expect("daemon");
    let addr = daemon.local_addr();

    let before = engine.stats().batches_served;
    let handles: Vec<_> = (0..4usize)
        .map(|node| {
            std::thread::spawn(move || {
                wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
                    .expect("predict")
            })
        })
        .collect();
    for (node, handle) in handles.into_iter().enumerate() {
        let resp = handle.join().expect("client thread");
        assert_eq!(resp.status, 200);
        let value = json::parse(&resp.body).expect("response parses");
        let expected = reference.predict(node).expect("reference predict");
        assert_eq!(decode_prediction(&value), reference_bits(&expected));
    }
    let stats = daemon.stats();
    assert_eq!(stats.coalesced_predicts, 4);
    assert_eq!(
        engine.stats().batches_served - before,
        stats.batch_flushes,
        "every flush is exactly one engine batch"
    );
    assert_eq!(
        stats.batch_joins,
        4 - stats.batch_flushes,
        "every predict either led a flush or joined one"
    );
    daemon.shutdown();
}

/// `micro_batch_window_us` bounds a wait, it does not select a path: `0`
/// (never wait) and the default serve the same bits through the same
/// batcher, and both count what they served.
#[test]
fn zero_and_default_window_serve_identical_bits_through_the_batcher() {
    let fixture = serving_fixture(&fixture_graph(24), 4, 24);
    let serve_all = |window_us: u64| -> Vec<(usize, usize, Vec<u32>)> {
        let engine = Arc::new(
            InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"),
        );
        let config = DaemonConfig {
            micro_batch_window_us: window_us,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(Backend::Engine(engine), None, config).expect("daemon");
        let addr = daemon.local_addr();
        let nodes = fixture.snapshot.num_nodes();
        let served = (0..nodes)
            .map(|node| {
                let resp = wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
                    .expect("predict");
                assert_eq!(resp.status, 200, "body: {}", resp.body_str());
                decode_prediction(&json::parse(&resp.body).expect("response parses"))
            })
            .collect();
        let stats = daemon.stats();
        assert_eq!(stats.coalesced_predicts, nodes as u64, "window {window_us}");
        assert_eq!(stats.batch_flushes, nodes as u64, "window {window_us}");
        daemon.shutdown();
        served
    };
    assert_eq!(serve_all(0), serve_all(200));
}

#[test]
fn stats_and_metrics_endpoints_parse() {
    let fixture = serving_fixture(&fixture_graph(16), 4, 16);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    let _ = wire::post_json(addr, "/v1/predict", "{\"node\": 1}").expect("predict");

    let stats = wire::get(addr, "/v1/stats").expect("stats");
    assert_eq!(stats.status, 200);
    let value = json::parse(&stats.body).expect("stats body is valid JSON");
    let daemon_obj = value.get("daemon").expect("daemon section");
    assert!(
        daemon_obj
            .get("requests")
            .and_then(json::Json::as_index)
            .unwrap()
            >= 1
    );
    assert!(value.get("registry").is_some());

    // Engine counters travel under their own names: an edge update on the
    // node just served drops its cached row, and a reload is counted.
    let engine_stat = |key: &str| {
        let stats = wire::get(addr, "/v1/stats").expect("stats");
        let value = json::parse(&stats.body).expect("stats body is valid JSON");
        let engine = value.get("engine").expect("engine section");
        assert!(engine.get("rows_sliced").is_none() && engine.get("stale_serves").is_none());
        engine
            .get(key)
            .and_then(json::Json::as_index)
            .unwrap_or_else(|| panic!("engine.{key} missing"))
    };
    assert_eq!(engine_stat("rows_invalidated"), 0);
    assert_eq!(engine_stat("snapshot_reloads"), 0);
    let resp = wire::post_json(
        addr,
        "/v1/edges",
        "{\"updates\": [{\"op\": \"insert\", \"u\": 1, \"v\": 9}]}",
    )
    .expect("edges");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    assert!(engine_stat("rows_invalidated") >= 1);
    assert_eq!(engine_stat("snapshot_reloads"), 0);
    let path = std::env::temp_dir().join(format!(
        "sigma-daemon-stats-{}-{}.snapshot",
        std::process::id(),
        std::env::var("SIGMA_NUM_THREADS").unwrap_or_default()
    ));
    fixture.snapshot.save(&path).expect("save snapshot");
    // The reload's content pass is visible in the registry: one more
    // verify sample, the file's bytes more verified (at least — the
    // registry is process-wide and other tests reload too).
    let verify_stats = || {
        let stats = wire::get(addr, "/v1/stats").expect("stats");
        let value = json::parse(&stats.body).expect("stats body is valid JSON");
        let registry = value.get("registry").expect("registry section");
        let samples = registry
            .get("histograms")
            .and_then(|h| h.get("sigma_serve_snapshot_verify_ns"))
            .and_then(|h| h.get("count"))
            .and_then(json::Json::as_index);
        let bytes = registry
            .get("counters")
            .and_then(|c| c.get("sigma_serve_snapshot_verified_bytes_total"))
            .and_then(json::Json::as_index);
        (samples.unwrap_or(0), bytes.unwrap_or(0))
    };
    let (samples_before, bytes_before) = verify_stats();
    let resp = wire::post_json(
        addr,
        "/v1/reload",
        &format!("{{\"path\": {}}}", json::quote(path.to_str().unwrap())),
    )
    .expect("reload");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    assert_eq!(engine_stat("snapshot_reloads"), 1);
    if sigma_obs::ENABLED {
        let (samples, bytes) = verify_stats();
        let file_len = std::fs::metadata(&path).expect("saved snapshot").len() as usize;
        assert!(samples > samples_before, "{samples} verify samples");
        assert!(bytes >= bytes_before + file_len, "{bytes} verified bytes");
    }

    let metrics = wire::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    if sigma_obs::ENABLED {
        assert!(
            text.contains("sigma_daemon_requests_total"),
            "daemon counters must appear in the exposition:\n{text}"
        );
        // Prometheus text shape: every non-comment line is `name[{labels}] value`.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            assert!(
                line.rsplit_once(' ').is_some(),
                "malformed exposition line: {line:?}"
            );
        }
    }
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn daemon_metric_set_is_declared_once_and_exposed_once() {
    let metrics = DaemonMetrics::new();
    metrics.requests.inc();
    metrics.count_response(204);
    metrics.inflight.add(2);
    let stats = metrics.snapshot();
    assert_eq!(
        (stats.requests, stats.responses_2xx, stats.inflight),
        (1, 1, 2)
    );
    assert_metric_set_exposed(DaemonStats::METRICS);
    assert_eq!(DaemonStats::METRICS.len(), 15 + 2 + 3);
    assert_fields_match_struct(
        &format!("{stats:#?}"),
        0,
        stats.fields(),
        DaemonStats::METRICS,
    );
}

#[test]
fn stats_endpoint_lists_every_stats_field_under_its_own_name() {
    let fixture = serving_fixture(&fixture_graph(23), 4, 23);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();
    let _ = wire::post_json(addr, "/v1/predict", "{\"node\": 2}").expect("predict");

    let stats = wire::get(addr, "/v1/stats").expect("stats");
    let value = json::parse(&stats.body).expect("stats body is valid JSON");
    let keys = |section: &str| -> Vec<&str> {
        match value.get(section) {
            Some(json::Json::Obj(members)) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{section} section: {other:?}"),
        }
    };
    fn names(fields: impl Iterator<Item = (&'static str, i128)>) -> Vec<&'static str> {
        fields.map(|(name, _)| name).collect()
    }
    assert_eq!(keys("daemon"), names(DaemonStats::default().fields()));
    assert_eq!(keys("engine"), names(EngineStats::default().fields()));
    let engine_obj = value.get("engine").expect("engine section");
    assert_eq!(
        engine_obj
            .get("nodes_served")
            .and_then(json::Json::as_index),
        Some(1)
    );

    // The same process exports both sets through `/metrics`.
    let metrics = wire::get(addr, "/metrics").expect("metrics");
    for m in DaemonStats::METRICS.iter().chain(EngineStats::METRICS) {
        assert_eq!(
            metrics.body_str().contains(&format!("# HELP {} ", m.name)),
            sigma_obs::ENABLED,
            "{} over the wire",
            m.name
        );
    }
    daemon.shutdown();
}

#[test]
fn edges_then_repair_keeps_wire_equal_to_reference_lineage() {
    let graph = fixture_graph(17);
    let backends: [fn(&ServeSnapshot) -> Backend; 2] = [
        |snapshot| {
            let engine = InferenceEngine::new(snapshot, EngineConfig::default()).expect("engine");
            Backend::Engine(Arc::new(engine))
        },
        |snapshot| {
            let config = ShardRouterConfig {
                shards: 2,
                engine: EngineConfig::default(),
            };
            Backend::Router(Arc::new(
                ShardRouter::new(snapshot, &config).expect("router"),
            ))
        },
    ];
    for backend in backends {
        let fixture = serving_fixture(&graph, 4, 17);
        let daemon = Daemon::start(
            backend(&fixture.snapshot),
            Some(fixture.maintainer),
            DaemonConfig::default(),
        )
        .expect("daemon");
        let addr = daemon.local_addr();

        // The same lineage, in process: engine + maintainer from a twin fixture.
        let twin = serving_fixture(&graph, 4, 17);
        let reference =
            InferenceEngine::new(&twin.snapshot, EngineConfig::default()).expect("reference");
        let mut reference_maintainer = twin.maintainer;

        let (u, v) = (0usize, 9usize);
        let resp = wire::post_json(
            addr,
            "/v1/edges",
            &format!("{{\"updates\": [{{\"op\": \"insert\", \"u\": {u}, \"v\": {v}}}]}}"),
        )
        .expect("edges");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let value = json::parse(&resp.body).expect("edges response parses");
        assert_eq!(value.get("applied").and_then(json::Json::as_index), Some(1));
        assert_eq!(value.get("maintainer"), Some(&json::Json::Bool(true)));

        reference_maintainer
            .apply_batch(&[sigma_simrank::EdgeUpdate::Insert(u, v)])
            .expect("reference apply");
        reference
            .apply_edge_updates(&[sigma_simrank::EdgeUpdate::Insert(u, v)])
            .expect("reference invalidate");
        let reference_repair = reference
            .repair_from(&mut reference_maintainer)
            .expect("reference repair");

        // The reply counts what the round did, whatever served it: a
        // sharded backend repairs once, so each row is counted once.
        let resp = wire::post_json(addr, "/v1/repair", "{}").expect("repair");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let value = json::parse(&resp.body).expect("repair response parses");
        assert_eq!(
            value.get("operator_rows").and_then(json::Json::as_index),
            Some(reference_repair.operator_rows.len()),
            "body: {}",
            resp.body_str()
        );
        assert_eq!(
            value.get("embedding_rows").and_then(json::Json::as_index),
            Some(reference_repair.embedding_rows.len()),
            "body: {}",
            resp.body_str()
        );
        assert!(!reference_repair.embedding_rows.is_empty());

        for node in 0..graph.num_nodes() {
            let resp = wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
                .expect("predict");
            assert_eq!(resp.status, 200);
            let value = json::parse(&resp.body).expect("response parses");
            let expected = reference.predict(node).expect("reference predict");
            assert_eq!(
                decode_prediction(&value),
                reference_bits(&expected),
                "post-repair logits for node {node}"
            );
        }
        daemon.shutdown();
    }
}

#[test]
fn reload_swaps_to_the_new_snapshot_bitwise() {
    let graph = fixture_graph(18);
    let fixture_a = serving_fixture(&graph, 4, 18);
    let fixture_b = serving_fixture(&graph, 4, 19);

    let path = std::env::temp_dir().join(format!(
        "sigma-daemon-reload-{}-{}.snapshot",
        std::process::id(),
        std::env::var("SIGMA_NUM_THREADS").unwrap_or_default()
    ));
    fixture_b.snapshot.save(&path).expect("save snapshot B");

    let engine = Arc::new(
        InferenceEngine::new(&fixture_a.snapshot, EngineConfig::default()).expect("engine"),
    );
    let reference_b =
        InferenceEngine::new(&fixture_b.snapshot, EngineConfig::default()).expect("reference B");
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    let resp = wire::post_json(
        addr,
        "/v1/reload",
        &format!("{{\"path\": {}}}", json::quote(path.to_str().unwrap())),
    )
    .expect("reload");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    assert_eq!(daemon.stats().reloads, 1);

    for node in (0..graph.num_nodes()).step_by(5) {
        let resp = wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
            .expect("predict");
        assert_eq!(resp.status, 200);
        let value = json::parse(&resp.body).expect("response parses");
        let expected = reference_b.predict(node).expect("reference predict");
        assert_eq!(
            decode_prediction(&value),
            reference_bits(&expected),
            "post-reload logits must come from snapshot B (node {node})"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reload_on_a_sharded_backend_serves_the_new_snapshot() {
    let graph = fixture_graph(20);
    let fixture_a = serving_fixture(&graph, 4, 20);
    let fixture_b = serving_fixture(&graph, 4, 21);
    let smaller = serving_fixture(&random_graph(30, 40, 20), 4, 20);

    let save = |snapshot: &ServeSnapshot, name: &str| {
        let path = std::env::temp_dir().join(format!(
            "sigma-daemon-sharded-reload-{name}-{}-{}.snapshot",
            std::process::id(),
            std::env::var("SIGMA_NUM_THREADS").unwrap_or_default()
        ));
        snapshot.save(&path).expect("save snapshot");
        path
    };
    let path_b = save(&fixture_b.snapshot, "b");
    let path_smaller = save(&smaller.snapshot, "smaller");
    let reload = |addr, path: &std::path::Path| {
        let body = format!("{{\"path\": {}}}", json::quote(path.to_str().unwrap()));
        wire::post_json(addr, "/v1/reload", &body).expect("reload")
    };

    let router = ShardRouter::new(
        &fixture_a.snapshot,
        &ShardRouterConfig {
            shards: 2,
            engine: EngineConfig::default(),
        },
    )
    .expect("router");
    let reference_b =
        InferenceEngine::new(&fixture_b.snapshot, EngineConfig::default()).expect("reference B");
    let daemon = Daemon::start(
        Backend::Router(Arc::new(router)),
        None,
        DaemonConfig::default(),
    )
    .expect("daemon");
    let addr = daemon.local_addr();

    // Warm both shards' caches on snapshot A: none of it may survive.
    let all: Vec<String> = (0..graph.num_nodes()).map(|n| n.to_string()).collect();
    let warm = format!("{{\"nodes\": [{}]}}", all.join(", "));
    assert_eq!(
        wire::post_json(addr, "/v1/predict_batch", &warm)
            .expect("warm")
            .status,
        200
    );

    // A snapshot of another graph size is refused, typed, and changes nothing.
    let resp = reload(addr, &path_smaller);
    assert!(
        (400..500).contains(&resp.status),
        "dimension mismatch must be a typed 4xx, got {}: {}",
        resp.status,
        resp.body_str()
    );
    assert_eq!(daemon.stats().reloads, 0);

    let resp = reload(addr, &path_b);
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    assert_eq!(daemon.stats().reloads, 1);

    for node in 0..graph.num_nodes() {
        let resp = wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
            .expect("predict");
        assert_eq!(resp.status, 200);
        let value = json::parse(&resp.body).expect("response parses");
        let expected = reference_b.predict(node).expect("reference predict");
        assert_eq!(
            decode_prediction(&value),
            reference_bits(&expected),
            "post-reload logits must come from snapshot B (node {node})"
        );
    }
    daemon.shutdown();
    for path in [path_b, path_smaller] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn repair_without_maintainer_is_a_conflict() {
    let fixture = serving_fixture(&fixture_graph(21), 4, 21);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let resp = wire::post_json(daemon.local_addr(), "/v1/repair", "{}").expect("repair");
    assert_eq!(resp.status, 409);
    let value = json::parse(&resp.body).expect("error body parses");
    assert_eq!(
        value.get("error").and_then(json::Json::as_str),
        Some("no_maintainer")
    );
    daemon.shutdown();
}

#[test]
fn unknown_paths_and_wrong_methods_are_typed() {
    let fixture = serving_fixture(&fixture_graph(22), 4, 22);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    let health = wire::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let value = json::parse(&health.body).expect("health body parses");
    assert_eq!(value.get("status").and_then(json::Json::as_str), Some("ok"));
    assert_eq!(
        value.get("nodes").and_then(json::Json::as_index),
        Some(fixture.snapshot.num_nodes())
    );

    assert_eq!(wire::get(addr, "/v1/nonsense").expect("404").status, 404);
    assert_eq!(wire::get(addr, "/v1/predict").expect("405").status, 405);
    assert_eq!(
        wire::post_json(addr, "/healthz", "{}").expect("405").status,
        405
    );
    daemon.shutdown();
}

#[test]
fn shutdown_drains_in_flight_work_cleanly() {
    let fixture = serving_fixture(&fixture_graph(23), 4, 23);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    let client = std::thread::spawn(move || {
        let mut client = wire::WireClient::connect(addr).expect("connect");
        client
            .request("POST", "/v1/predict", &[], b"{\"node\": 2}")
            .expect("in-flight request")
    });
    // Give the request time to be admitted, then drain.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let report = daemon.shutdown();
    let resp = client.join().expect("client thread");
    assert_eq!(resp.status, 200, "in-flight work completes during drain");
    assert!(report.drained_cleanly, "drain must finish inside deadline");
}
