//! Wire-level fault injection against the daemon.
//!
//! Every test drives a *misbehaving* client against a live daemon through
//! real sockets and asserts the exact typed status — and, where the
//! robustness contract promises it, that the engine did **zero work** for
//! the rejected traffic (overload must never buy kernel time).

use sigma_daemon::{json, Backend, Daemon, DaemonConfig};
use sigma_graph::Graph;
use sigma_serve::{EngineConfig, InferenceEngine};
use sigma_testutil::wire;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::Arc;
use std::time::Duration;

fn fixture_graph(seed: u64) -> Graph {
    random_graph(30, 45, seed)
}

fn start_daemon(seed: u64, config: DaemonConfig) -> (Daemon, Arc<InferenceEngine>) {
    let fixture = serving_fixture(&fixture_graph(seed), 4, seed);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon = Daemon::start(Backend::Engine(engine.clone()), None, config).expect("daemon");
    (daemon, engine)
}

fn status_of(raw: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(raw).ok()?;
    let rest = text.strip_prefix("HTTP/1.1 ")?;
    rest.get(..3)?.parse().ok()
}

/// Logit bits of `node` as served over the wire.
fn wire_logit_bits(addr: std::net::SocketAddr, node: usize) -> Vec<u32> {
    let resp =
        wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}")).expect("predict");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    let value = json::parse(&resp.body).expect("response parses");
    let logits = value.get("logits").and_then(json::Json::as_arr).unwrap();
    logits
        .iter()
        .map(|l| (l.as_num().unwrap() as f32).to_bits())
        .collect()
}

/// Logit bits of `node` from an in-process reference engine.
fn engine_logit_bits(engine: &InferenceEngine, node: usize) -> Vec<u32> {
    let prediction = engine.predict(node).expect("reference predict");
    prediction.logits.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn truncated_body_is_a_typed_400() {
    let (daemon, engine) = start_daemon(31, DaemonConfig::default());
    // Declares 50 body bytes, sends 12, hangs up.
    let raw = wire::send_raw_once(
        daemon.local_addr(),
        b"POST /v1/predict HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"node\": 3",
    )
    .expect("send");
    assert_eq!(
        status_of(&raw),
        Some(400),
        "raw: {:?}",
        String::from_utf8_lossy(&raw)
    );
    assert_eq!(
        engine.stats().nodes_served,
        0,
        "no engine work for truncated bodies"
    );
    assert_eq!(daemon.stats().parse_rejects, 1);
    daemon.shutdown();
}

#[test]
fn oversized_content_length_is_rejected_before_buffering() {
    let mut config = DaemonConfig::default();
    config.limits.max_body_bytes = 256;
    let (daemon, engine) = start_daemon(32, config);
    // The declared size alone triggers the 413 — no body bytes are sent at
    // all, so the daemon must reject on the header.
    let mut client = wire::WireClient::connect(daemon.local_addr()).expect("connect");
    client
        .send_raw(b"POST /v1/predict_batch HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n")
        .expect("send headers");
    let resp = client.read_response().expect("413 without any body byte");
    assert_eq!(resp.status, 413);
    assert_eq!(engine.stats().nodes_served, 0);
    daemon.shutdown();
}

#[test]
fn slow_loris_writer_is_cut_off_with_408() {
    let config = DaemonConfig {
        read_timeout_ms: 150,
        ..DaemonConfig::default()
    };
    let (daemon, _engine) = start_daemon(33, config);
    let mut client = wire::WireClient::connect(daemon.local_addr()).expect("connect");
    // Drip half a request line, then stall past the read timeout.
    client.send_raw(b"POST /v1/pre").expect("partial line");
    std::thread::sleep(Duration::from_millis(400));
    let resp = client.read_response().expect("408 after the stall");
    assert_eq!(resp.status, 408);
    assert_eq!(daemon.stats().read_timeouts, 1);
    daemon.shutdown();
}

#[test]
fn admission_queue_overflow_sheds_429_with_retry_after() {
    let config = DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout_ms: 3_000,
        ..DaemonConfig::default()
    };
    let (daemon, engine) = start_daemon(34, config);
    let addr = daemon.local_addr();

    // conn_busy is picked up by the lone worker, which then blocks reading
    // a request that never comes. conn_queued fills the one queue slot.
    let busy = wire::WireClient::connect(addr).expect("busy conn");
    std::thread::sleep(Duration::from_millis(150));
    let queued = wire::WireClient::connect(addr).expect("queued conn");
    std::thread::sleep(Duration::from_millis(150));

    // Storm the full daemon: every further connection must shed cleanly.
    let mut shed = 0usize;
    for _ in 0..5 {
        let mut client = wire::WireClient::connect(addr).expect("storm conn");
        let resp = client.read_response().expect("shed response");
        assert_eq!(resp.status, 429);
        assert_eq!(
            resp.header("retry-after"),
            Some("1"),
            "429 must carry Retry-After"
        );
        shed += 1;
    }
    assert_eq!(shed, 5);
    let stats = daemon.stats();
    assert_eq!(stats.connections_shed, 5);
    assert_eq!(
        engine.stats().nodes_served,
        0,
        "shed load bought zero engine time"
    );
    drop(busy);
    drop(queued);
    daemon.shutdown();
}

/// A request found expired before it is submitted is shed with `504` and
/// buys no engine work. A zero default budget makes every request arrive
/// expired (`x-sigma-deadline-ms: 0` itself is a `400`, see below); expiry
/// *while queued* behind a flush is pinned on an exact interleaving in
/// `batch.rs` — a lone request no longer waits anywhere it could expire.
#[test]
fn expired_deadline_sheds_504_without_engine_work() {
    let config = DaemonConfig {
        default_deadline_ms: 0,
        ..DaemonConfig::default()
    };
    let (daemon, engine) = start_daemon(35, config);
    let mut client = wire::WireClient::connect(daemon.local_addr()).expect("connect");
    let resp = client
        .request("POST", "/v1/predict", &[], b"{\"node\": 1}")
        .expect("predict");
    assert_eq!(resp.status, 504);
    let value = json::parse(&resp.body).expect("error body parses");
    assert_eq!(
        value.get("error").and_then(json::Json::as_str),
        Some("deadline_expired")
    );
    let stats = daemon.stats();
    assert_eq!(stats.deadline_shed, 1);
    assert_eq!(stats.coalesced_predicts, 0, "shed before the batcher");
    assert_eq!(
        engine.stats().nodes_served,
        0,
        "an expired request must never reach the engine"
    );
    daemon.shutdown();
}

#[test]
fn malformed_deadline_header_is_a_400() {
    let (daemon, _engine) = start_daemon(36, DaemonConfig::default());
    let mut client = wire::WireClient::connect(daemon.local_addr()).expect("connect");
    for bad in ["-5", "soon", "1.5", "0"] {
        let resp = client
            .request(
                "POST",
                "/v1/predict",
                &[("x-sigma-deadline-ms", bad)],
                b"{\"node\": 1}",
            )
            .expect("predict");
        assert_eq!(resp.status, 400, "deadline header {bad:?}");
    }
    daemon.shutdown();
}

#[test]
fn handler_panic_kills_the_connection_not_the_daemon() {
    let config = DaemonConfig {
        debug_endpoints: true,
        ..DaemonConfig::default()
    };
    let (daemon, _engine) = start_daemon(37, config);
    let addr = daemon.local_addr();

    let resp = wire::post_json(addr, "/v1/panic", "{}").expect("panic endpoint");
    assert_eq!(resp.status, 500);
    let value = json::parse(&resp.body).expect("panic body parses");
    assert_eq!(
        value.get("error").and_then(json::Json::as_str),
        Some("handler_panic")
    );
    assert_eq!(daemon.stats().handler_panics, 1);

    // The daemon survives and keeps serving fresh connections.
    let resp = wire::post_json(addr, "/v1/predict", "{\"node\": 0}").expect("predict");
    assert_eq!(resp.status, 200, "daemon must outlive a handler panic");
    daemon.shutdown();
}

#[test]
fn malformed_payloads_map_to_typed_statuses() {
    let (daemon, _engine) = start_daemon(38, DaemonConfig::default());
    let addr = daemon.local_addr();
    let cases: Vec<(&str, &str, u16)> = vec![
        // Body is not JSON at all.
        ("/v1/predict", "not json", 400),
        // Wrong field type.
        ("/v1/predict", "{\"node\": \"three\"}", 400),
        // Missing field.
        ("/v1/predict", "{}", 400),
        // Negative node.
        ("/v1/predict", "{\"node\": -1}", 400),
        // Fractional node.
        ("/v1/predict", "{\"node\": 1.5}", 400),
        // Duplicate key (ambiguous request).
        ("/v1/predict", "{\"node\": 1, \"node\": 2}", 400),
        // Out-of-range node: typed engine error, 404.
        ("/v1/predict", "{\"node\": 99999}", 404),
        // Batch with a bad entry.
        ("/v1/predict_batch", "{\"nodes\": [1, null]}", 400),
        // Edges with an unknown op.
        (
            "/v1/edges",
            "{\"updates\": [{\"op\": \"upsert\", \"u\": 1, \"v\": 2}]}",
            400,
        ),
        // Edges addressing a node outside the graph.
        (
            "/v1/edges",
            "{\"updates\": [{\"op\": \"insert\", \"u\": 1, \"v\": 99999}]}",
            404,
        ),
    ];
    for (path, body, expected) in cases {
        let resp = wire::post_json(addr, path, body).expect("request");
        assert_eq!(
            resp.status,
            expected,
            "{path} with {body:?} (got body {})",
            resp.body_str()
        );
        // Every error body is itself valid JSON with a kind token.
        let value = json::parse(&resp.body).expect("error body parses");
        assert!(value.get("error").and_then(json::Json::as_str).is_some());
    }
    daemon.shutdown();
}

#[test]
fn protocol_violations_map_to_typed_statuses() {
    let mut config = DaemonConfig::default();
    config.limits.max_line_bytes = 512;
    config.limits.max_headers = 8;
    let (daemon, _engine) = start_daemon(39, config);
    let addr = daemon.local_addr();

    // Unsupported HTTP version.
    let raw = wire::send_raw_once(addr, b"GET /healthz HTTP/2.0\r\n\r\n").expect("send");
    assert_eq!(status_of(&raw), Some(505));

    // Transfer-Encoding refused outright.
    let raw = wire::send_raw_once(
        addr,
        b"POST /v1/predict HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    )
    .expect("send");
    assert_eq!(status_of(&raw), Some(501));

    // Garbage request line.
    let raw = wire::send_raw_once(addr, b"lol\r\n\r\n").expect("send");
    assert_eq!(status_of(&raw), Some(400));

    // A request line longer than the cap.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2048));
    let raw = wire::send_raw_once(addr, long.as_bytes()).expect("send");
    assert_eq!(status_of(&raw), Some(431));

    // Too many headers.
    let mut many = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..20 {
        many.push_str(&format!("x-h{i}: v\r\n"));
    }
    many.push_str("\r\n");
    let raw = wire::send_raw_once(addr, many.as_bytes()).expect("send");
    assert_eq!(status_of(&raw), Some(431));

    // Malformed Content-Length.
    let raw = wire::send_raw_once(
        addr,
        b"POST /v1/predict HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
    )
    .expect("send");
    assert_eq!(status_of(&raw), Some(400));

    daemon.shutdown();
}

#[test]
fn mid_flight_reload_never_fails_an_in_flight_request() {
    let graph = fixture_graph(40);
    let fixture_a = serving_fixture(&graph, 4, 40);
    let fixture_b = serving_fixture(&graph, 4, 41);
    let path = std::env::temp_dir().join(format!(
        "sigma-daemon-midflight-{}.snapshot",
        std::process::id()
    ));
    fixture_b.snapshot.save(&path).expect("save snapshot B");

    let engine = Arc::new(
        InferenceEngine::new(&fixture_a.snapshot, EngineConfig::default()).expect("engine"),
    );
    let reference_a =
        InferenceEngine::new(&fixture_a.snapshot, EngineConfig::default()).expect("reference A");
    let reference_b =
        InferenceEngine::new(&fixture_b.snapshot, EngineConfig::default()).expect("reference B");
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let num_nodes = graph.num_nodes();
    let queriers: Vec<_> = (0..4usize)
        .map(|t| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut node = t;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp =
                        wire::post_json(addr, "/v1/predict", &format!("{{\"node\": {node}}}"))
                            .expect("predict during reload");
                    assert_eq!(resp.status, 200, "no request may fail across a reload");
                    let value = json::parse(&resp.body).expect("response parses");
                    served += 1;
                    node = (node + 7) % num_nodes;
                    let _ = value;
                }
                served
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let resp = wire::post_json(
        addr,
        "/v1/reload",
        &format!("{{\"path\": {}}}", json::quote(path.to_str().unwrap())),
    )
    .expect("reload");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: usize = queriers
        .into_iter()
        .map(|q| q.join().expect("querier"))
        .sum();
    assert!(total > 0, "queriers must have observed traffic");

    // After the dust settles, serving is wholly on snapshot B.
    for node in (0..num_nodes).step_by(4) {
        let logits = wire_logit_bits(addr, node);
        let b_bits = engine_logit_bits(&reference_b, node);
        let a_bits = engine_logit_bits(&reference_a, node);
        assert_ne!(
            a_bits, b_bits,
            "fixtures must actually differ for this test to bite"
        );
        assert_eq!(
            logits, b_bits,
            "post-reload serving must be wholly snapshot B"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Points `POST /v1/reload` of a daemon serving snapshot A at `path`
/// (removed afterwards) and asserts the refusal contract: a 422
/// `snapshot_format` whose message contains `reason`, no reload counted,
/// and every node still served from A bit for bit.
fn assert_reload_is_refused_and_serving_is_untouched(path: &std::path::Path, reason: &str) {
    let fixture = serving_fixture(&fixture_graph(42), 4, 42);
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference A");
    let (daemon, _engine) = start_daemon(42, DaemonConfig::default());
    let addr = daemon.local_addr();

    let resp = wire::post_json(
        addr,
        "/v1/reload",
        &format!("{{\"path\": {}}}", json::quote(path.to_str().unwrap())),
    )
    .expect("reload");
    let _ = std::fs::remove_file(path);
    assert_eq!(resp.status, 422, "body: {}", resp.body_str());
    let value = json::parse(&resp.body).expect("error body parses");
    assert_eq!(
        value.get("error").and_then(json::Json::as_str),
        Some("snapshot_format")
    );
    assert!(
        resp.body_str().contains(reason),
        "body: {}",
        resp.body_str()
    );
    assert_eq!(daemon.stats().reloads, 0);

    // Still snapshot A, bit for bit.
    for node in 0..fixture.snapshot.num_nodes() {
        assert_eq!(
            wire_logit_bits(addr, node),
            engine_logit_bits(&reference, node),
            "node {node} must still be served from A"
        );
    }
    daemon.shutdown();
}

#[test]
fn reload_naming_a_file_truncated_on_disk_is_a_422_and_serving_is_untouched() {
    // A published snapshot that lost its tail (a partial copy, a writer
    // that truncated in place): the header survives, the payload pages do
    // not. The reload must refuse it from the header pass, never map and
    // fault on the missing pages.
    let path = std::env::temp_dir().join(format!(
        "sigma-daemon-truncated-{}.snapshot",
        std::process::id()
    ));
    serving_fixture(&fixture_graph(43), 4, 43)
        .snapshot
        .save(&path)
        .expect("save snapshot B");
    let len = std::fs::metadata(&path).expect("saved snapshot").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen for truncation")
        .set_len(len / 2)
        .expect("truncate");
    assert_reload_is_refused_and_serving_is_untouched(&path, "file ends before");
}

#[test]
fn reload_naming_a_retired_v1_file_is_a_422_and_serving_is_untouched() {
    // A streamed-v1 prelude: magic, version 1, a length-prefixed tag. The
    // daemon has no second decoder to fall back to.
    let mut v1 = b"SIGMASNP".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&4u64.to_le_bytes());
    v1.extend_from_slice(b"demo");
    let path = std::env::temp_dir().join(format!(
        "sigma-daemon-v1-prelude-{}.snapshot",
        std::process::id()
    ));
    std::fs::write(&path, &v1).expect("write v1 prelude");
    assert_reload_is_refused_and_serving_is_untouched(&path, "version 1");
}
