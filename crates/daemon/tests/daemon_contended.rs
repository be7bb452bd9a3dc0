//! A contended number, reported not gated: the judged benchmark drives one
//! connection, so what four clients racing for the micro-batcher see is
//! printed here instead.
//!
//! ```sh
//! cargo test --release -p sigma-daemon --test daemon_contended -- --ignored --nocapture
//! ```

use sigma_daemon::{Backend, Daemon, DaemonConfig};
use sigma_serve::{EngineConfig, InferenceEngine};
use sigma_testutil::wire;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const RUN: Duration = Duration::from_secs(3);

#[test]
#[ignore = "a 3 s load probe that prints numbers; run it in release with --ignored --nocapture"]
fn four_keep_alive_clients_against_a_default_daemon() {
    let fixture = serving_fixture(&random_graph(40, 60, 29), 4, 29);
    let nodes = fixture.snapshot.num_nodes();
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = wire::WireClient::connect(addr).expect("connect");
                let mut latencies_us = Vec::new();
                let start = Instant::now();
                while start.elapsed() < RUN {
                    let node = (c + CLIENTS * latencies_us.len()) % nodes;
                    let sent = Instant::now();
                    let resp = client
                        .request(
                            "POST",
                            "/v1/predict",
                            &[],
                            format!("{{\"node\": {node}}}").as_bytes(),
                        )
                        .expect("predict");
                    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
                    latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies_us: Vec<f64> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread"))
        .collect();
    latencies_us.sort_by(f64::total_cmp);
    let quantile = |q: f64| latencies_us[((latencies_us.len() - 1) as f64 * q) as usize];

    let stats = daemon.stats();
    assert_eq!(stats.coalesced_predicts, latencies_us.len() as u64);
    println!(
        "contended: {CLIENTS} clients x {:.0} s, {:.0} req/s, p50 {:.1} us, p99 {:.1} us, \
         batch_size mean {:.3}, batch_joins {}",
        RUN.as_secs_f64(),
        latencies_us.len() as f64 / RUN.as_secs_f64(),
        quantile(0.5),
        quantile(0.99),
        stats.coalesced_predicts as f64 / stats.batch_flushes as f64,
        stats.batch_joins,
    );
    daemon.shutdown();
}
