//! Serving load harness: Zipfian node popularity against the inference
//! engine, with edge-edit / incremental-repair traffic interleaved into the
//! query stream.
//!
//! Real serving workloads are skewed — a few hub nodes absorb most queries —
//! and the cache hit rate, and therefore the latency distribution, depends
//! on that skew. This harness drives the engine with an inverse-CDF Zipfian
//! sampler (popularity rank decorrelated from node id by a seeded shuffle)
//! across a grid of skews × batch mixes, applying a deterministic edit batch
//! plus `repair_from` every `EDIT_EVERY` requests so repairs contend with
//! queries the way they do in production. The `similarity` mix blends in
//! top-k `most_similar` lookups, which read operator rows directly and
//! bypass the Ẑ-row cache — its cache profile against `interactive` shows
//! what recommendation traffic does (and doesn't do) to the hit rate.
//!
//! Latency quantiles come from the engine's own `sigma-obs` histograms
//! (`sigma_serve_predict_ns` / `sigma_serve_predict_batch_ns`) — the harness
//! measures the metrics pipeline end to end rather than keeping a private
//! latency vector. Each config gets a fresh engine, and the previous one is
//! dropped first: the registry holds weak references, so the global snapshot
//! the harness reads is exactly one engine's histograms.
//!
//! Results go to stdout and `BENCH_serving.json` (repo root).
//! Pass `--quick` for the CI-sized run.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sigma::{ContextBuilder, ModelHyperParams, SigmaModel};
use sigma_bench::TablePrinter;
use sigma_datasets::DatasetPreset;
use sigma_graph::Graph;
use sigma_obs::{HistogramSnapshot, MetricValue};
use sigma_serve::{EngineConfig, ServeSnapshot, ShardRouter, ShardRouterConfig};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, SimRankConfig};
use std::time::Instant;

const TOP_K: usize = 16;
/// One edit batch + one `repair_from` per this many requests.
const EDIT_EVERY: usize = 50;
const EDITS_PER_BATCH: usize = 4;

/// Inverse-CDF Zipfian sampler over `n` nodes: rank `r` (0-based) is drawn
/// with probability proportional to `(r + 1)^-skew`, and ranks are mapped to
/// node ids through a seeded permutation so popularity is independent of id
/// order (and of the generator's community layout).
struct ZipfSampler {
    cumulative: Vec<f64>,
    node_of_rank: Vec<usize>,
}

impl ZipfSampler {
    fn new(n: usize, skew: f64, seed: u64) -> Self {
        let mut node_of_rank: Vec<usize> = (0..n).collect();
        node_of_rank.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x51f5));
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += ((rank + 1) as f64).powf(-skew);
            cumulative.push(acc);
        }
        Self {
            cumulative,
            node_of_rank,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let u = rng.gen_range(0.0..total);
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.node_of_rank[rank.min(self.node_of_rank.len() - 1)]
    }
}

/// A batch-size mix: request sizes drawn with the given weights.
struct BatchMix {
    name: &'static str,
    /// `(batch_size, weight)` — size 1 goes through `predict`, larger sizes
    /// through `predict_batch`.
    sizes: &'static [(usize, u32)],
    /// Percentage of requests that are top-k `most_similar` lookups instead
    /// of predicts. Similarity reads operator rows directly and never
    /// touches the Ẑ-row cache, so mixes with similarity traffic profile
    /// the cache differently than pure predict mixes.
    similar_pct: u32,
}

impl BatchMix {
    fn sample(&self, rng: &mut StdRng) -> usize {
        let total: u32 = self.sizes.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.gen_range(0..total);
        for &(size, weight) in self.sizes {
            if pick < weight {
                return size;
            }
            pick -= weight;
        }
        self.sizes.last().expect("non-empty mix").0
    }
}

const MIXES: &[BatchMix] = &[
    // Online point lookups with the occasional small fan-out.
    BatchMix {
        name: "interactive",
        sizes: &[(1, 70), (4, 20), (16, 10)],
        similar_pct: 0,
    },
    // Batch-scoring traffic: almost everything arrives in bulk.
    BatchMix {
        name: "bulk",
        sizes: &[(16, 40), (64, 50), (128, 10)],
        similar_pct: 0,
    },
    // Recommendation traffic: half the requests are top-k similar-nodes
    // lookups over the same Zipfian popularity. Those bypass the Ẑ-row
    // cache entirely, so the hit-rate and eviction contrast against
    // `interactive` is the signal this mix exists to record.
    BatchMix {
        name: "similarity",
        sizes: &[(1, 70), (4, 20), (16, 10)],
        similar_pct: 50,
    },
];

const SKEWS: &[f64] = &[0.75, 1.25];

/// In-process shard counts: 1 (the router degenerates to a façade over one
/// engine — its overhead must be invisible) and 4 (repair fan-out and
/// scatter/gather in play).
const SHARD_COUNTS: &[usize] = &[1, 4];

struct ConfigResult {
    shards: usize,
    skew: f64,
    mix: &'static str,
    requests: usize,
    nodes_served: u64,
    repairs: usize,
    elapsed_s: f64,
    /// Per-request latency over all entry points (merged histograms).
    latency: HistogramSnapshot,
    predict: HistogramSnapshot,
    predict_batch: HistogramSnapshot,
    /// Top-k similarity queries served (zero for pure predict mixes).
    similar_queries: u64,
    similar: HistogramSnapshot,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    rows_repaired: u64,
    dirty_seeds: u64,
    /// Shards that received repair traffic across all rounds (the
    /// `sigma_shard_repair_fanout_total` counter).
    repair_fanout: u64,
    /// Shards skipped by footprint-sparse repair fan-out.
    repair_skipped: u64,
}

/// Pulls one named histogram out of the global metrics snapshot.
fn histogram(snap: &sigma_obs::MetricsSnapshot, name: &str) -> HistogramSnapshot {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.clone(),
        _ => HistogramSnapshot::empty(),
    }
}

/// Deterministic edit batch `round` rounds into the stream: chord inserts
/// and ring deletions, the same pattern the incremental-repair bench uses.
fn edit_batch(n: usize, round: usize) -> Vec<EdgeUpdate> {
    (0..EDITS_PER_BATCH)
        .map(|j| {
            let i = round * EDITS_PER_BATCH + j;
            if i.is_multiple_of(2) {
                EdgeUpdate::Insert((i * 17) % n, (i * 17 + n / 2) % n)
            } else {
                EdgeUpdate::Delete((i * 29) % n, (i * 29 + 1) % n)
            }
        })
        .collect()
}

fn run_config(
    graph: &Graph,
    snapshot: &ServeSnapshot,
    simrank: SimRankConfig,
    shards: usize,
    skew: f64,
    mix: &BatchMix,
    requests: usize,
) -> ConfigResult {
    let n = graph.num_nodes();
    // Fresh maintainer per config (deterministic, so its operator matches
    // the shared snapshot) and a cache sized for pressure, not residence —
    // total capacity held constant across shard counts so hit rates stay
    // comparable (per-shard caches split the same budget).
    let mut maintainer =
        DynamicSimRank::new(graph.clone(), simrank, usize::MAX / 2).expect("maintainer");
    let _ = maintainer.operator().expect("initial operator");
    let engine = ShardRouter::new(
        snapshot,
        &ShardRouterConfig {
            shards,
            engine: EngineConfig {
                cache_capacity: (n / 4 / shards).max(1),
                workers: 0,
                max_chunk: 64,
            },
        },
    )
    .expect("shard router");

    let sampler = ZipfSampler::new(n, skew, 7);
    let mut rng = StdRng::seed_from_u64((skew * 1000.0) as u64 ^ mix.name.len() as u64);
    let mut repairs = 0usize;
    let mut batch = Vec::new();
    let start = Instant::now();
    for request in 0..requests {
        if request > 0 && request % EDIT_EVERY == 0 {
            maintainer
                .apply_batch(&edit_batch(n, repairs))
                .expect("edits in bounds");
            let repair = engine.repair_from(&mut maintainer).expect("repair");
            assert!(!repair.full_refresh, "engine lost its operator lineage");
            repairs += 1;
        }
        if mix.similar_pct > 0 && rng.gen_range(0..100u32) < mix.similar_pct {
            let _ = engine
                .most_similar(sampler.sample(&mut rng), TOP_K / 2)
                .expect("similar query");
            continue;
        }
        let size = mix.sample(&mut rng);
        if size == 1 {
            let _ = engine.predict(sampler.sample(&mut rng)).expect("query");
        } else {
            batch.clear();
            batch.extend((0..size).map(|_| sampler.sample(&mut rng)));
            let _ = engine.predict_batch(&batch).expect("batch query");
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    let metrics = sigma_obs::snapshot();
    let predict = histogram(&metrics, "sigma_serve_predict_ns");
    let predict_batch = histogram(&metrics, "sigma_serve_predict_batch_ns");
    let similar = histogram(&metrics, "sigma_serve_similar_ns");
    // Dropping the router here releases its registry entries (weak refs), so
    // the next config's snapshot sees only its own engines.
    drop(engine);

    ConfigResult {
        shards,
        skew,
        mix: mix.name,
        requests,
        nodes_served: stats.engines.nodes_served,
        repairs,
        elapsed_s,
        latency: predict.merged(&predict_batch).merged(&similar),
        predict,
        predict_batch,
        similar_queries: stats.engines.similar_queries,
        similar,
        cache_hits: stats.engines.cache_hits,
        cache_misses: stats.engines.cache_misses,
        cache_evictions: stats.engines.cache_evictions,
        rows_repaired: stats.engines.rows_repaired,
        dirty_seeds: stats.repair_dirty_seeds,
        repair_fanout: stats.repair_fanout,
        repair_skipped: stats.repair_skipped,
    }
}

/// Client-side wire measurements from one through-the-daemon run.
struct WireResult {
    clients: usize,
    requests: usize,
    elapsed_s: f64,
    /// Exact client-observed latency quantiles, ns (not histogram buckets —
    /// the client keeps every sample).
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    mean_ns: f64,
    /// Overload-phase accounting: one-shot connections fired at a
    /// deliberately tiny admission queue.
    overload_attempts: usize,
    overload_shed: usize,
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives the daemon through real sockets: a latency phase (keep-alive
/// clients, Zipfian single predicts, every sample timed client-side) and an
/// overload phase (a burst of one-shot connections against a tiny admission
/// queue, counting `429` sheds).
fn run_wire(snapshot: &ServeSnapshot, requests: usize) -> WireResult {
    use sigma_daemon::{Backend, Daemon, DaemonConfig};
    use sigma_serve::InferenceEngine;
    use std::sync::Arc;

    let n = snapshot.num_nodes();
    let clients = 4usize;

    // Latency phase: a healthy daemon, default admission settings.
    let engine =
        Arc::new(InferenceEngine::new(snapshot, EngineConfig::default()).expect("wire engine"));
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("wire daemon");
    let addr = daemon.local_addr();

    let per_client = requests / clients;
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let sampler = ZipfSampler::new(n, 1.25, 7 + c as u64);
                let mut rng = StdRng::seed_from_u64(c as u64 ^ 0x3141);
                let mut client = sigma_testutil::WireClient::connect(addr).expect("wire client");
                let mut samples = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let node = sampler.sample(&mut rng);
                    let body = format!("{{\"node\": {node}}}");
                    let sent = Instant::now();
                    let resp = client
                        .request("POST", "/v1/predict", &[], body.as_bytes())
                        .expect("wire predict");
                    assert_eq!(resp.status, 200, "healthy-phase request failed");
                    samples.push(sent.elapsed().as_nanos() as u64);
                }
                samples
            })
        })
        .collect();
    let mut samples: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("wire client thread"))
        .collect();
    let elapsed_s = start.elapsed().as_secs_f64();
    samples.sort_unstable();
    let mean_ns = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
    let measured = samples.len();
    let (p50_ns, p95_ns, p99_ns) = (
        exact_quantile(&samples, 0.50),
        exact_quantile(&samples, 0.95),
        exact_quantile(&samples, 0.99),
    );
    daemon.shutdown();

    // Overload phase: 1 worker, a 2-deep queue, and a burst of one-shot
    // connections — the daemon must shed the excess with 429, cheaply.
    let engine =
        Arc::new(InferenceEngine::new(snapshot, EngineConfig::default()).expect("overload engine"));
    let config = DaemonConfig {
        workers: 1,
        queue_capacity: 2,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(Backend::Engine(engine), None, config).expect("overload daemon");
    let addr = daemon.local_addr();
    let burst_threads = 8usize;
    let per_thread = 16usize;
    let shed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let burst: Vec<_> = (0..burst_threads)
        .map(|c| {
            let shed = shed.clone();
            std::thread::spawn(move || {
                let sampler = ZipfSampler::new(n, 1.25, 11 + c as u64);
                let mut rng = StdRng::seed_from_u64(c as u64 ^ 0x2718);
                for _ in 0..per_thread {
                    let node = sampler.sample(&mut rng);
                    match sigma_testutil::wire::post_json(
                        addr,
                        "/v1/predict",
                        &format!("{{\"node\": {node}}}"),
                    ) {
                        Ok(resp) if resp.status == 429 || resp.status == 503 => {
                            shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Ok(_) => {}
                        // A connection reset mid-shed still counts as shed.
                        Err(_) => {
                            shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in burst {
        handle.join().expect("burst thread");
    }
    let overload_shed = shed.load(std::sync::atomic::Ordering::Relaxed);
    daemon.shutdown();

    WireResult {
        clients,
        requests: measured,
        elapsed_s,
        p50_ns,
        p95_ns,
        p99_ns,
        mean_ns,
        overload_attempts: burst_threads * per_thread,
        overload_shed,
    }
}

fn quantiles_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"mean_ns\": {:.0}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
        h.count,
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99)
    )
}

fn emit_json(quick: bool, n: usize, edges: usize, results: &[ConfigResult], wire: &WireResult) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serving_load\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(
        "  \"note\": \"latency quantiles are read from the engine's sigma-obs histograms \
         (bucket upper bounds, <= 12.5% relative error); absolute numbers are single-host and \
         the in-process pool shares cores with the load generator — cross-config ratios \
         (skew and batch-mix effects on hit rate and tail latency) are the portable signal\",\n",
    );
    out.push_str(&format!(
        "  \"graph\": {{\"nodes\": {n}, \"edges\": {edges}}},\n"
    ));
    out.push_str(&format!(
        "  \"edit_traffic\": {{\"edit_every_requests\": {EDIT_EVERY}, \
         \"edits_per_batch\": {EDITS_PER_BATCH}}},\n"
    ));
    out.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let hit_rate = r.cache_hits as f64 / (r.cache_hits + r.cache_misses).max(1) as f64;
        out.push_str(&format!(
            "    {{\"shards\": {}, \"skew\": {}, \"mix\": \"{}\", \"requests\": {}, \
             \"nodes_served\": {}, \
             \"repairs\": {}, \"elapsed_s\": {:.3}, \
             \"throughput_requests_per_s\": {:.1}, \"throughput_nodes_per_s\": {:.1}, \
             \"latency\": {}, \"predict\": {}, \"predict_batch\": {}, \
             \"similar\": {{\"queries\": {}, \"latency\": {}}}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"hit_rate\": {:.4}}}, \
             \"repair\": {{\"rows_repaired\": {}, \"dirty_seeds\": {}, \
             \"shard_fanout\": {}, \"shard_skipped\": {}}}}}{}\n",
            r.shards,
            r.skew,
            r.mix,
            r.requests,
            r.nodes_served,
            r.repairs,
            r.elapsed_s,
            r.requests as f64 / r.elapsed_s,
            r.nodes_served as f64 / r.elapsed_s,
            quantiles_json(&r.latency),
            quantiles_json(&r.predict),
            quantiles_json(&r.predict_batch),
            r.similar_queries,
            quantiles_json(&r.similar),
            r.cache_hits,
            r.cache_misses,
            r.cache_evictions,
            hit_rate,
            r.rows_repaired,
            r.dirty_seeds,
            r.repair_fanout,
            r.repair_skipped,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"wire\": {{\"clients\": {}, \"requests\": {}, \"elapsed_s\": {:.3}, \
         \"throughput_requests_per_s\": {:.1}, \
         \"latency\": {{\"mean_ns\": {:.0}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}, \
         \"overload\": {{\"attempts\": {}, \"shed\": {}, \"shed_rate\": {:.4}}}}}\n",
        wire.clients,
        wire.requests,
        wire.elapsed_s,
        wire.requests as f64 / wire.elapsed_s.max(1e-9),
        wire.mean_ns,
        wire.p50_ns,
        wire.p95_ns,
        wire.p99_ns,
        wire.overload_attempts,
        wire.overload_shed,
        wire.overload_shed as f64 / wire.overload_attempts.max(1) as f64,
    ));
    out.push_str("}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(root, &out).expect("write BENCH_serving.json at the repo root");
    println!("wrote {root}");
}

fn main() {
    if !sigma_obs::ENABLED {
        // The whole point of this harness is exercising the metrics pipeline;
        // without it there are no histograms to report from.
        println!("serving_load: built without the `obs` feature; skipping (no histograms)");
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, requests) = if quick { (0.25, 400) } else { (1.0, 2000) };

    let data = DatasetPreset::Pokec.build(scale, 47).expect("preset");
    let graph = data.graph.clone();
    let n = graph.num_nodes();
    let edges = graph.num_edges();
    let features = data.features.clone();
    println!(
        "pokec-like serving graph: {n} nodes, {edges} edges, {requests} requests/config \
         (quick: {quick})"
    );

    // One shared snapshot: untrained (deterministically initialised) model
    // over the maintainer's operator — latency does not depend on weight
    // values, and skipping training keeps the harness about serving.
    let simrank = SimRankConfig::default().with_top_k(TOP_K);
    let mut maintainer =
        DynamicSimRank::new(graph.clone(), simrank, usize::MAX / 2).expect("maintainer");
    let operator = maintainer.operator().expect("operator");
    let ctx = ContextBuilder::new(data)
        .with_simrank_operator(operator)
        .build()
        .expect("context");
    let model = SigmaModel::new(
        &ctx,
        &ModelHyperParams::small(),
        &mut StdRng::seed_from_u64(47),
    )
    .expect("model");
    let snapshot = ServeSnapshot::new(
        "serving-load",
        model.snapshot(&ctx).expect("model snapshot"),
        features,
        graph.to_adjacency(),
    )
    .expect("serve snapshot");

    let mut table = TablePrinter::new(vec![
        "shards", "skew", "mix", "req/s", "p50 µs", "p95 µs", "p99 µs", "hit rate", "sim q",
        "repairs", "fanout",
    ]);
    let mut results = Vec::new();
    for &shards in SHARD_COUNTS {
        for &skew in SKEWS {
            for mix in MIXES {
                let r = run_config(&graph, &snapshot, simrank, shards, skew, mix, requests);
                let hits = r.cache_hits as f64 / (r.cache_hits + r.cache_misses).max(1) as f64;
                table.add_row(vec![
                    format!("{shards}"),
                    format!("{skew}"),
                    r.mix.to_string(),
                    format!("{:.0}", r.requests as f64 / r.elapsed_s),
                    format!("{:.1}", r.latency.quantile(0.50) as f64 / 1e3),
                    format!("{:.1}", r.latency.quantile(0.95) as f64 / 1e3),
                    format!("{:.1}", r.latency.quantile(0.99) as f64 / 1e3),
                    format!("{hits:.3}"),
                    format!("{}", r.similar_queries),
                    format!("{}", r.repairs),
                    format!("{}/{}", r.repair_fanout, r.repair_fanout + r.repair_skipped),
                ]);
                results.push(r);
            }
        }
    }
    table.print("serving load: shards x Zipfian skew x batch mix");
    println!("(latency = per-request, merged over predict, predict_batch, and similar histograms)");

    // Through-the-wire mode: the same snapshot served by a real
    // `sigma-daemon` over loopback sockets, latency measured client-side.
    let wire = run_wire(&snapshot, requests);
    println!(
        "wire ({} keep-alive clients, {} requests): p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs; \
         overload burst shed {}/{} ({:.1}%)",
        wire.clients,
        wire.requests,
        wire.p50_ns as f64 / 1e3,
        wire.p95_ns as f64 / 1e3,
        wire.p99_ns as f64 / 1e3,
        wire.overload_shed,
        wire.overload_attempts,
        100.0 * wire.overload_shed as f64 / wire.overload_attempts.max(1) as f64,
    );
    emit_json(quick, n, edges, &results, &wire);
}
