//! `engine_bulk` — batch scoring in process: the 32 000-node snapshot opened
//! mapped, a 2-shard `ShardRouter`, one caller thread issuing
//! `predict_batch` of 16 to 128 nodes over Zipf(0.75) with a cache an eighth
//! of the graph (low hit rate, evictions on). `serve.engine`/`cache`/`shard`
//! and `matrix::spmm_rows` plus the MLP head do the work and the daemon
//! none: it is the bypass workload for every wire optimisation and the
//! exercise workload for row-layout, index-width and cache changes.
//!
//! Closed loop, one client.

use crate::gen::{self, sub_seed, ZipfSampler};
use crate::report::{gate, set_up_repeatedly, Outcome, RunArgs, RunError};
use crate::spec::*;
use crate::trace::Tracer;
use crate::{host, obs, stats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma_serve::{EngineConfig, MappedSnapshot, Prediction, ShardRouter};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn engine_config(cache_rows_per_shard: usize) -> EngineConfig {
    EngineConfig {
        cache_capacity: cache_rows_per_shard,
        workers: 0,
        max_chunk: 64,
    }
}

fn open_router(mapped: &Arc<MappedSnapshot>, cache_rows_per_shard: usize) -> ShardRouter {
    ShardRouter::from_mapped(
        vec![mapped.clone(); BULK_SHARDS],
        engine_config(cache_rows_per_shard),
    )
    .expect("router over the generated snapshot")
}

/// Order-independent digest of what was served: node, label, logit bits.
fn digest(p: &Prediction) -> u64 {
    let mut h = sub_seed(p.node as u64, p.label as u64);
    for logit in &p.logits {
        h = sub_seed(h, u64::from(logit.to_bits()));
    }
    h
}

struct Stages {
    open_us: Vec<f64>,
    verify_ms: Vec<f64>,
    build_ms: Vec<f64>,
    total_ms: Vec<f64>,
}

/// Cold start as a caller sees it: file on disk to first answer.
fn cold_starts(path: &Path, cache_rows_per_shard: usize) -> Stages {
    let mut stages = Stages {
        open_us: Vec::new(),
        verify_ms: Vec::new(),
        build_ms: Vec::new(),
        total_ms: Vec::new(),
    };
    for _ in 0..BULK_COLDSTARTS {
        let start = Instant::now();
        let mapped = Arc::new(MappedSnapshot::open(path).expect("open the saved snapshot"));
        let opened = Instant::now();
        mapped.verify().expect("the saved snapshot verifies");
        let verified = Instant::now();
        let router = open_router(&mapped, cache_rows_per_shard);
        let built = Instant::now();
        std::hint::black_box(router.predict(0).expect("first query"));
        let answered = Instant::now();
        stages.open_us.push((opened - start).as_secs_f64() * 1e6);
        stages
            .verify_ms
            .push((verified - opened).as_secs_f64() * 1e3);
        stages.build_ms.push((built - verified).as_secs_f64() * 1e3);
        stages.total_ms.push((answered - start).as_secs_f64() * 1e3);
    }
    stages
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, RunError> {
    let threads = host::compute_threads();
    sigma_parallel::set_global_threads(threads);
    let n = SNAPSHOT_NODES;
    let cache_rows_per_shard = n / BULK_CACHE_DIVISOR / BULK_SHARDS;
    let path = gen::snapshot_file(&args.out, "engine_bulk");
    let sampler = ZipfSampler::new(n, BULK_ZIPF, sub_seed(args.seed, 1));
    let draw_batch = |rng: &mut StdRng, batch: &mut Vec<usize>| {
        let size = gen::sample_mix(BULK_MIX, rng);
        batch.clear();
        batch.extend((0..size).map(|_| sampler.sample(rng)));
    };

    // Set-up: generate and save the snapshot, map it, build the router,
    // run until the caches are full.
    let ((mapped, router), setup_s) = set_up_repeatedly(args.trace, || {
        gen::save_snapshot(n, args.seed, &path)?;
        let mapped = Arc::new(MappedSnapshot::open(&path).expect("open the saved snapshot"));
        let router = open_router(&mapped, cache_rows_per_shard);
        let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 2));
        let mut batch = Vec::new();
        for _ in 0..BULK_WARMUP_CALLS {
            draw_batch(&mut rng, &mut batch);
            router.predict_batch(&batch).expect("warm-up query");
        }
        Ok((mapped, router))
    })?;
    let cold = cold_starts(&path, cache_rows_per_shard);

    // Measured phase.
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 3));
    let mut batch = Vec::new();
    let mut lat = stats::Samples::new(BULK_SAMPLE_CAPACITY, 1);
    let (mut busy_ns, mut think_ns) = (0u64, 0u64);
    let mut kernel_us_per_node: Vec<f64> = Vec::new();
    let mut served = vec![0u32; n];
    let mut checksum = 0u64;
    let mut nodes = 0u64;
    let mut scored = stats::Marks::new(args.seconds / RUN_SLICES as f64);
    let stats_before = router.stats();
    let obs_before = sigma_obs::snapshot();
    let operator = mapped.operator_view().expect("the snapshot carries S");
    let embeddings = mapped.embeddings_view().expect("the snapshot carries H");
    let phase = Instant::now();
    let mut last_end = phase;
    while phase.elapsed().as_secs_f64() < args.seconds {
        draw_batch(&mut rng, &mut batch);
        let call = lat.seen();
        let root = tracer.begin("request", None, call);
        let start = Instant::now();
        think_ns += (start - last_end).as_nanos() as u64;
        let span = tracer.begin("serve.predict_batch", Some(root), call);
        let predictions = router.predict_batch(&batch).expect("batch query");
        tracer.end(span);
        last_end = Instant::now();
        let took_ns = (last_end - start).as_nanos() as u64;
        lat.offer(took_ns);
        busy_ns += took_ns;
        nodes += batch.len() as u64;
        scored.tick((last_end - phase).as_secs_f64(), nodes);
        for p in &predictions {
            served[p.node] += 1;
            checksum = checksum.wrapping_add(digest(p));
        }
        // The floor under the engine: the row-slice kernel alone, on the
        // rows this call missed.
        if tracer.enabled() && call.is_multiple_of(8) {
            let misses: Vec<usize> = predictions
                .iter()
                .filter(|p| !p.cached)
                .map(|p| p.node)
                .collect();
            if !misses.is_empty() {
                let span = tracer.begin("matrix.spmm_rows", Some(root), call);
                let start = Instant::now();
                std::hint::black_box(operator.spmm_rows(&misses, embeddings).expect("row slice"));
                kernel_us_per_node.push(start.elapsed().as_secs_f64() * 1e6 / misses.len() as f64);
                tracer.end(span);
            }
        }
        tracer.end(root);
    }
    let wall = phase.elapsed();
    let stats_after = router.stats();
    let obs_after = sigma_obs::snapshot();

    // Gate: what was served equals a cache-disabled pass over the same file.
    let reference = open_router(&mapped, 0);
    let all: Vec<usize> = (0..n).collect();
    let mut expected = 0u64;
    for chunk in all.chunks(1024) {
        for p in reference.predict_batch(chunk).expect("reference query") {
            expected = expected.wrapping_add(digest(&p).wrapping_mul(u64::from(served[p.node])));
        }
    }
    let _ = std::fs::remove_file(&path);
    gate(checksum == expected, || {
        format!(
            "served label/logit checksum {checksum:#x} != cache-disabled reference {expected:#x}"
        )
    })?;

    let lat_ns = lat.to_vec();
    let mut out = Outcome {
        attempted: lat.seen(),
        ..Outcome::default()
    };
    let p50_us = stats::quiet_quantile(&lat_ns, RUN_SLICES, 0.5) / 1e3;
    if args.trace {
        let e = |f: fn(&sigma_serve::EngineStats) -> u64| {
            (f(&stats_after.engines) - f(&stats_before.engines)) as f64
        };
        let (hits, misses) = (e(|s| s.cache_hits), e(|s| s.cache_misses));
        let batches = (stats_after.batches_routed - stats_before.batches_routed) as f64;
        let dispatched =
            (stats_after.shard_batches_dispatched - stats_before.shard_batches_dispatched) as f64;
        let single: Vec<f64> = (0..2_000)
            .map(|_| {
                let node = sampler.sample(&mut rng);
                let start = Instant::now();
                std::hint::black_box(router.predict(node).expect("single query"));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.set("coldstart_ms", stats::median(&cold.total_ms));
        out.set("fail_rate", 0.0);
        out.set("serve.snapshot_open_us", stats::median(&cold.open_us));
        out.set("serve.snapshot_verify_ms", stats::median(&cold.verify_ms));
        out.set("serve.engine_build_ms", stats::median(&cold.build_ms));
        out.set("serve.snapshot_bytes", mapped.len_bytes() as f64);
        out.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
        out.set("serve.cache_evictions", e(|s| s.cache_evictions));
        out.set("serve.predict_us", stats::median(&single));
        out.set(
            "serve.predict_batch_us_per_node",
            busy_ns as f64 / 1e3 / nodes as f64,
        );
        out.set("serve.shard_fanout_mean", dispatched / batches.max(1.0));
        out.set("serve.shard_batches_dispatched", dispatched);
        if !kernel_us_per_node.is_empty() {
            out.set(
                "matrix.spmm_rows_us_per_node",
                stats::median(&kernel_us_per_node),
            );
        }
        let pool = obs::pool_use(&obs_before, &obs_after, wall.as_nanos() as u64, threads);
        out.set("parallel.pool_busy_share", pool.busy_share);
        out.set("parallel.range_imbalance_p50", pool.imbalance_p50_permille);
        out.set("parallel.scratch_hit_rate", pool.scratch_hit_rate);
        out.set("client_think_us", think_ns as f64 / 1e3 / lat.seen() as f64);
        out.set("trace.lat_p50_us", p50_us);
    } else {
        out.set("setup_s", setup_s);
        out.set("operator_ms", stats::quiet(&cold.total_ms));
        out.set("nodes_per_s", scored.quiet_rate());
        out.set("lat_p50_us", p50_us);
        out.set(
            "lat_p99_us",
            stats::quiet_quantile(&lat_ns, RUN_SLICES, 0.99) / 1e3,
        );
        out.set("peak_rss_mb", host::peak_rss_mb(std::process::id())?);
    }
    Ok(out)
}
