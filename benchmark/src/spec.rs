//! The benchmark's fixed vocabulary and its one constants block: workload
//! names, metric names with unit and direction, phase durations, load
//! constants. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; 0 for layer metrics,
    /// which have no bound.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

const fn bounded(spec: MetricSpec, bound: f64) -> MetricSpec {
    MetricSpec { bound, ..spec }
}

/// Workloads with the reason each exists (the `why` in `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "learn_pokec",
        "offline pipeline: LocalPush precompute x3, 60 SIGMA epochs, 20 GloGNN epochs; simrank, matrix, nn and core work, serve and daemon idle",
    ),
    (
        "wire_point",
        "Zipf(1.25) point lookups through the sigma-daemon binary over one socket on one CPU, closed loop (then open loop when traced); http, json, batch window and hand-off dominate, kernels idle",
    ),
    (
        "engine_bulk",
        "in-process predict_batch of 16 to 128 nodes over Zipf(0.75) with a small cache on a 2-shard router; engine, cache, shards and spmm_rows work, daemon idle",
    ),
    (
        "repair_churn",
        "closed-loop reads beside a 4-edit batch and repair_from every 500 ms on a 2-shard router; the only workload where incremental LocalPush and row splicing are hot",
    ),
];

/// What a user of the system sees. Every workload reports every one of
/// these from its own pipeline; the README's cell table says what each
/// means where.
///
/// The timing bounds are the widest the runner allows. On the 2-vCPU
/// reference host ten runs of one build spread 1 to 8 %, and the host's
/// own speed moves by a fifth for a minute at a time (README,
/// "Steadiness"), so a tighter bound would reject unchanged code.
pub const END_TO_END: &[MetricSpec] = &[
    bounded(lower("setup_s", "s"), 0.25),
    bounded(lower("operator_ms", "ms"), 0.25),
    bounded(higher("nodes_per_s", "1/s"), 0.25),
    bounded(lower("lat_p50_us", "us"), 0.25),
    bounded(lower("lat_p99_us", "us"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.15),
];

/// Single-layer metrics, emitted by a traced run. A layer a workload does
/// not exercise reports 0: that is the bypass prediction made visible.
pub const PER_LAYER: &[MetricSpec] = &[
    // Workload-specific user-visible numbers, kept by their issue names.
    lower("precompute_s", "s"),
    lower("epoch_ms", "ms"),
    lower("learn_s", "s"),
    lower("coldstart_ms", "ms"),
    higher("req_per_s", "1/s"),
    higher("ontime_share", "share"),
    lower("repair_p50_ms", "ms"),
    lower("fail_rate", "share"),
    // simrank
    lower("simrank.localpush_s", "s"),
    lower("simrank.pushes", "count"),
    lower("simrank.scores_nnz", "count"),
    lower("simrank.topk_s", "s"),
    lower("simrank.operator_nnz", "count"),
    lower("simrank.repair_ms", "ms"),
    lower("simrank.dirty_seeds", "count"),
    lower("simrank.repair_pushes", "count"),
    // matrix
    lower("matrix.spmm_ms", "ms"),
    lower("matrix.spmm_transpose_ms", "ms"),
    lower("matrix.spmm_flops", "count"),
    lower("matrix.spmm_bytes_computed", "count"),
    lower("matrix.spmm_rows_us_per_node", "us"),
    lower("matrix.replace_rows_ms", "ms"),
    // core, nn
    lower("core.agg_share", "share"),
    lower("core.train_s", "s"),
    higher("core.test_accuracy", "share"),
    lower("core.glognn_epoch_ms", "ms"),
    higher("core.glognn_ratio", "ratio"),
    lower("nn.mlp_fwd_ms", "ms"),
    lower("nn.mlp_bwd_ms", "ms"),
    // parallel
    higher("parallel.pool_busy_share", "share"),
    lower("parallel.range_imbalance_p50", "permille"),
    higher("parallel.scratch_hit_rate", "share"),
    // serve
    lower("serve.snapshot_open_us", "us"),
    lower("serve.snapshot_verify_ms", "ms"),
    lower("serve.engine_build_ms", "ms"),
    lower("serve.snapshot_bytes", "count"),
    higher("serve.cache_hit_rate", "share"),
    lower("serve.cache_evictions", "count"),
    lower("serve.predict_us", "us"),
    lower("serve.predict_batch_us_per_node", "us"),
    lower("serve.shard_fanout_mean", "count"),
    lower("serve.shard_batches_dispatched", "count"),
    lower("serve.apply_repair_ms", "ms"),
    lower("serve.rows_repaired", "count"),
    lower("serve.rows_invalidated", "count"),
    higher("serve.repair_skipped_shards", "count"),
    lower("serve.read_stall_ms", "ms"),
    // daemon
    lower("daemon.http_parse_us", "us"),
    lower("daemon.json_parse_us", "us"),
    lower("daemon.serialise_us", "us"),
    higher("daemon.serialise_copy_ok", "count"),
    lower("daemon.batch_wait_us", "us"),
    higher("daemon.batch_size_mean", "count"),
    lower("daemon.batch_flushes", "count"),
    higher("daemon.coalesced_predicts", "count"),
    lower("daemon.connections_shed", "count"),
    lower("daemon.deadline_shed", "count"),
    lower("daemon.request_ns_p50", "ns"),
    lower("daemon.unattributed_us", "us"),
    // load generator and tracer
    lower("gen_late_p99_us", "us"),
    lower("client_think_us", "us"),
    lower("trace.lat_p50_us", "us"),
    lower("trace.spans", "count"),
];

// ---------------------------------------------------------------------------
// The constants block. Everything that sizes a run lives here so the whole
// benchmark can be scaled to a time cap in one place.
// ---------------------------------------------------------------------------

/// Seed used when none is given, and the seed later claims must also hold on.
pub const DEFAULT_SEED: u64 = 47;
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// `--seconds` when none is given; `BENCHMARK.json` `run_seconds` matches.
pub const RUN_SECONDS: u64 = 20;

/// Threads a workload runs at once never exceed this or the core count;
/// `host::compute_threads` leaves one core more to the host.
pub const MAX_LOAD_THREADS: usize = 2;

/// Set-up is repeated this many times per timed run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// A run's latencies and rates are taken per slice, over this many equal
/// slices of the measured phase, and the run reports a quartile of the
/// slice values (`stats::quiet_quantile`, `stats::Marks`). A second each at
/// `RUN_SECONDS`, so that every slice of `repair_churn` holds two repairs.
pub const RUN_SLICES: usize = 20;

// learn_pokec: fixed work, sized to take about RUN_SECONDS on a 2-core host.
pub const LEARN_SCALE: f64 = 1.6;
pub const LEARN_EPOCHS: usize = 60;
pub const GLOGNN_EPOCHS: usize = 20;
pub const LEARN_WARMUP_EPOCHS: usize = 2;
pub const SIMRANK_DECAY: f64 = 0.6;
pub const SIMRANK_EPSILON: f64 = 0.1;
pub const SIMRANK_TOP_K: usize = 16;
/// `core.test_accuracy` below this fails the run.
pub const ACCURACY_FLOOR: f64 = 0.9;

// The serving snapshot shared by wire_point and engine_bulk.
pub const SNAPSHOT_NODES: usize = 32_000;

// wire_point
pub const WIRE_ZIPF: f64 = 1.25;
pub const WIRE_WORKERS: usize = 2;
pub const WIRE_WINDOW_US: u64 = 200;
/// Requests that run the connection warm after the cache is filled.
pub const WIRE_WARMUP_REQUESTS: usize = 400;
/// In a traced run, the closed loop's share of the wire time; the rest is
/// the open loop. A timed run is all closed loop.
pub const WIRE_CLOSED_SHARE: f64 = 0.5;
/// Open-loop arrival rate, about 40 % of the closed loop's throughput at
/// the default seed on the reference host.
pub const WIRE_OPEN_RATE_PER_S: f64 = 1_350.0;
/// A due request answered 200 within this of its due time is on time.
pub const WIRE_ONTIME_LIMIT_US: u64 = 800;
/// Share of replies compared bit for bit against an in-process engine.
pub const WIRE_CHECK_EVERY: usize = 100;
/// Daemon restarts timed for `operator_ms`.
pub const WIRE_SPAWNS: usize = 11;
/// Requests a traced run replays in process, stage by stage, and round
/// trips it makes through a stand-alone micro-batcher.
pub const WIRE_REPLAY_REQUESTS: usize = 20_000;
pub const WIRE_BATCHER_ROUND_TRIPS: usize = 400;
/// A run whose generator p99 lateness exceeds this share of the on-time
/// limit measured the scheduler, not the daemon: it is marked noisy.
pub const NOISY_LATE_SHARE: f64 = 0.75;

// engine_bulk
pub const BULK_ZIPF: f64 = 0.75;
pub const BULK_SHARDS: usize = 2;
/// `(batch size, weight in percent)`.
pub const BULK_MIX: &[(usize, u32)] = &[(16, 40), (64, 50), (128, 10)];
/// Total cache rows over all shards = nodes / this.
pub const BULK_CACHE_DIVISOR: usize = 8;
pub const BULK_COLDSTARTS: usize = 11;
pub const BULK_WARMUP_CALLS: usize = 400;
pub const BULK_SAMPLE_CAPACITY: usize = 2_000_000;

// repair_churn
pub const CHURN_SCALE: f64 = 1.0;
pub const CHURN_ZIPF: f64 = 1.0;
pub const CHURN_SHARDS: usize = 2;
pub const CHURN_EDITS_PER_BATCH: usize = 4;
pub const CHURN_REPAIR_EVERY_MS: u64 = 500;
pub const CHURN_SIMILAR_K: usize = 8;
pub const CHURN_WARMUP_READS: usize = 2_000;
/// Every read is timed; every `STRIDE`-th lands in a buffer of `CAPACITY`
/// samples allocated before the run, and a traced run records the spans of
/// every `TRACE_EVERY`-th read.
pub const CHURN_SAMPLE_STRIDE: u64 = 8;
pub const CHURN_SAMPLE_CAPACITY: usize = 4_000_000;
pub const CHURN_TRACE_EVERY: u64 = 64;

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}
