//! `repair_churn` — the `serve` and `simrank` layers used for writes beside
//! reads: the pokec-like graph with a real LocalPush operator kept by
//! `DynamicSimRank`, a 2-shard `ShardRouter`, one closed-loop reader (70 %
//! `predict`, 20 % `predict_batch(4)`, 10 % `most_similar(8)`, Zipf 1.0)
//! and one editor applying a 4-edit batch plus `repair_from` every 500 ms.
//! A layout or cache change that speeds `engine_bulk` reads but makes row
//! splicing, invalidation or lock hold time worse shows here and nowhere
//! else; it is also the only workload where incremental LocalPush is hot.
//!
//! Closed loop, one reader; the editor runs on a schedule.

use crate::gen::{self, simrank_config, sub_seed, ZipfSampler};
use crate::report::{gate, set_up_repeatedly, Outcome, RunArgs, RunError};
use crate::spec::*;
use crate::trace::Tracer;
use crate::{host, stats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigma::{ContextBuilder, ModelHyperParams, SigmaModel};
use sigma_datasets::DatasetPreset;
use sigma_graph::Graph;
use sigma_serve::{
    EngineConfig, InferenceEngine, RouterStats, ServeSnapshot, ShardRouter, ShardRouterConfig,
};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, RepairOutcome};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn maintainer_over(graph: Graph) -> DynamicSimRank {
    // A huge staleness budget: only explicit repairs bring the operator up
    // to date, never the lazy full refresh.
    DynamicSimRank::new(graph, simrank_config(), usize::MAX / 2).expect("valid config")
}

struct Serving {
    graph: Graph,
    snapshot: ServeSnapshot,
    maintainer: DynamicSimRank,
    router: ShardRouter,
}

fn set_up(seed: u64, sampler_seed: u64) -> Serving {
    let data = DatasetPreset::Pokec
        .build(CHURN_SCALE, seed)
        .expect("pokec preset at the benchmark scale");
    let graph = data.graph.clone();
    let features = data.features.clone();
    let n = graph.num_nodes();
    let mut maintainer = maintainer_over(graph.clone());
    let operator = maintainer.operator().expect("initial operator");
    let ctx = ContextBuilder::new(data)
        .with_simrank_operator(operator)
        .build()
        .expect("context over the generated dataset");
    // Deterministically initialised weights: serving cost does not depend
    // on their values, and skipping training keeps set-up about serving.
    let model = SigmaModel::new(
        &ctx,
        &ModelHyperParams::small(),
        &mut StdRng::seed_from_u64(seed),
    )
    .expect("model construction");
    let snapshot = ServeSnapshot::new(
        "repair-churn",
        model.snapshot(&ctx).expect("model snapshot"),
        features,
        graph.to_adjacency(),
    )
    .expect("serve snapshot");
    let router = ShardRouter::new(
        &snapshot,
        &ShardRouterConfig {
            shards: CHURN_SHARDS,
            engine: EngineConfig {
                cache_capacity: (n / 4 / CHURN_SHARDS).max(1),
                workers: 0,
                max_chunk: 64,
            },
        },
    )
    .expect("shard router");
    let sampler = ZipfSampler::new(n, CHURN_ZIPF, sampler_seed);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    for _ in 0..CHURN_WARMUP_READS {
        router
            .predict(sampler.sample(&mut rng))
            .expect("warm-up read");
    }
    Serving {
        graph,
        snapshot,
        maintainer,
        router,
    }
}

/// One read of the mix; returns nodes scored, or `None` if the call failed.
fn read(
    router: &ShardRouter,
    sampler: &ZipfSampler,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    root: usize,
    id: u64,
) -> Option<u64> {
    let pick = rng.gen_range(0..100u32);
    if pick < 70 {
        let node = sampler.sample(rng);
        tracer
            .scope("serve.predict", Some(root), id, || router.predict(node))
            .ok()
            .map(|_| 1)
    } else if pick < 90 {
        let nodes: Vec<usize> = (0..4).map(|_| sampler.sample(rng)).collect();
        tracer
            .scope("serve.predict_batch", Some(root), id, || {
                router.predict_batch(&nodes)
            })
            .ok()
            .map(|_| 4)
    } else {
        let node = sampler.sample(rng);
        tracer
            .scope("serve.most_similar", Some(root), id, || {
                router.most_similar(node, CHURN_SIMILAR_K)
            })
            .ok()
            .map(|_| 1)
    }
}

struct Reads {
    lat_ns: stats::Samples,
    /// The longest read that started in each `STALL_BUCKET_NS` of the phase,
    /// as `(start, duration)` in nanoseconds from the phase start.
    longest: Vec<(u64, u64)>,
    think_ns: u64,
    nodes: u64,
    scored: stats::Marks,
    failed: u64,
}

const STALL_BUCKET_NS: u64 = 10_000_000;

#[derive(Default)]
struct Repairs {
    /// `(start, end)` of each `repair_from`, nanoseconds from the phase start.
    intervals: Vec<(u64, u64)>,
    full_refresh: bool,
    skipped_shards: u64,
    applied: usize,
}

struct Editor<'a> {
    router: &'a ShardRouter,
    maintainer: &'a mut DynamicSimRank,
    trace: &'a [Vec<EdgeUpdate>],
    phase: Instant,
    tracer: Tracer,
    repairs: Repairs,
}

impl Editor<'_> {
    fn due_ns(&self) -> u64 {
        (self.repairs.applied as u64 + 1) * CHURN_REPAIR_EVERY_MS * 1_000_000
    }

    fn round(&mut self) {
        let tracer = &mut self.tracer;
        let batch = &self.trace[self.repairs.applied % self.trace.len()];
        let id = self.repairs.applied as u64;
        let root = tracer.begin("repair_round", None, id);
        tracer.scope("simrank.apply_batch", Some(root), id, || {
            self.maintainer.apply_batch(batch).expect("in-bounds edits")
        });
        let start = self.phase.elapsed().as_nanos() as u64;
        let repair = tracer.scope("serve.repair_from", Some(root), id, || {
            self.router.repair_from(self.maintainer).expect("repair")
        });
        let end = self.phase.elapsed().as_nanos() as u64;
        tracer.end(root);
        self.repairs.intervals.push((start, end));
        self.repairs.full_refresh |= repair.full_refresh;
        self.repairs.skipped_shards += repair.skipped as u64;
        self.repairs.applied += 1;
    }
}

/// Median over repairs of the longest read overlapping each repair, from
/// the per-bucket longest reads.
fn read_stall_ms(reads: &[(u64, u64)], repairs: &[(u64, u64)]) -> f64 {
    let stalls: Vec<f64> = repairs
        .iter()
        .map(|&(lo, hi)| {
            reads
                .iter()
                .filter(|&&(start, dur)| start < hi && start + dur > lo)
                .map(|&(_, dur)| dur)
                .max()
                .unwrap_or(0) as f64
                / 1e6
        })
        .collect();
    stats::median(&stalls)
}

/// Replays the applied batches on a second maintainer to time the layers
/// under `repair_from` alone: `DynamicSimRank::repair` and the row splice.
fn layer_probes(
    out: &mut Outcome,
    graph: &Graph,
    trace: &[Vec<EdgeUpdate>],
    applied: usize,
    repair_p50_ms: f64,
) {
    let mut maintainer = maintainer_over(graph.clone());
    let mut operator = maintainer.operator().expect("initial operator");
    let (mut repair_ms, mut splice_ms) = (Vec::new(), Vec::new());
    let (mut dirty, mut pushes) = (0usize, 0usize);
    for round in 0..applied {
        maintainer
            .apply_batch(&trace[round % trace.len()])
            .expect("in-bounds edits");
        let start = Instant::now();
        let outcome = maintainer.repair().expect("repair");
        repair_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let RepairOutcome::Patched(patched) = outcome {
            dirty += patched.dirty_seeds;
            pushes += patched.pushes;
            let patch = maintainer
                .operator_rows(&patched.changed_rows)
                .expect("changed rows are in bounds");
            let start = Instant::now();
            operator = operator
                .replace_rows(&patched.changed_rows, &patch)
                .expect("row splice");
            splice_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let simrank_ms = stats::median(&repair_ms);
    out.set("simrank.repair_ms", simrank_ms);
    out.set("simrank.dirty_seeds", dirty as f64);
    out.set("simrank.repair_pushes", pushes as f64);
    if !splice_ms.is_empty() {
        out.set("matrix.replace_rows_ms", stats::median(&splice_ms));
    }
    out.set("serve.apply_repair_ms", repair_p50_ms - simrank_ms);
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, RunError> {
    let threads = host::load_threads();
    // The reader is one load thread and the editor the other, so the pool
    // gets no worker of its own: a repair runs on the editor's thread. With
    // two pool workers beside them the reader was descheduled during every
    // repair and its p50 spread 22 % over six runs instead of 8 %.
    sigma_parallel::set_global_threads(1);
    let sampler_seed = sub_seed(args.seed, 1);

    let (serving, setup_s) = set_up_repeatedly(args.trace, || Ok(set_up(args.seed, sampler_seed)))?;
    let Serving {
        graph,
        snapshot,
        mut maintainer,
        router,
    } = serving;
    let n = graph.num_nodes();
    let sampler = ZipfSampler::new(n, CHURN_ZIPF, sampler_seed);
    let rounds = (args.seconds * 1e3 / CHURN_REPAIR_EVERY_MS as f64).ceil() as usize + 1;
    let trace = gen::edit_trace(
        &graph,
        rounds,
        CHURN_EDITS_PER_BATCH,
        sub_seed(args.seed, 3),
    );

    let stats_before: RouterStats = router.stats();
    let phase = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let editor = Editor {
        router: &router,
        maintainer: &mut maintainer,
        trace: &trace,
        phase,
        tracer: Tracer::new(tracer.enabled(), phase),
        repairs: Repairs::default(),
    };
    let mut reader_tracer = Tracer::new(tracer.enabled(), phase);
    let mut reads = Reads {
        lat_ns: stats::Samples::new(CHURN_SAMPLE_CAPACITY, CHURN_SAMPLE_STRIDE),
        longest: vec![(0, 0); (budget.as_nanos() as u64 / STALL_BUCKET_NS) as usize + 2],
        think_ns: 0,
        nodes: 0,
        scored: stats::Marks::new(args.seconds / RUN_SLICES as f64),
        failed: 0,
    };
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 4));
    let done = AtomicBool::new(false);

    // With two threads the editor keeps its own schedule; on a 1-core host
    // the single thread runs each due repair between two reads.
    let (mut inline, threaded) = if threads < 2 {
        (Some(editor), None)
    } else {
        (None, Some(editor))
    };
    let editor = std::thread::scope(|scope| {
        let done = &done;
        let editor_thread = threaded.map(|mut editor| {
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let due = Duration::from_nanos(editor.due_ns());
                    if due >= budget {
                        break;
                    }
                    match due.checked_sub(phase.elapsed()) {
                        Some(wait) if !wait.is_zero() => {
                            std::thread::sleep(wait.min(Duration::from_millis(20)))
                        }
                        _ => editor.round(),
                    }
                }
                editor
            })
        });
        let mut last_end = phase.elapsed();
        while last_end < budget {
            let id = reads.lat_ns.seen();
            reader_tracer.sample(id, CHURN_TRACE_EVERY);
            let root = reader_tracer.begin("request", None, id);
            let start = phase.elapsed();
            reads.think_ns += (start - last_end).as_nanos() as u64;
            let scored = read(&router, &sampler, &mut rng, &mut reader_tracer, root, id);
            last_end = phase.elapsed();
            reader_tracer.end(root);
            let (start_ns, took_ns) = (
                start.as_nanos() as u64,
                (last_end - start).as_nanos() as u64,
            );
            reads.lat_ns.offer(took_ns);
            let bucket = &mut reads.longest[(start_ns / STALL_BUCKET_NS) as usize];
            if took_ns > bucket.1 {
                *bucket = (start_ns, took_ns);
            }
            match scored {
                Some(nodes) => reads.nodes += nodes,
                None => reads.failed += 1,
            }
            reads.scored.tick(last_end.as_secs_f64(), reads.nodes);
            if let Some(editor) = inline.as_mut() {
                if Duration::from_nanos(editor.due_ns()) <= last_end {
                    editor.round();
                    last_end = phase.elapsed();
                }
            }
        }
        done.store(true, Ordering::Release);
        match editor_thread {
            Some(handle) => handle.join().expect("editor thread"),
            None => inline.take().expect("one of the two editors exists"),
        }
    });
    let wall = phase.elapsed();
    let Editor {
        repairs,
        tracer: editor_tracer,
        ..
    } = editor;
    let stats_after = router.stats();
    tracer.absorb(reader_tracer);
    tracer.absorb(editor_tracer);

    // Gates: repair never fell back to a full refresh, and after the last
    // repair every node's logits equal a fresh engine's on the final graph.
    gate(!repairs.full_refresh, || {
        "a repair round degenerated to a full refresh".into()
    })?;
    gate(!repairs.intervals.is_empty(), || {
        "no repair round ran inside the measured phase".into()
    })?;
    let final_graph = maintainer.graph().clone();
    let mut fresh_model = snapshot.model.clone();
    fresh_model.operator = Some(
        maintainer_over(final_graph.clone())
            .operator()
            .expect("from-scratch operator"),
    );
    let fresh = InferenceEngine::new(
        &ServeSnapshot::new(
            "repair-churn-reference",
            fresh_model,
            snapshot.features.clone(),
            final_graph.to_adjacency(),
        )
        .expect("reference snapshot"),
        EngineConfig::default(),
    )
    .expect("reference engine");
    let all: Vec<usize> = (0..n).collect();
    let served = router.predict_batch(&all).expect("final query");
    let expected = fresh.predict_batch(&all).expect("reference query");
    for (s, e) in served.iter().zip(&expected) {
        let bits = |p: &sigma_serve::Prediction| -> Vec<u32> {
            p.logits.iter().map(|v| v.to_bits()).collect()
        };
        gate(bits(s) == bits(e) && s.label == e.label, || {
            format!(
                "node {}: repaired logits differ from a fresh engine's",
                s.node
            )
        })?;
    }

    let lat_ns = reads.lat_ns.to_vec();
    let calls = reads.lat_ns.seen();
    let repair_ms: Vec<f64> = repairs
        .intervals
        .iter()
        .map(|&(lo, hi)| (hi - lo) as f64 / 1e6)
        .collect();
    let repair_p50_ms = stats::median(&repair_ms);
    let p50_us = stats::quiet_quantile(&lat_ns, RUN_SLICES, 0.5) / 1e3;
    let mut out = Outcome {
        attempted: calls + repairs.applied as u64,
        failed: reads.failed,
        ..Outcome::default()
    };
    if args.trace {
        let e = |f: fn(&sigma_serve::EngineStats) -> u64| {
            (f(&stats_after.engines) - f(&stats_before.engines)) as f64
        };
        let (hits, misses) = (e(|s| s.cache_hits), e(|s| s.cache_misses));
        out.set("repair_p50_ms", repair_p50_ms);
        out.set(
            "req_per_s",
            (calls - reads.failed) as f64 / wall.as_secs_f64(),
        );
        out.set("fail_rate", reads.failed as f64 / calls as f64);
        out.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
        out.set("serve.cache_evictions", e(|s| s.cache_evictions));
        out.set("serve.rows_repaired", e(|s| s.rows_repaired));
        out.set("serve.rows_invalidated", e(|s| s.rows_invalidated));
        out.set("serve.repair_skipped_shards", repairs.skipped_shards as f64);
        out.set(
            "serve.read_stall_ms",
            read_stall_ms(&reads.longest, &repairs.intervals),
        );
        out.set(
            "client_think_us",
            reads.think_ns as f64 / calls as f64 / 1e3,
        );
        out.set("trace.lat_p50_us", p50_us);
        layer_probes(&mut out, &graph, &trace, repairs.applied, repair_p50_ms);
    } else {
        out.set("setup_s", setup_s);
        out.set("operator_ms", stats::quiet(&repair_ms));
        out.set("nodes_per_s", reads.scored.quiet_rate());
        out.set("lat_p50_us", p50_us);
        out.set(
            "lat_p99_us",
            stats::quiet_quantile(&lat_ns, RUN_SLICES, 0.99) / 1e3,
        );
        out.set("peak_rss_mb", host::peak_rss_mb(std::process::id())?);
    }
    Ok(out)
}
