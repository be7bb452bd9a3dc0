//! `learn_pokec` — the paper's pipeline, offline: generate the pokec-like
//! graph, build the top-k SimRank operator with LocalPush three times,
//! train SIGMA for a fixed number of epochs, then GloGNN as the paper's
//! comparison. `simrank`, `matrix`, `nn` and `core` do all the work and
//! `serve`/`daemon` none, so kernel, LocalPush and layout changes show here
//! and serving changes must not.
//!
//! The work is fixed (not time-boxed) so the accuracy gate and the epoch
//! count mean the same thing on every run; the constants in `spec` size it
//! to about `RUN_SECONDS` on the reference host.

use crate::gen::simrank_config;
use crate::report::{gate, set_up_repeatedly, Outcome, RunArgs, RunError};
use crate::spec::*;
use crate::trace::Tracer;
use crate::{host, obs, stats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{
    ContextBuilder, GraphContext, ModelHyperParams, ModelKind, TrainConfig, TrainReport, Trainer,
};
use sigma_datasets::{Dataset, DatasetPreset, Split};
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_nn::{Mlp, MlpConfig};
use sigma_simrank::LocalPush;
use std::time::Instant;

fn train(
    kind: ModelKind,
    epochs: usize,
    ctx: &GraphContext,
    split: &Split,
    seed: u64,
) -> TrainReport {
    let mut model = kind
        .build(ctx, &ModelHyperParams::small(), seed)
        .unwrap_or_else(|e| panic!("building {}: {e}", kind.name()));
    Trainer::new(TrainConfig {
        epochs,
        patience: 0,
        record_every: 1,
        ..TrainConfig::default()
    })
    .train(model.as_mut(), ctx, split, seed)
    .unwrap_or_else(|e| panic!("training {}: {e}", kind.name()))
}

/// Data generation plus everything lazy a first epoch pays for (pool
/// threads, scratch buffers), on a context that skips LocalPush.
fn set_up(seed: u64) -> (Dataset, Split) {
    let data = DatasetPreset::Pokec
        .build(LEARN_SCALE, seed)
        .expect("pokec preset at the benchmark scale");
    let split = data.default_split(seed).expect("non-empty dataset");
    let warm = ContextBuilder::new(data.clone())
        .with_simrank_operator(CsrMatrix::identity(data.num_nodes()))
        .build()
        .expect("warm-up context");
    train(ModelKind::Sigma, LEARN_WARMUP_EPOCHS, &warm, &split, seed);
    (data, split)
}

/// nnz and an FNV-1a hash over the operator's structure and value bits.
fn fingerprint(operator: &CsrMatrix) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    operator.indptr().iter().for_each(|&p| eat(p as u64));
    operator.indices().iter().for_each(|&c| eat(u64::from(c)));
    operator
        .values()
        .iter()
        .for_each(|&v| eat(u64::from(v.to_bits())));
    (operator.nnz(), h)
}

fn build_context(data: &Dataset) -> GraphContext {
    ContextBuilder::new(data.clone())
        .with_simrank(simrank_config())
        .build()
        .expect("precompute over the generated graph")
}

/// Per-epoch wall times in nanoseconds, from the trainer's own history.
fn epoch_deltas_ns(report: &TrainReport) -> Vec<u64> {
    let mut previous = std::time::Duration::ZERO;
    report
        .history
        .iter()
        .map(|record| {
            let delta = record.elapsed - previous;
            previous = record.elapsed;
            delta.as_nanos() as u64
        })
        .collect()
}

fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Direct calls into single layers at the trained shapes; traced runs only.
fn layer_probes(
    out: &mut Outcome,
    tracer: &mut Tracer,
    root: usize,
    data: &Dataset,
    operator: &CsrMatrix,
) {
    let hidden = ModelHyperParams::small().hidden;
    let n = data.num_nodes();

    let mut solver = LocalPush::new(&data.graph, simrank_config()).expect("valid config");
    let start = Instant::now();
    let scores = tracer.scope("simrank.localpush", Some(root), 0, || solver.run());
    out.set("simrank.localpush_s", start.elapsed().as_secs_f64());
    out.set("simrank.pushes", solver.pushes_performed() as f64);
    out.set("simrank.scores_nnz", scores.nnz() as f64);
    let start = Instant::now();
    let topk = tracer.scope("simrank.topk", Some(root), 0, || {
        scores.to_csr(Some(SIMRANK_TOP_K))
    });
    out.set("simrank.topk_s", start.elapsed().as_secs_f64());
    out.set("simrank.operator_nnz", topk.nnz() as f64);

    let h = DenseMatrix::from_fn(n, hidden, |i, j| {
        ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5
    });
    out.set(
        "matrix.spmm_ms",
        median_ms(9, || {
            tracer.scope("matrix.spmm", Some(root), 0, || {
                std::hint::black_box(operator.spmm(&h).expect("S·H shapes agree"));
            })
        }),
    );
    out.set(
        "matrix.spmm_transpose_ms",
        median_ms(9, || {
            tracer.scope("matrix.spmm_transpose", Some(root), 0, || {
                std::hint::black_box(operator.spmm_transpose(&h).expect("Sᵀ·H shapes agree"));
            })
        }),
    );
    let nnz = operator.nnz();
    out.set("matrix.spmm_flops", (2 * nnz * hidden) as f64);
    // Computed from array sizes, not measured: indices and values once,
    // indptr once, one rhs row per stored entry, the output once.
    out.set(
        "matrix.spmm_bytes_computed",
        (nnz * 8 + (n + 1) * 8 + nnz * hidden * 4 + n * hidden * 4) as f64,
    );

    let mut rng = StdRng::seed_from_u64(1);
    let mut mlp = Mlp::new(
        MlpConfig::new(data.feature_dim(), hidden, hidden, 2),
        &mut rng,
    );
    let grad = DenseMatrix::filled(n, hidden, 1.0 / n as f32);
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        tracer.scope("nn.mlp_fwd", Some(root), 0, || {
            std::hint::black_box(
                mlp.forward(&data.features, true, &mut rng)
                    .expect("mlp forward"),
            );
        });
        fwd.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        tracer.scope("nn.mlp_bwd", Some(root), 0, || {
            std::hint::black_box(mlp.backward(&grad).expect("mlp backward"));
        });
        bwd.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.set("nn.mlp_fwd_ms", stats::median(&fwd));
    out.set("nn.mlp_bwd_ms", stats::median(&bwd));
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, RunError> {
    let threads = host::compute_threads();
    sigma_parallel::set_global_threads(threads);
    let mut out = Outcome::default();

    let ((data, split), setup_s) = set_up_repeatedly(args.trace, || Ok(set_up(args.seed)))?;

    let root = tracer.begin("learn_pokec", None, 0);
    let obs_before = sigma_obs::snapshot();
    let measured = Instant::now();

    // The context builds are spread over the run, one before each training
    // and one after, so that a slow spell of the host catches one of them
    // and not all three.
    let mut precompute_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut build = |tracer: &mut Tracer| {
        let built = tracer.scope("core.context_build", Some(root), 0, || build_context(&data));
        precompute_s.push(built.timings().total().as_secs_f64());
        fingerprints.push(fingerprint(built.simrank().expect("context carries S")));
        built
    };
    let ctx = build(tracer);
    let sigma = tracer.scope("core.train_sigma", Some(root), 0, || {
        train(ModelKind::Sigma, LEARN_EPOCHS, &ctx, &split, args.seed)
    });
    build(tracer);
    let glognn = tracer.scope("core.train_glognn", Some(root), 0, || {
        train(ModelKind::GloGnn, GLOGNN_EPOCHS, &ctx, &split, args.seed)
    });
    build(tracer);
    let precompute = stats::median(&precompute_s);
    let wall_ns = measured.elapsed().as_nanos() as u64;
    let obs_after = sigma_obs::snapshot();

    let epochs = epoch_deltas_ns(&sigma);
    let epoch_p50_us = stats::quiet_quantile(&epochs, RUN_SLICES, 0.5) / 1e3;
    let train_s = sigma.train_time.as_secs_f64();
    let mut trained = stats::Marks::new(train_s / RUN_SLICES as f64);
    for (done, record) in sigma.history.iter().enumerate() {
        trained.tick(
            record.elapsed.as_secs_f64(),
            (data.num_nodes() * (done + 1)) as u64,
        );
    }
    let learn_s = precompute + train_s;

    // Gates: the operator is the same bits on every build and at any pool
    // width, and the model it trains still classifies.
    gate(fingerprints.iter().all(|f| *f == fingerprints[0]), || {
        format!("operator fingerprint differs across builds: {fingerprints:?}")
    })?;
    sigma_parallel::set_global_threads(if threads == 1 { 2 } else { 1 });
    let other_width = fingerprint(build_context(&data).simrank().expect("context carries S"));
    sigma_parallel::set_global_threads(threads);
    gate(other_width == fingerprints[0], || {
        format!(
            "operator fingerprint differs across pool widths: {other_width:?} vs {:?}",
            fingerprints[0]
        )
    })?;
    gate(f64::from(sigma.test_accuracy) >= ACCURACY_FLOOR, || {
        format!(
            "test accuracy {} is below the floor {ACCURACY_FLOOR}",
            sigma.test_accuracy
        )
    })?;

    out.attempted = (precompute_s.len() + sigma.epochs_run + glognn.epochs_run) as u64;
    if args.trace {
        let glognn_epoch_ms = glognn.train_time.as_secs_f64() * 1e3 / glognn.epochs_run as f64;
        out.set("precompute_s", precompute);
        out.set("epoch_ms", epoch_p50_us / 1e3);
        out.set("learn_s", learn_s);
        out.set(
            "core.agg_share",
            sigma.aggregation_time.as_secs_f64() / train_s,
        );
        out.set("core.train_s", train_s);
        out.set("core.test_accuracy", f64::from(sigma.test_accuracy));
        out.set("core.glognn_epoch_ms", glognn_epoch_ms);
        // GloGNN's learning time over SIGMA's, both at LEARN_EPOCHS epochs.
        out.set(
            "core.glognn_ratio",
            glognn_epoch_ms / 1e3 * LEARN_EPOCHS as f64 / learn_s,
        );
        let pool = obs::pool_use(&obs_before, &obs_after, wall_ns, threads);
        out.set("parallel.pool_busy_share", pool.busy_share);
        out.set("parallel.range_imbalance_p50", pool.imbalance_p50_permille);
        out.set("parallel.scratch_hit_rate", pool.scratch_hit_rate);
        out.set("trace.lat_p50_us", epoch_p50_us);
        layer_probes(
            &mut out,
            tracer,
            root,
            &data,
            ctx.simrank().expect("context carries S"),
        );
    } else {
        out.set("setup_s", setup_s);
        out.set("operator_ms", stats::quiet(&precompute_s) * 1e3);
        out.set("nodes_per_s", trained.quiet_rate());
        out.set("lat_p50_us", epoch_p50_us);
        out.set(
            "lat_p99_us",
            stats::quiet_quantile(&epochs, RUN_SLICES, 0.99) / 1e3,
        );
        out.set("peak_rss_mb", host::peak_rss_mb(std::process::id())?);
    }
    tracer.end(root);
    Ok(out)
}
