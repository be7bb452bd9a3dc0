//! Kernel micro-optimisation bench: nnz-balanced partitioning + SIMD-shaped
//! inner loops versus a scalar reference of each kernel, on skewed
//! (power-law) fig5-style graphs, at every thread count of the sweep the
//! host has cores for.
//!
//! Eight things are measured and one thing is *proven* on every run:
//!
//! * **reference/optimised timings** for `spmm`, `spmm_transpose`, `spgemm`
//!   and LocalPush — the reference is the scalar re-implementation of each
//!   kernel's canonical accumulation order in `sigma_testutil::reference`
//!   (shared with the parity tests), "optimised" is the library kernel;
//!   every row is the median of `reps` runs, after `WARM_UP_RUNS`
//!   discarded ones, with its min–max spread;
//! * **the row slice**: `spmm_rows` on a batch of `n / 64` rows beside the
//!   full `spmm` it is a slice of — asserted bitwise equal to those rows of
//!   the product and at least 4x cheaper than computing all of it;
//! * **planner balance**: the maximum range weight of the equal-row-count
//!   split versus the nnz-balanced planner on the skewed operator, a
//!   machine-independent utilisation proxy;
//! * **the maintainer: replay vs starting over** (`maintainer`): on the
//!   `repair_churn` benchmark's graph family at about 2.6 k, 10 k and 32 k
//!   nodes, `DynamicSimRank::repair` after batches of 1, 4 and 16 edits at
//!   ε ∈ {0.1, 0.02} — repair time, rows replayed, rows changed and the
//!   maintainer's resident bytes — beside `LocalPush::run_to_operator` on
//!   the same edited graph plus a row diff against the held operator, at
//!   one pool thread;
//! * **snapshot checksums**: the table-free bitwise CRC32 of
//!   `sigma-testutil` over every section payload of a snapshot image,
//!   beside `MappedSnapshot::verify` on the same image (the format's sliced
//!   two-lane CRC32 plus the CSR structure check — the routine is private
//!   to `sigma-serve`, so it is timed through the call that ships), at
//!   images of about 10 KB, 1 MiB and 16 MiB, in MB/s;
//! * **one training step by stage** (`train_step`): a full-batch epoch of
//!   SIGMA, GloGNN and LINKX on the `learn_pokec` benchmark's graph and
//!   operator, driven through the `Model` trait in `Trainer::train`'s order
//!   — training forward, loss, backward, Adam, evaluation forward — at one
//!   pool thread, beside the work a step used to do and throw away (the
//!   input gradients of `MLP_A(A)` and `MLP_X(X)`, the copies of `A`, `X`
//!   and `S`) timed alone at the same shapes, so an epoch regression can be
//!   attributed below the function before anyone sizes a kernel rewrite;
//! * **LocalPush to the operator** (`localpush_operator`): on the same
//!   graph with the `learn_pokec` SimRank settings (top-16), at one pool
//!   thread, `LocalPush::run_to_operator` and its rounds — which pull,
//!   finish and top-k select each row in one task — read off the solver's
//!   `sigma_localpush_pull_ns` histogram, beside the size of the score
//!   matrix it never holds, with the operator asserted equal to `run()` +
//!   `to_csr`;
//! * **bit-parity**: every optimised kernel result is asserted bitwise
//!   identical to its scalar reference, at every thread count, every
//!   repaired operator to a fresh `run_to_operator` on its graph (and its
//!   changed rows to exactly the rows that differ), and every
//!   CRC the snapshot writer stamped to the bitwise definition. A mismatch
//!   aborts the bench (CI runs this in `--quick` mode).
//!
//! Thread counts above `host_cores` are skipped, not reported: more pool
//! threads than cores measures the scheduler, not the kernel. Results are
//! emitted as `BENCH_kernels.json` at the repository root.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::snapshot::ModelSnapshot;
use sigma::{AggregatorKind, ContextBuilder, GraphContext, ModelHyperParams, ModelKind};
use sigma_bench::TablePrinter;
use sigma_datasets::{DatasetPreset, Split};
use sigma_graph::{sym_normalized_adjacency, Graph};
use sigma_matrix::DenseMatrix;
use sigma_nn::{softmax_cross_entropy_masked, Adam, Optimizer};
use sigma_obs::MetricValue;
use sigma_parallel::partition_by_weight;
use sigma_serve::{MappedSnapshot, ServeSnapshot};
use sigma_simrank::{
    DynamicSimRank, EdgeUpdate, LocalPush, RepairOutcome, SimRankConfig, SparseScores,
};
use sigma_testutil::power_law_graph;
use sigma_testutil::reference::{
    crc32_bitwise, localpush_reference, spgemm_reference, spmm_reference, spmm_transpose_reference,
};
use std::time::Instant;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Deterministic value noise in `[-1, 1)` (splitmix-style finaliser).
fn pseudo(i: usize, j: usize, seed: u64) -> f32 {
    let mut h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

// ---------------------------------------------------------------------------
// Parity checks.
// ---------------------------------------------------------------------------

fn assert_dense_bitwise(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: PARITY MISMATCH at flat index {i}: {x:?} vs {y:?}"
        );
    }
}

fn assert_scores_match_reference(scores: &SparseScores, reference: &[Vec<(u32, f32)>], what: &str) {
    assert_eq!(scores.num_nodes(), reference.len(), "{what}: node count");
    for (u, want) in reference.iter().enumerate() {
        let got: Vec<(u32, u32)> = scores
            .row(u)
            .map(|(v, s)| (v as u32, s.to_bits()))
            .collect();
        let want: Vec<(u32, u32)> = want.iter().map(|&(v, s)| (v, s.to_bits())).collect();
        assert_eq!(got, want, "{what}: PARITY MISMATCH in score row {u}");
    }
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

/// Median and min–max spread of `reps` timed runs, in milliseconds.
#[derive(Clone, Copy)]
struct Timing {
    median: f64,
    min: f64,
    max: f64,
    samples: usize,
}

impl Timing {
    fn of(mut ms: Vec<f64>) -> Self {
        ms.sort_by(f64::total_cmp);
        Timing {
            median: ms[ms.len() / 2],
            min: ms[0],
            max: ms[ms.len() - 1],
            samples: ms.len(),
        }
    }
}

/// Runs discarded before the timed ones. One is not enough: a kernel that
/// returns a multi-megabyte matrix pays the allocator's ramp first — glibc
/// maps the first outputs afresh and faults every page in, and with the
/// previous output still alive it is the fifth call that first reuses warm
/// memory (`spmm` reference samples read 9.7, 11.5, 8.7, 4.0, 3.7 ms after
/// one warm-up; 1.8–1.9 ms from the fifth call on).
const WARM_UP_RUNS: usize = 4;

/// Times each of `reps` runs of `f` on its own after [`WARM_UP_RUNS`]
/// discarded ones, returning the timing and the last result.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (Timing, R) {
    let mut out = f();
    for _ in 1..WARM_UP_RUNS {
        out = f();
    }
    let ms = (0..reps)
        .map(|_| {
            let start = Instant::now();
            out = f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (Timing::of(ms), out)
}

struct KernelRow {
    kernel: &'static str,
    implementation: &'static str,
    threads: usize,
    timing: Timing,
    parity: &'static str,
}

/// One cell of the maintainer sweep.
struct MaintainerRow {
    nodes: usize,
    edits: usize,
    epsilon: f64,
    /// `DynamicSimRank::repair`: the replay, the diff and the splice.
    replay: Timing,
    /// `LocalPush::run_to_operator` on the same edited graph plus a row diff
    /// against the operator held before the batch.
    rerun: Timing,
    /// Rows replayed and rows changed by the median-time repair.
    rows_replayed: usize,
    rows_changed: usize,
    /// `DynamicSimRank::resident_bytes` after the last repair.
    resident_bytes: usize,
}

/// The `k`-th batch of a sweep cell: inserts of pseudo-random pairs
/// alternating with deletes of the graph's own edges (the shape of the
/// `repair_churn` benchmark's batches).
fn edit_batch(graph: &Graph, edges: &[(usize, usize)], edits: usize, k: usize) -> Vec<EdgeUpdate> {
    let n = graph.num_nodes();
    let pick = |i: usize, salt: u64, modulus: usize| {
        let unit = (pseudo(k * edits + i, edits, salt) as f64 + 1.0) / 2.0;
        ((unit * modulus as f64) as usize).min(modulus - 1)
    };
    (0..edits)
        .map(|i| {
            if i % 2 == 0 {
                let u = pick(i, 11, n);
                EdgeUpdate::Insert(u, (u + 1 + pick(i, 13, n - 1)) % n)
            } else {
                let (u, v) = edges[pick(i, 17, edges.len())];
                EdgeUpdate::Delete(u, v)
            }
        })
        .collect()
}

/// `(column, value bits)` of every stored entry of row `r`.
fn row_bits(m: &sigma_matrix::CsrMatrix, r: usize) -> Vec<(usize, u32)> {
    m.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect()
}

/// Runs `reps + 1` successive batches of `edits` edits through a maintainer;
/// after each repair, times a `run_to_operator` on the same edited graph
/// plus its row diff against the operator held before the batch, and
/// asserts the repaired operator bitwise equal to the re-run and the
/// reported changed rows equal to the diff. The first round is discarded
/// (allocator ramp).
fn maintainer_cell(graph: &Graph, epsilon: f64, edits: usize, reps: usize) -> MaintainerRow {
    let config = SimRankConfig::new(0.6, epsilon, Some(16)).expect("valid sweep config");
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    let mut maintainer =
        DynamicSimRank::new(graph.clone(), config, usize::MAX).expect("valid sweep config");
    let mut held = maintainer.operator().expect("initial operator");
    let what = format!(
        "maintainer ({} nodes, edits {edits}, epsilon {epsilon})",
        graph.num_nodes()
    );
    let mut rounds: Vec<(f64, f64, usize, usize)> = (0..=reps)
        .map(|k| {
            maintainer
                .apply_batch(&edit_batch(graph, &edges, edits, k))
                .expect("in-bounds edits");
            let start = Instant::now();
            let outcome = maintainer.repair().expect("repair");
            let replay_ms = start.elapsed().as_secs_f64() * 1e3;
            let RepairOutcome::Patched(patch) = outcome else {
                panic!("{what}: a sweep round fell back to a full refresh");
            };
            let start = Instant::now();
            let rerun = LocalPush::new(maintainer.graph(), config)
                .unwrap()
                .run_to_operator();
            let changed: Vec<usize> = (0..rerun.rows())
                .filter(|&r| row_bits(&held, r) != row_bits(&rerun, r))
                .collect();
            let rerun_ms = start.elapsed().as_secs_f64() * 1e3;
            let repaired = maintainer.operator().expect("operator");
            assert!(
                (0..rerun.rows()).all(|r| row_bits(&repaired, r) == row_bits(&rerun, r)),
                "{what}: PARITY MISMATCH between the repaired operator and a re-run"
            );
            assert_eq!(
                patch.changed_rows, changed,
                "{what}: PARITY MISMATCH in the changed rows"
            );
            held = repaired;
            (replay_ms, rerun_ms, patch.dirty_seeds, changed.len())
        })
        .skip(1)
        .collect();
    let rerun = Timing::of(rounds.iter().map(|round| round.1).collect());
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, _, rows_replayed, rows_changed) = rounds[rounds.len() / 2];
    MaintainerRow {
        nodes: graph.num_nodes(),
        edits,
        epsilon,
        replay: Timing::of(rounds.iter().map(|round| round.0).collect()),
        rerun,
        rows_replayed,
        rows_changed,
        resident_bytes: maintainer.resident_bytes(),
    }
}

/// One snapshot image of the checksum family.
struct CrcRow {
    bytes: usize,
    sections: usize,
    reference: Timing,
    verify: Timing,
}

/// A serving-snapshot image of `n` nodes (16 features, hidden 8, 4 classes,
/// the normalised adjacency standing in for the operator): about 170 bytes
/// a node behind a 2 KB floor.
fn snapshot_image(n: usize) -> Vec<u8> {
    let layer = |rows: usize, cols: usize, seed: u64| {
        (
            DenseMatrix::from_fn(rows, cols, |i, j| pseudo(i, j, seed) * 0.2),
            DenseMatrix::from_fn(1, cols, |_, j| pseudo(j, 1, seed) * 0.05),
        )
    };
    let graph = power_law_graph(n, 8, 53);
    let model = ModelSnapshot {
        delta: 0.6,
        alpha: 0.25,
        alpha_raw: None,
        dropout: 0.0,
        aggregator: AggregatorKind::SimRank,
        operator: Some(sym_normalized_adjacency(&graph)),
        mlp_a: vec![layer(n, 8, 1), layer(8, 8, 2)],
        mlp_x: vec![layer(16, 8, 3), layer(8, 8, 4)],
        mlp_h: vec![layer(8, 4, 5)],
    };
    let features = DenseMatrix::from_fn(n, 16, |i, j| pseudo(i, j, 6));
    let snapshot = ServeSnapshot::new("crc32-bench", model, features, graph.to_adjacency())
        .expect("valid snapshot");
    let mut image = Vec::new();
    snapshot.write_to(&mut image).expect("in-memory write");
    image
}

/// Times the bitwise CRC32 over every section payload of `image` against
/// `MappedSnapshot::verify` on a fresh file mapping of it, and asserts each CRC
/// the writer stamped into the header table (16-byte prelude, 32-byte
/// entries of `tag[8] offset[8] len[8] crc[4] pad[4]`) equal to the
/// bitwise one.
fn crc_cell(image: &[u8], reps: usize) -> CrcRow {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let entries: Vec<usize> = (0..image[12] as usize).map(|i| 16 + i * 32).collect();
    let payloads: Vec<&[u8]> = entries
        .iter()
        .map(|&p| &image[word(p + 8)..word(p + 8) + word(p + 16)])
        .collect();
    let (reference, crcs) = time_ms(reps, || {
        payloads
            .iter()
            .map(|payload| crc32_bitwise(payload))
            .collect::<Vec<u32>>()
    });
    for (&p, crc) in entries.iter().zip(crcs) {
        let stamped = u32::from_le_bytes(image[p + 24..p + 28].try_into().unwrap());
        assert_eq!(
            stamped,
            crc,
            "crc32 PARITY MISMATCH in section {}",
            String::from_utf8_lossy(&image[p..p + 8])
        );
    }
    // `verify` caches its success, so every sample maps the file afresh —
    // the cold start a serving process pays.
    let path = std::env::temp_dir().join(format!(
        "sigma-kernel-microopt-{}-{}.snapshot",
        std::process::id(),
        image.len()
    ));
    std::fs::write(&path, image).expect("write the image");
    let verify = Timing::of(
        (0..reps)
            .map(|_| {
                let mapped = MappedSnapshot::open(&path).expect("valid image");
                let start = Instant::now();
                mapped.verify().expect("crc32 PARITY MISMATCH: verify");
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    let _ = std::fs::remove_file(&path);
    CrcRow {
        bytes: image.len(),
        sections: entries.len(),
        reference,
        verify,
    }
}

struct BalanceRow {
    parts: usize,
    row_count_imbalance: f64,
    nnz_balanced_imbalance: f64,
}

/// Max-range-weight / ideal-share for a set of ranges over `weights`.
///
/// The ideal share divides by the *requested* part count, not the number
/// of ranges actually emitted: a planner that merges ranges (leaving
/// threads idle) must show up as imbalance, not hide behind a smaller
/// denominator.
fn imbalance(weights: &[usize], parts: usize, ranges: &[std::ops::Range<usize>]) -> f64 {
    let total: usize = weights.iter().sum();
    if total == 0 || ranges.is_empty() || parts == 0 {
        return 1.0;
    }
    let ideal = total as f64 / parts as f64;
    let max = ranges
        .iter()
        .map(|r| weights[r.clone()].iter().sum::<usize>())
        .max()
        .unwrap_or(0);
    max as f64 / ideal
}

/// Equal-row-count ranges (what the kernels used before this bench existed).
fn equal_count_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let per = n.div_ceil(parts);
    (0..parts)
        .map(|i| (i * per).min(n)..((i + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// One model's epoch, stage by stage: medians over the same timed epochs.
struct TrainStepRow {
    model: &'static str,
    /// Training forward, loss + `dZ`, backward, Adam, evaluation forward.
    stages: [Timing; 5],
    epoch: Timing,
}

const TRAIN_STAGES: [&str; 5] = ["forward_train", "loss", "backward", "adam", "forward_eval"];

/// Times `reps` epochs of `kind` after [`WARM_UP_RUNS`] discarded ones (the
/// first pays Adam's state and the allocator's ramp), in `Trainer::train`'s
/// order and with its optimizer settings.
fn train_step_row(kind: ModelKind, ctx: &GraphContext, split: &Split, reps: usize) -> TrainStepRow {
    let mut model = kind
        .build(ctx, &ModelHyperParams::small(), 47)
        .expect("model builds on the benchmark context");
    let mut rng = StdRng::seed_from_u64(47);
    let mut adam = Adam::new(0.01).with_weight_decay(5e-4);
    let mut stage_ms: [Vec<f64>; 5] = Default::default();
    let mut epoch_ms = Vec::new();
    for epoch in 0..WARM_UP_RUNS + reps {
        let start = Instant::now();
        let mut laps = [start; 6];
        adam.begin_step();
        let logits = model
            .forward(ctx, true, &mut rng)
            .expect("training forward");
        laps[1] = Instant::now();
        let (_, grad) = softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train)
            .expect("labels cover the training split");
        laps[2] = Instant::now();
        model.zero_grad();
        model.backward(ctx, &grad).expect("backward");
        laps[3] = Instant::now();
        model.apply_gradients(&mut adam).expect("optimizer step");
        laps[4] = Instant::now();
        std::hint::black_box(
            model
                .forward(ctx, false, &mut rng)
                .expect("evaluation forward"),
        );
        laps[5] = Instant::now();
        if epoch >= WARM_UP_RUNS {
            for (stage, lap) in stage_ms.iter_mut().zip(laps.windows(2)) {
                stage.push((lap[1] - lap[0]).as_secs_f64() * 1e3);
            }
            epoch_ms.push((laps[5] - start).as_secs_f64() * 1e3);
        }
    }
    TrainStepRow {
        model: kind.name(),
        stages: stage_ms.map(Timing::of),
        epoch: Timing::of(epoch_ms),
    }
}

/// Work a training step computed and dropped before leaf layers had a
/// parameter-only backward, the evaluation pass stopped caching and constants
/// were borrowed — timed alone so the `train_step` rows can be read against it.
struct DroppedRow {
    what: &'static str,
    shape: String,
    timing: Timing,
}

fn dropped_rows(ctx: &GraphContext, reps: usize) -> Vec<DroppedRow> {
    let (n, f) = (ctx.num_nodes(), ctx.feature_dim());
    let hidden = ModelHyperParams::small().hidden;
    let grad = DenseMatrix::from_fn(n, hidden, |i, j| pseudo(i, j, 3));
    let w_a = DenseMatrix::from_fn(n, hidden, |i, j| pseudo(i, j, 5));
    let w_x = DenseMatrix::from_fn(f, hidden, |i, j| pseudo(i, j, 9));
    let operator = ctx.simrank().expect("context built with SimRank");
    let row = |what, shape: String, timing| DroppedRow {
        what,
        shape,
        timing,
    };
    vec![
        row(
            "dX = dY·Wᵀ of MLP_A(A)",
            format!("{n} x {n}"),
            time_ms(reps, || grad.matmul_transpose_other(&w_a).unwrap()).0,
        ),
        row(
            "dX = dY·Wᵀ of MLP_X(X)",
            format!("{n} x {f}"),
            time_ms(reps, || grad.matmul_transpose_other(&w_x).unwrap()).0,
        ),
        row(
            "copy of A",
            format!("{} nnz", ctx.adjacency().nnz()),
            time_ms(reps, || ctx.adjacency().clone()).0,
        ),
        row(
            "copy of X",
            format!("{n} x {f}"),
            time_ms(reps, || ctx.features().clone()).0,
        ),
        row(
            "copy of S",
            format!("{} nnz", operator.nnz()),
            time_ms(reps, || operator.clone()).0,
        ),
    ]
}

/// `LocalPush::run_to_operator` on one graph: its rounds, which pull, finish
/// and top-k select every row, and the scores it never holds.
struct LocalPushRow {
    nodes: usize,
    /// Entries of `run()`'s score matrix, which an operator build does not
    /// materialise.
    scores_nnz: usize,
    operator_nnz: usize,
    /// The rounds, read off the solver's `sigma_localpush_pull_ns`.
    rounds: Timing,
    operator: Timing,
}

/// Nanoseconds recorded so far by the solver's round histogram (zero with
/// the `obs` feature off).
fn localpush_rounds_ns() -> u64 {
    match sigma_obs::snapshot().get("sigma_localpush_pull_ns") {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0,
    }
}

/// Times `reps` calls of `run_to_operator` and their rounds (after
/// [`WARM_UP_RUNS`] discarded ones), each asserted equal to `run()` +
/// `to_csr` on the same graph.
fn localpush_operator_row(graph: &Graph, config: SimRankConfig, reps: usize) -> LocalPushRow {
    let (mut operator_ms, mut rounds_ms) = (Vec::new(), Vec::new());
    let (mut scores_nnz, mut operator_nnz) = (0, 0);
    for rep in 0..WARM_UP_RUNS + reps {
        let before = localpush_rounds_ns();
        let start = Instant::now();
        let operator = LocalPush::new(graph, config).unwrap().run_to_operator();
        let fused_ms = start.elapsed().as_secs_f64() * 1e3;
        let rounds = (localpush_rounds_ns() - before) as f64 / 1e6;
        let scores = LocalPush::new(graph, config).unwrap().run();
        assert_eq!(
            scores.to_csr(config.top_k),
            operator,
            "localpush_operator PARITY MISMATCH"
        );
        (scores_nnz, operator_nnz) = (scores.nnz(), operator.nnz());
        if rep >= WARM_UP_RUNS {
            operator_ms.push(fused_ms);
            rounds_ms.push(rounds);
        }
    }
    LocalPushRow {
        nodes: graph.num_nodes(),
        scores_nnz,
        operator_nnz,
        rounds: Timing::of(rounds_ms),
        operator: Timing::of(operator_ms),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Skewed operator graph (spmm / spmm_transpose / spgemm) and a smaller
    // skewed push graph (LocalPush cost grows with hub degree squared).
    let (n, f, max_deg, push_n, push_deg, reps) = if quick {
        (1500usize, 32usize, 300usize, 300usize, 60usize, 3usize)
    } else {
        (20_000, 64, 2_000, 2_000, 200, 5)
    };

    let graph = power_law_graph(n, max_deg, 31);
    let operator = sym_normalized_adjacency(&graph);
    let features = DenseMatrix::from_fn(n, f, |i, j| pseudo(i, j, 7));
    let push_graph = power_law_graph(push_n, push_deg, 47);
    let simrank_cfg = SimRankConfig::default().with_top_k(16);

    let row_nnz: Vec<usize> = (0..operator.rows()).map(|r| operator.row_nnz(r)).collect();
    let max_row_nnz = row_nnz.iter().copied().max().unwrap_or(0);
    println!(
        "skewed operator: {} nodes, {} nnz, max row nnz {} (quick: {quick})",
        n,
        operator.nnz(),
        max_row_nnz
    );

    // -- Planner balance (machine-independent). -----------------------------
    let mut balance_rows = Vec::new();
    let mut balance_table = TablePrinter::new(vec![
        "parts",
        "row-count imbalance",
        "nnz-balanced imbalance",
    ]);
    for parts in [2usize, 4, 8] {
        let by_count = imbalance(&row_nnz, parts, &equal_count_ranges(n, parts));
        let by_nnz = imbalance(&row_nnz, parts, &partition_by_weight(&row_nnz, parts));
        assert!(
            by_nnz <= by_count + 1e-9,
            "nnz-balanced planner must not be worse than equal counts \
             ({by_nnz:.3} vs {by_count:.3} at {parts} parts)"
        );
        balance_table.add_row(vec![
            parts.to_string(),
            format!("{by_count:.3}x"),
            format!("{by_nnz:.3}x"),
        ]);
        balance_rows.push(BalanceRow {
            parts,
            row_count_imbalance: by_count,
            nnz_balanced_imbalance: by_nnz,
        });
    }
    balance_table.print("Partition balance on the skewed operator (max range nnz / ideal share)");

    // -- Scalar references (serial by construction). ------------------------
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    let (base_spmm_ms, base_spmm) = time_ms(reps, || spmm_reference(&operator, &features));
    let (base_spmmt_ms, base_spmmt) =
        time_ms(reps, || spmm_transpose_reference(&operator, &features));
    let (base_spgemm_ms, base_spgemm) = time_ms(reps, || spgemm_reference(&operator, &operator));
    let (base_push_ms, base_push) = time_ms(reps, || {
        localpush_reference(&push_graph, simrank_cfg, usize::MAX)
    });
    for (kernel, timing) in [
        ("spmm", base_spmm_ms),
        ("spmm_transpose", base_spmmt_ms),
        ("spgemm", base_spgemm_ms),
        ("localpush", base_push_ms),
    ] {
        kernel_rows.push(KernelRow {
            kernel,
            implementation: "baseline_scalar",
            threads: 1,
            timing,
            parity: "ref",
        });
    }

    // -- Optimised kernels across the thread sweep, parity-asserted. --------
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let (sweep, skipped): (Vec<usize>, Vec<usize>) =
        THREAD_SWEEP.iter().partition(|&&threads| threads <= cores);
    let mut table = TablePrinter::new(vec![
        "kernel",
        "threads",
        "reference (ms)",
        "optimised (ms, min-max)",
        "speed-up",
        "parity",
    ]);
    let slice: Vec<usize> = (0..n / 64).map(|i| (i * 97) % n).collect();
    let base_spmm_slice = base_spmm.select_rows(&slice).expect("in-range rows");
    for &threads in &sweep {
        sigma_parallel::set_global_threads(threads);

        let (spmm_ms, spmm_out) = time_ms(reps, || operator.spmm(&features).unwrap());
        assert_dense_bitwise(&base_spmm, &spmm_out, "spmm");

        // The serving claim: a slice of b = n/64 rows equals those rows of
        // the full product and costs O(b·k·f), far below the O(n·k·f) of
        // computing all of it. The margin is 4x on the quietest sample of
        // each side, not 64x: the slice's rows carry more than their share
        // of the skewed nnz, and a fixed per-call cost (output allocation,
        // dispatch) is most of a 23-row call in quick mode.
        let (rows_ms, rows_out) = time_ms(reps, || operator.spmm_rows(&slice, &features).unwrap());
        assert_dense_bitwise(&base_spmm_slice, &rows_out, "spmm_rows");
        assert!(
            rows_ms.min * 4.0 < spmm_ms.min,
            "spmm_rows on {} rows ({:.4} ms) should be at least 4x faster than the full \
             spmm over {n} ({:.4} ms) at {threads} thread(s)",
            slice.len(),
            rows_ms.min,
            spmm_ms.min
        );

        let (spmmt_ms, spmmt_out) = time_ms(reps, || operator.spmm_transpose(&features).unwrap());
        assert_dense_bitwise(&base_spmmt, &spmmt_out, "spmm_transpose");

        let (spgemm_ms, spgemm_out) = time_ms(reps, || operator.spgemm(&operator).unwrap());
        assert_eq!(base_spgemm, spgemm_out, "spgemm PARITY MISMATCH");

        let (push_ms, push_scores) = time_ms(reps, || {
            LocalPush::new(&push_graph, simrank_cfg).unwrap().run()
        });
        assert_scores_match_reference(&push_scores, &base_push.rows, "localpush");

        for (kernel, base_ms, ms) in [
            ("spmm", base_spmm_ms, spmm_ms),
            ("spmm_rows", spmm_ms, rows_ms),
            ("spmm_transpose", base_spmmt_ms, spmmt_ms),
            ("spgemm", base_spgemm_ms, spgemm_ms),
            ("localpush", base_push_ms, push_ms),
        ] {
            table.add_row(vec![
                kernel.to_string(),
                threads.to_string(),
                format!("{:.2}", base_ms.median),
                format!("{:.2} ({:.2}-{:.2})", ms.median, ms.min, ms.max),
                format!("{:.2}x", base_ms.median / ms.median.max(1e-9)),
                "ok".to_string(),
            ]);
            kernel_rows.push(KernelRow {
                kernel,
                implementation: "optimised",
                threads,
                timing: ms,
                parity: "ok",
            });
        }
    }
    sigma_parallel::set_global_threads(0);
    table.print("Kernel micro-optimisations vs the scalar reference (skewed graph)");

    // -- The maintainer: replay vs a re-run + diff, one pool thread. ----------
    sigma_parallel::set_global_threads(1);
    let mut maintainer_rows = Vec::new();
    let mut maintainer_table = TablePrinter::new(vec![
        "nodes",
        "epsilon",
        "edits",
        "repair (ms, min-max)",
        "run_to_operator + diff (ms)",
        "rows replayed",
        "rows changed",
        "resident (MB)",
        "parity",
    ]);
    let scales: &[f64] = if quick { &[0.15] } else { &[1.0, 4.0, 12.3] };
    for &scale in scales {
        let graph = DatasetPreset::Pokec
            .build(scale, 47)
            .expect("pokec preset")
            .graph;
        for epsilon in [0.1, 0.02] {
            for edits in [1usize, 4, 16] {
                let row = maintainer_cell(&graph, epsilon, edits, reps);
                maintainer_table.add_row(vec![
                    row.nodes.to_string(),
                    epsilon.to_string(),
                    edits.to_string(),
                    format!(
                        "{:.2} ({:.2}-{:.2})",
                        row.replay.median, row.replay.min, row.replay.max
                    ),
                    format!("{:.2}", row.rerun.median),
                    row.rows_replayed.to_string(),
                    row.rows_changed.to_string(),
                    format!("{:.2}", row.resident_bytes as f64 / 1e6),
                    "ok".to_string(),
                ]);
                maintainer_rows.push(row);
            }
        }
    }
    sigma_parallel::set_global_threads(0);
    maintainer_table
        .print("The maintainer: repair (replay + diff) vs run_to_operator + diff (1 thread)");

    // -- Snapshot checksums: the bitwise definition vs the shipped pass. -----
    let mut crc_rows = Vec::new();
    let mut crc_table = TablePrinter::new(vec![
        "image bytes",
        "sections",
        "bitwise crc32 (MB/s)",
        "verify (MB/s)",
        "verify (ms, min-max)",
        "parity",
    ]);
    for nodes in [48usize, 6_000, 96_000] {
        let row = crc_cell(&snapshot_image(nodes), reps);
        crc_table.add_row(vec![
            row.bytes.to_string(),
            row.sections.to_string(),
            format!("{:.0}", mb_per_s(row.bytes, row.reference)),
            format!("{:.0}", mb_per_s(row.bytes, row.verify)),
            format!(
                "{:.4} ({:.4}-{:.4})",
                row.verify.median, row.verify.min, row.verify.max
            ),
            "ok".to_string(),
        ]);
        crc_rows.push(row);
    }
    crc_table.print("Snapshot checksums: bitwise CRC32 of every section vs MappedSnapshot::verify");

    // -- One training step by stage, one pool thread. ------------------------
    sigma_parallel::set_global_threads(1);
    let train_data = DatasetPreset::Pokec
        .build(if quick { 0.4 } else { 1.6 }, 47)
        .expect("pokec preset");
    let train_split = train_data.default_split(47).expect("non-empty dataset");
    let train_ctx = ContextBuilder::new(train_data)
        .with_simrank(SimRankConfig::new(0.6, 0.1, Some(16)).expect("valid config"))
        .build()
        .expect("precompute over the generated graph");
    let train_reps = 2 * reps + 1;
    let train_rows: Vec<TrainStepRow> = [ModelKind::Sigma, ModelKind::GloGnn, ModelKind::Linkx]
        .into_iter()
        .map(|kind| train_step_row(kind, &train_ctx, &train_split, train_reps))
        .collect();
    let dropped = dropped_rows(&train_ctx, train_reps);
    sigma_parallel::set_global_threads(0);
    let mut train_table = TablePrinter::new(
        ["model"]
            .into_iter()
            .chain(TRAIN_STAGES)
            .chain(["epoch (ms, min-max)"])
            .collect(),
    );
    for row in &train_rows {
        let mut cells = vec![row.model.to_string()];
        cells.extend(row.stages.iter().map(|t| format!("{:.2}", t.median)));
        cells.push(format!(
            "{:.2} ({:.2}-{:.2})",
            row.epoch.median, row.epoch.min, row.epoch.max
        ));
        train_table.add_row(cells);
    }
    train_table.print(&format!(
        "One training epoch by stage ({} nodes, {} features, ms, 1 thread)",
        train_ctx.num_nodes(),
        train_ctx.feature_dim()
    ));
    let mut dropped_table = TablePrinter::new(vec!["no longer computed", "shape", "ms (min-max)"]);
    for row in &dropped {
        dropped_table.add_row(vec![
            row.what.to_string(),
            row.shape.clone(),
            format!(
                "{:.3} ({:.3}-{:.3})",
                row.timing.median, row.timing.min, row.timing.max
            ),
        ]);
    }
    dropped_table.print("What a training step used to compute and drop, timed alone");

    // -- LocalPush to the top-k operator by stage, one pool thread. ---------
    sigma_parallel::set_global_threads(1);
    let push_data = DatasetPreset::Pokec.build(1.6, 47).expect("pokec preset");
    let push_cfg = SimRankConfig::new(0.6, 0.1, Some(16)).expect("valid config");
    let push_row = localpush_operator_row(&push_data.graph, push_cfg, train_reps);
    sigma_parallel::set_global_threads(0);
    let mut push_table = TablePrinter::new(vec![
        "rounds: pull, finish, select",
        "run_to_operator (ms, min-max)",
        "parity",
    ]);
    push_table.add_row(vec![
        format!("{:.2}", push_row.rounds.median),
        format!(
            "{:.2} ({:.2}-{:.2})",
            push_row.operator.median, push_row.operator.min, push_row.operator.max
        ),
        "ok".to_string(),
    ]);
    push_table.print(&format!(
        "LocalPush to the top-16 operator ({} nodes, {} operator entries; the {} scores of \
         run() are never held, ms, 1 thread)",
        push_row.nodes, push_row.operator_nnz, push_row.scores_nnz
    ));

    println!("all parity assertions passed: optimised kernels are bitwise-identical to their");
    println!("scalar references at {sweep:?} thread(s), and every repaired operator to a fresh");
    println!("run_to_operator. this host reports {cores} available core(s); thread counts");
    println!("{skipped:?} exceed it and were skipped.");

    emit_json(
        (quick, cores, &skipped),
        (n, operator.nnz(), max_row_nnz),
        &push_graph,
        &balance_rows,
        &kernel_rows,
        (&maintainer_rows, &crc_rows),
        (train_ctx.num_nodes(), &train_rows, &dropped, &push_row),
    );
}

/// Megabytes (10^6 bytes) a second at a timing's median.
fn mb_per_s(bytes: usize, timing: Timing) -> f64 {
    bytes as f64 / 1e3 / timing.median.max(1e-9)
}

fn emit_json(
    (quick, cores, skipped): (bool, usize, &[usize]),
    (nodes, nnz, max_row_nnz): (usize, usize, usize),
    push_graph: &Graph,
    balance: &[BalanceRow],
    kernels: &[KernelRow],
    (maintainers, crcs): (&[MaintainerRow], &[CrcRow]),
    (train_nodes, train, dropped, push): (usize, &[TrainStepRow], &[DroppedRow], &LocalPushRow),
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"kernel_microopt\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"threads_skipped\": {skipped:?},\n"));
    out.push_str(
        "  \"note\": \"parity is asserted (optimised kernels bitwise-identical to their scalar \
         references at every swept thread count); ms is the median of `samples` runs after four \
         discarded warm-up runs, min_ms and max_ms its spread; thread counts above host_cores are \
         skipped; the references are the scalar ones in sigma-testutil; the spmm_rows rows time a \
         slice of nodes/64 rows, asserted bitwise equal to those rows of the full spmm and at \
         least 4x faster than it (min_ms against min_ms at the same thread count); each \
         maintainer row times `samples` successive DynamicSimRank::repair calls (after one \
         discarded) on batches of `edits` edits at one pool thread on the Pokec-like graph of \
         `nodes` nodes, each beside LocalPush::run_to_operator on the same edited graph plus a \
         row diff against the operator held before the batch, reports the rows replayed and rows \
         changed of the median-time repair and the maintainer's resident bytes after the last, \
         and asserts the repaired operator bitwise equal to the re-run and the changed rows \
         equal to the diff; each crc32 row times the \
         table-free bitwise CRC32 of sigma-testutil over every section payload of one snapshot \
         image against MappedSnapshot::verify on a fresh file mapping of the same image (sliced \
         two-lane CRC32 plus the CSR structure check), MB/s = bytes / 1e6 / median s, and asserts \
         every header-table CRC the writer stamped equal to the bitwise one; each train_step row is \
         the per-stage median of `samples` full-batch epochs of one model on the learn_pokec graph \
         and operator at one pool thread, in Trainer::train's order, and each train_step_dropped \
         row times alone, at the same shapes, work a step computed and discarded before leaf \
         layers had a parameter-only backward; localpush_operator times LocalPush::run_to_operator \
         on the learn_pokec graph and SimRank settings at one pool thread, and its rounds (which \
         pull, finish and top-k select every row) from the solver's sigma_localpush_pull_ns \
         histogram around the same call; scores_nnz counts the entries of run()'s score matrix, \
         which the operator build never holds; the operator is asserted equal to run() + \
         to_csr\",\n",
    );
    out.push_str(&format!(
        "  \"spmm_graph\": {{\"nodes\": {nodes}, \"nnz\": {nnz}, \"max_row_nnz\": {max_row_nnz}}},\n"
    ));
    out.push_str(&format!(
        "  \"localpush_graph\": {{\"nodes\": {}, \"edges\": {}}},\n",
        push_graph.num_nodes(),
        push_graph.num_edges()
    ));
    out.push_str("  \"partition_balance\": [\n");
    for (i, b) in balance.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"parts\": {}, \"row_count_imbalance\": {:.4}, \
             \"nnz_balanced_imbalance\": {:.4}}}{}\n",
            b.parts,
            b.row_count_imbalance,
            b.nnz_balanced_imbalance,
            if i + 1 == balance.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"impl\": \"{}\", \"threads\": {}, \"ms\": {:.3}, \
             \"min_ms\": {:.3}, \"max_ms\": {:.3}, \"samples\": {}, \"parity\": \"{}\"}}{}\n",
            k.kernel,
            k.implementation,
            k.threads,
            k.timing.median,
            k.timing.min,
            k.timing.max,
            k.timing.samples,
            k.parity,
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"maintainer\": [\n");
    for (i, m) in maintainers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"edits\": {}, \"epsilon\": {}, \"repair_ms\": {:.3}, \
             \"min_ms\": {:.3}, \"max_ms\": {:.3}, \"rerun_diff_ms\": {:.3}, \
             \"rerun_min_ms\": {:.3}, \"rerun_max_ms\": {:.3}, \"samples\": {}, \
             \"rows_replayed\": {}, \"rows_changed\": {}, \"resident_bytes\": {}, \
             \"parity\": \"ok\"}}{}\n",
            m.nodes,
            m.edits,
            m.epsilon,
            m.replay.median,
            m.replay.min,
            m.replay.max,
            m.rerun.median,
            m.rerun.min,
            m.rerun.max,
            m.replay.samples,
            m.rows_replayed,
            m.rows_changed,
            m.resident_bytes,
            if i + 1 == maintainers.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"crc32\": [\n");
    for (i, c) in crcs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bytes\": {}, \"sections\": {}, \"bitwise_ms\": {:.4}, \
             \"bitwise_mb_per_s\": {:.1}, \"verify_ms\": {:.4}, \"verify_min_ms\": {:.4}, \
             \"verify_max_ms\": {:.4}, \"verify_mb_per_s\": {:.1}, \"samples\": {}, \
             \"parity\": \"ok\"}}{}\n",
            c.bytes,
            c.sections,
            c.reference.median,
            mb_per_s(c.bytes, c.reference),
            c.verify.median,
            c.verify.min,
            c.verify.max,
            mb_per_s(c.bytes, c.verify),
            c.verify.samples,
            if i + 1 == crcs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"train_step\": [\n");
    for (i, t) in train.iter().enumerate() {
        let stages: String = TRAIN_STAGES
            .iter()
            .zip(&t.stages)
            .map(|(name, timing)| format!("\"{name}_ms\": {:.3}, ", timing.median))
            .collect();
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"nodes\": {train_nodes}, {stages}\"epoch_ms\": {:.3}, \
             \"min_ms\": {:.3}, \"max_ms\": {:.3}, \"samples\": {}}}{}\n",
            t.model,
            t.epoch.median,
            t.epoch.min,
            t.epoch.max,
            t.epoch.samples,
            if i + 1 == train.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"train_step_dropped\": [\n");
    for (i, d) in dropped.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"what\": \"{}\", \"shape\": \"{}\", \"ms\": {:.3}, \"min_ms\": {:.3}, \
             \"max_ms\": {:.3}, \"samples\": {}}}{}\n",
            d.what,
            d.shape,
            d.timing.median,
            d.timing.min,
            d.timing.max,
            d.timing.samples,
            if i + 1 == dropped.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"localpush_operator\": {{\"nodes\": {}, \"scores_nnz\": {}, \"operator_nnz\": {}, \
         \"rounds_ms\": {:.3}, \"run_to_operator_ms\": {:.3}, \"min_ms\": {:.3}, \
         \"max_ms\": {:.3}, \"samples\": {}, \"parity\": \"ok\"}}\n}}\n",
        push.nodes,
        push.scores_nnz,
        push.operator_nnz,
        push.rounds.median,
        push.operator.median,
        push.operator.min,
        push.operator.max,
        push.operator.samples,
    ));

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(root, &out).expect("write BENCH_kernels.json at the repo root");
    println!("wrote {root}");
}
