//! Kernel micro-optimisation bench: nnz-balanced partitioning + SIMD-shaped
//! inner loops versus the pre-optimisation scalar path, on skewed
//! (power-law) fig5-style graphs at 1/2/4 threads.
//!
//! Three things are measured and one thing is *proven* on every run:
//!
//! * **before/after timings** for `spmm`, `spmm_transpose`, `spgemm` and
//!   LocalPush — "before" is a self-contained scalar re-implementation of
//!   each kernel's historical accumulation order, "after" is the optimised
//!   library kernel at 1, 2 and 4 threads;
//! * **planner balance**: the maximum range weight of the equal-row-count
//!   split versus the nnz-balanced planner on the skewed operator, a
//!   machine-independent utilisation proxy (on a single-core container the
//!   wall-clock speed-ups flatten toward 1× by construction, but the
//!   balance numbers — and the parity guarantees — do not depend on the
//!   host);
//! * **bit-parity**: every optimised kernel result is asserted bitwise
//!   identical to its scalar baseline, at every thread count. A mismatch
//!   aborts the bench (CI runs this in `--quick` mode).
//!
//! Results are emitted as `BENCH_kernels.json` at the repository root,
//! seeding the machine-readable perf trajectory.

use sigma_bench::TablePrinter;
use sigma_graph::{sym_normalized_adjacency, Graph};
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_parallel::partition_by_weight;
use sigma_simrank::fxhash::{pair_key, unpack_pair, FxHashMap};
use sigma_simrank::{LocalPush, SimRankConfig, SparseScores};
use std::time::Instant;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Mirrors `sigma_simrank`'s (private) frontier chunk width; the baseline
/// must cut rounds identically to reproduce the kernel's bits.
const PUSH_CHUNK: usize = 128;
/// Mirrors `sigma_simrank`'s (private) relative pruning fraction.
const RELATIVE_PRUNE_FRACTION: f32 = 0.01;

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

/// A power-law graph: a sparse ring base plus head nodes whose degree
/// decays harmonically from `max_deg` — the degree skew of the paper's
/// pokec-style scalability graphs, concentrated enough that equal-row-count
/// partitioning visibly serialises behind the head.
fn power_law_graph(n: usize, max_deg: usize, seed: u64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        edges.push((u, (u + 1) % n));
        edges.push((u, (u + 7) % n));
    }
    for i in 0..n {
        let extra = max_deg / (i + 1);
        for e in 0..extra {
            let j = (i + 11 + e * 13 + (seed as usize % 17)) % n;
            if i != j {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("in-bounds edges")
}

// ---------------------------------------------------------------------------
// Scalar baselines: the pre-optimisation kernels, re-implemented verbatim.
// ---------------------------------------------------------------------------

fn baseline_spmm(m: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    let f = x.cols();
    let mut out = DenseMatrix::zeros(m.rows(), f);
    for r in 0..m.rows() {
        for (c, v) in m.row_iter(r) {
            let x_row = x.row(c);
            let out_row = out.row_mut(r);
            for j in 0..f {
                out_row[j] += v * x_row[j];
            }
        }
    }
    out
}

fn baseline_spmm_transpose(m: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    let f = x.cols();
    let mut out = DenseMatrix::zeros(m.cols(), f);
    for r in 0..m.rows() {
        for (c, v) in m.row_iter(r) {
            let x_row = x.row(r);
            let out_row = out.row_mut(c);
            for j in 0..f {
                out_row[j] += v * x_row[j];
            }
        }
    }
    out
}

fn baseline_spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let mut triplet_indptr = vec![0usize];
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    // Fresh Gustavson working set per call (the pre-pool behaviour).
    let mut acc = vec![0.0f32; b.cols()];
    let mut touched: Vec<u32> = Vec::new();
    for r in 0..a.rows() {
        touched.clear();
        for (k, v) in a.row_iter(r) {
            for (c, bv) in b.row_iter(k) {
                if acc[c] == 0.0 {
                    touched.push(c as u32);
                }
                acc[c] += v * bv;
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            let v = acc[c as usize];
            if v != 0.0 {
                indices.push(c);
                values.push(v);
            }
            acc[c as usize] = 0.0;
        }
        triplet_indptr.push(indices.len());
    }
    CsrMatrix::from_raw(a.rows(), b.cols(), triplet_indptr, indices, values)
        .expect("baseline produces valid CSR")
}

/// The pre-optimisation LocalPush: identical round schedule (frontier cut
/// into 128-pair chunks, chunk-ordered merge) with the historical inner
/// loops — per-chunk fresh allocations and a nested multiply instead of the
/// gather + scale restructure. Returns per-row score maps shaped like
/// `SparseScores`.
/// One baseline chunk's output: absorbed pairs + residual deltas.
type BaselineChunk = (Vec<(u64, f32)>, FxHashMap<u64, f32>);

fn baseline_localpush(graph: &Graph, decay: f64, epsilon: f64) -> Vec<FxHashMap<u32, f32>> {
    let n = graph.num_nodes();
    let c = decay as f32;
    let threshold = ((1.0 - decay) * epsilon) as f32;
    let inv_deg: Vec<f32> = (0..n)
        .map(|v| {
            let d = graph.degree(v);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f32
            }
        })
        .collect();
    let mut rows: Vec<FxHashMap<u32, f32>> = vec![FxHashMap::default(); n];
    let mut residual: FxHashMap<u64, f32> = FxHashMap::default();
    let mut frontier: Vec<u64> = (0..n as u32).map(|u| pair_key(u, u)).collect();
    for &key in &frontier {
        residual.insert(key, 1.0);
    }
    while !frontier.is_empty() {
        let outputs: Vec<BaselineChunk> = frontier
            .chunks(PUSH_CHUNK)
            .map(|chunk| {
                let mut absorbed = Vec::with_capacity(chunk.len());
                let mut delta: FxHashMap<u64, f32> = FxHashMap::default();
                for &key in chunk {
                    let r = match residual.get(&key) {
                        Some(&r) if r > threshold => r,
                        _ => continue,
                    };
                    absorbed.push((key, r));
                    let (a, b) = unpack_pair(key);
                    let push_base = c * r;
                    for &x in graph.neighbors(a as usize) {
                        let scale_x = push_base * inv_deg[x as usize];
                        for &y in graph.neighbors(b as usize) {
                            if x == y {
                                continue;
                            }
                            *delta.entry(pair_key(x, y)).or_insert(0.0) +=
                                scale_x * inv_deg[y as usize];
                        }
                    }
                }
                (absorbed, delta)
            })
            .collect();
        for (absorbed, _) in &outputs {
            for &(key, r) in absorbed {
                let (a, b) = unpack_pair(key);
                *rows[a as usize].entry(b).or_insert(0.0) += r;
                residual.insert(key, 0.0);
            }
        }
        let mut candidates: Vec<u64> = Vec::new();
        for (_, delta) in outputs {
            for (key, d) in delta {
                *residual.entry(key).or_insert(0.0) += d;
                candidates.push(key);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|key| residual.get(key).copied().unwrap_or(0.0) > threshold);
        frontier = candidates;
    }
    for (&key, &r) in residual.iter() {
        if r > 0.0 {
            let (a, b) = unpack_pair(key);
            *rows[a as usize].entry(b).or_insert(0.0) += r;
        }
    }
    for (u, row) in rows.iter_mut().enumerate() {
        let row_max = row
            .iter()
            .filter(|(&v, _)| v as usize != u)
            .map(|(_, &s)| s)
            .fold(0.0f32, f32::max);
        if row_max <= 0.0 {
            continue;
        }
        let floor = RELATIVE_PRUNE_FRACTION * row_max;
        row.retain(|&v, s| v as usize == u || *s >= floor);
    }
    rows
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

fn assert_scores_match_baseline(
    scores: &SparseScores,
    baseline: &[FxHashMap<u32, f32>],
    what: &str,
) {
    assert_eq!(scores.num_nodes(), baseline.len(), "{what}: node count");
    for (u, base_row) in baseline.iter().enumerate() {
        let mut got: Vec<(u32, u32)> = scores
            .row(u)
            .map(|(v, s)| (v as u32, s.to_bits()))
            .collect();
        let mut want: Vec<(u32, u32)> = base_row.iter().map(|(&v, &s)| (v, s.to_bits())).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{what}: PARITY MISMATCH in score row {u}");
    }
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

/// Times `f` over `reps` repetitions, returning (ms per rep, last result).
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let mut out = f();
    for _ in 1..reps {
        out = f();
    }
    (start.elapsed().as_secs_f64() * 1e3 / reps as f64, out)
}

struct KernelRow {
    kernel: &'static str,
    implementation: &'static str,
    threads: usize,
    ms: f64,
    parity: &'static str,
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

    // -- Scalar baselines (timed once, serial by construction). -------------
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    let (base_spmm_ms, base_spmm) = time_ms(reps, || baseline_spmm(&operator, &features));
    let (base_spmmt_ms, base_spmmt) =
        time_ms(reps, || baseline_spmm_transpose(&operator, &features));
    let (base_spgemm_ms, base_spgemm) = time_ms(reps, || baseline_spgemm(&operator, &operator));
    let (base_push_ms, base_push) = time_ms(1, || {
        baseline_localpush(&push_graph, simrank_cfg.decay, simrank_cfg.epsilon)
    });
    for (kernel, ms) in [
        ("spmm", base_spmm_ms),
        ("spmm_transpose", base_spmmt_ms),
        ("spgemm", base_spgemm_ms),
        ("localpush", base_push_ms),
    ] {
        kernel_rows.push(KernelRow {
            kernel,
            implementation: "baseline_scalar",
            threads: 1,
            ms,
            parity: "ref",
        });
    }

    // -- Optimised kernels at 1/2/4 threads, parity-asserted. ---------------
    let mut table = TablePrinter::new(vec![
        "kernel",
        "threads",
        "baseline (ms)",
        "optimised (ms)",
        "speed-up",
        "parity",
    ]);
    for threads in THREAD_SWEEP {
        sigma_parallel::set_global_threads(threads);

        let (spmm_ms, spmm_out) = time_ms(reps, || operator.spmm(&features).unwrap());
        assert_dense_bitwise(&base_spmm, &spmm_out, "spmm");

        let (spmmt_ms, spmmt_out) = time_ms(reps, || operator.spmm_transpose(&features).unwrap());
        assert_dense_bitwise(&base_spmmt, &spmmt_out, "spmm_transpose");

        let (spgemm_ms, spgemm_out) = time_ms(reps, || operator.spgemm(&operator).unwrap());
        assert_eq!(base_spgemm, spgemm_out, "spgemm PARITY MISMATCH");

        let (push_ms, push_scores) = time_ms(1, || {
            LocalPush::new(&push_graph, simrank_cfg).unwrap().run()
        });
        assert_scores_match_baseline(&push_scores, &base_push, "localpush");

        for (kernel, base_ms, ms) in [
            ("spmm", base_spmm_ms, spmm_ms),
            ("spmm_transpose", base_spmmt_ms, spmmt_ms),
            ("spgemm", base_spgemm_ms, spgemm_ms),
            ("localpush", base_push_ms, push_ms),
        ] {
            table.add_row(vec![
                kernel.to_string(),
                threads.to_string(),
                format!("{base_ms:.2}"),
                format!("{ms:.2}"),
                format!("{:.2}x", base_ms / ms.max(1e-9)),
                "ok".to_string(),
            ]);
            kernel_rows.push(KernelRow {
                kernel,
                implementation: "optimised",
                threads,
                ms,
                parity: "ok",
            });
        }
    }
    sigma_parallel::set_global_threads(0);
    table.print("Kernel micro-optimisations vs the scalar baseline (skewed graph)");

    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!("all parity assertions passed: optimised kernels are bitwise-identical to the");
    println!("pre-optimisation scalar path at every thread count. this host reports {cores}");
    println!("available core(s); on a single core, multi-thread speed-ups flatten toward 1x");
    println!("by construction — the partition-balance table is the machine-independent signal.");

    emit_json(
        quick,
        cores,
        (n, operator.nnz(), max_row_nnz),
        (push_n, push_graph.num_edges()),
        &balance_rows,
        &kernel_rows,
    );
}

fn emit_json(
    quick: bool,
    cores: usize,
    (nodes, nnz, max_row_nnz): (usize, usize, usize),
    (push_nodes, push_edges): (usize, usize),
    balance: &[BalanceRow],
    kernels: &[KernelRow],
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"kernel_microopt\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(
        "  \"note\": \"parity is asserted (optimised kernels bitwise-identical to the scalar \
         baseline at 1/2/4 threads); on a single-core host the thread speed-ups flatten toward \
         1x by construction and the partition balance rows carry the machine-independent \
         signal\",\n",
    );
    out.push_str(&format!(
        "  \"spmm_graph\": {{\"nodes\": {nodes}, \"nnz\": {nnz}, \"max_row_nnz\": {max_row_nnz}}},\n"
    ));
    out.push_str(&format!(
        "  \"localpush_graph\": {{\"nodes\": {push_nodes}, \"edges\": {push_edges}}},\n"
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
             \"parity\": \"{}\"}}{}\n",
            k.kernel,
            k.implementation,
            k.threads,
            k.ms,
            k.parity,
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(root, &out).expect("write BENCH_kernels.json at the repo root");
    println!("wrote {root}");
}
