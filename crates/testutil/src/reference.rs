//! Scalar reference implementations the optimised kernels are pinned to,
//! bit for bit, by parity tests and by the `kernel_microopt` bench.

use sigma_graph::Graph;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_simrank::SimRankConfig;

/// `m · x` as the plain row-by-row scalar loop: each output row accumulates
/// `v · x[c]` over the stored `(c, v)` of its operator row, in storage
/// order. `CsrMatrix::spmm` is pinned to this at every pool width.
pub fn spmm_reference(m: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
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

/// `mᵀ · x` as the serial scatter: operator rows ascending, each stored
/// `(c, v)` of row `r` adding `v · x[r]` into output row `c`.
/// `CsrMatrix::spmm_transpose` is pinned to this at every pool width.
pub fn spmm_transpose_reference(m: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
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

/// `a · b` by Gustavson's row-wise accumulation with one dense accumulator:
/// products summed in `a`-row then `b`-row storage order, columns emitted
/// ascending, exact zeros dropped. `CsrMatrix::spgemm` is pinned to this at
/// every pool width.
pub fn spgemm_reference(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let mut indptr = vec![0usize];
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
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
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw(a.rows(), b.cols(), indptr, indices, values)
        .expect("the reference produces valid CSR")
}

/// What [`localpush_reference`] computed.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalPushReference {
    /// Pruned score rows: `(column, Ŝ(row, column))`, column-ascending.
    pub rows: Vec<Vec<(u32, f32)>>,
    /// Pairs pushed, the counterpart of `LocalPush::pushes_performed`.
    pub pushes: usize,
    /// Rounds that pushed at least one pair.
    pub rounds: usize,
    /// The pairs every such round after the first pushed — the frontier
    /// log a run records.
    pub log: Vec<FrontierRound>,
}

/// One round's pushed pairs: the rows that pushed, ascending, each with its
/// `(column, residual)` pairs column-ascending.
pub type FrontierRound = Vec<(u32, Vec<(u32, f32)>)>;

/// The coupled LocalPush of `sigma_simrank::LocalPush::run` as nested loops
/// over dense `n × n` matrices, in the solver's canonical summation order.
///
/// Every round absorbs the pairs whose residual exceeds `(1−c)·ε` into `Ŝ`
/// (row-major), pushes the row-major prefix of them the budget allows, and
/// adds to each `R(x, y)`, `x ≠ y`, the delta
/// `c/|N_x| · 1/|N_y| · Σ_{a ∈ N_x} Σ_{(a,b) pushed, y ∈ N_b} R(a, b)`,
/// summed with `a` ascending, `b` ascending, `N_b` in adjacency order and
/// scaled once at the end. The remaining residual is then swept into `Ŝ`
/// and each row pruned relative to its largest off-diagonal score.
pub fn localpush_reference(
    graph: &Graph,
    config: SimRankConfig,
    max_pushes: usize,
) -> LocalPushReference {
    localpush_reference_at(graph, (config.decay, config.epsilon), max_pushes)
}

/// [`localpush_reference`] at decay `c` and precision `ε` given as numbers:
/// the form `sigma-simrank`'s own unit tests call, which see a different
/// build of `SimRankConfig` than this crate does.
pub fn localpush_reference_at(
    graph: &Graph,
    (decay, epsilon): (f64, f64),
    max_pushes: usize,
) -> LocalPushReference {
    let n = graph.num_nodes();
    let c = decay as f32;
    let threshold = ((1.0 - decay) * epsilon) as f32;
    let inv_deg: Vec<f32> = (0..n)
        .map(|v| match graph.degree(v) {
            0 => 0.0,
            d => 1.0 / d as f32,
        })
        .collect();
    let mut scores = vec![vec![0.0f32; n]; n];
    let mut residual = vec![vec![0.0f32; n]; n];
    for (u, row) in residual.iter_mut().enumerate() {
        row[u] = 1.0;
    }
    let (mut pushes, mut rounds, mut log) = (0usize, 0usize, Vec::new());
    loop {
        let mut frontier: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
        for a in 0..n {
            for b in 0..n {
                let r = residual[a][b];
                if r > threshold {
                    scores[a][b] += r;
                    residual[a][b] = 0.0;
                    frontier[a].push((b, r));
                }
            }
        }
        let mut budget = max_pushes - pushes;
        for row in &mut frontier {
            row.truncate(budget);
            budget -= row.len();
        }
        let pushed = max_pushes - pushes - budget;
        if pushed == 0 {
            break;
        }
        if rounds > 0 {
            let pushing = frontier
                .iter()
                .enumerate()
                .filter(|(_, row)| !row.is_empty());
            let pairs = |row: &Vec<(usize, f32)>| row.iter().map(|&(b, r)| (b as u32, r)).collect();
            log.push(pushing.map(|(a, row)| (a as u32, pairs(row))).collect());
        }
        pushes += pushed;
        rounds += 1;
        for x in 0..n {
            let mut sums = vec![0.0f32; n];
            for &a in graph.neighbors(x) {
                for &(b, r) in &frontier[a as usize] {
                    for &y in graph.neighbors(b) {
                        sums[y as usize] += r;
                    }
                }
            }
            for y in 0..n {
                if y != x && sums[y] != 0.0 {
                    residual[x][y] += c * inv_deg[x] * inv_deg[y] * sums[y];
                }
            }
        }
    }
    let rows = (0..n)
        .map(|x| {
            for y in 0..n {
                if residual[x][y] > 0.0 {
                    scores[x][y] += residual[x][y];
                }
            }
            let stored = || (0..n).filter(|&y| scores[x][y] > 0.0);
            let row_max = stored()
                .filter(|&y| y != x)
                .map(|y| scores[x][y])
                .fold(0.0f32, f32::max);
            let floor = 0.01 * row_max;
            stored()
                .filter(|&y| y == x || scores[x][y] >= floor)
                .map(|y| (y as u32, scores[x][y]))
                .collect()
        })
        .collect();
    LocalPushReference {
        rows,
        pushes,
        rounds,
        log,
    }
}

/// The top-k selection of one column-ascending score row from its
/// definition: the whole row sorted by score descending, then column
/// ascending; the first `k` kept (all of them for `None`); the kept entries
/// re-sorted by column. `SparseScores::to_csr` / `rows_to_csr` and
/// `LocalPush::run_to_operator` are pinned to this row by row.
pub fn top_k_reference(row: &[(u32, f32)], k: Option<usize>) -> Vec<(u32, f32)> {
    let mut kept = row.to_vec();
    kept.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    kept.truncate(k.unwrap_or(usize::MAX));
    kept.sort_by_key(|&(col, _)| col);
    kept
}

/// IEEE CRC32 (the zlib/PNG polynomial, reflected, `0xEDB8_8320`) from its
/// definition: one byte folded in at a time, one bit shifted out at a time,
/// no table. The snapshot format's sliced kernel is pinned to this.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}
