use crate::{CsrView, DenseMatrix, MatrixError, Result};
use sigma_obs::StaticCounter;
use sigma_parallel::{ScratchPool, ThreadPool};

static SPGEMM_CALLS: StaticCounter = StaticCounter::new(
    "sigma_spgemm_calls_total",
    "spgemm (sparse x sparse) invocations",
);

/// Reused Gustavson working set for [`CsrMatrix::spgemm`]: the dense
/// accumulator plus the touched-column list. Site invariant: buffers return
/// to the pool with the accumulator all-zero and the touched list empty, so
/// a taker only ever pays `resize` (never a full re-zeroing) when the
/// output width grows.
static GUSTAVSON_SCRATCH: ScratchPool<(Vec<f32>, Vec<u32>)> = ScratchPool::new();

/// A compressed sparse row (CSR) `f32` matrix.
///
/// In the SIGMA reproduction, `CsrMatrix` represents every *constant
/// propagation operator*: the (normalized) adjacency matrix, the top-k
/// pruned SimRank matrix `S`, and top-k Personalized PageRank matrices.
/// The two kernels that dominate training cost are [`CsrMatrix::spmm`]
/// (`S·H` in the forward pass) and [`CsrMatrix::spmm_transpose`]
/// (`Sᵀ·dZ` in the backward pass); both run in `O(nnz · f)` and are
/// parallelised over disjoint output-row ranges on the shared
/// [`sigma_parallel::ThreadPool`], with results bitwise identical to the
/// serial path for every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed. Entries equal to zero are kept out
    /// of the structure. Returns an error if any coordinate is out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self> {
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    shape: (rows, cols),
                });
            }
            if !v.is_finite() {
                return Err(MatrixError::NonFiniteValue {
                    op: "from_triplets",
                });
            }
        }
        // Sort triplet positions by (row, col) so rows are contiguous and
        // duplicates are adjacent.
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        order.sort_unstable_by_key(|&i| (triplets[i].0, triplets[i].1));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut current_row = 0usize;
        for &idx in &order {
            let (r, c, v) = triplets[idx];
            while current_row < r {
                current_row += 1;
                indptr[current_row] = indices.len();
            }
            // Merge duplicates within the same row.
            if let Some(last) = indices.last() {
                if indptr[current_row] < indices.len()
                    && *last as usize == c
                    && indices.len() > indptr[r]
                {
                    *values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            if v != 0.0 {
                indices.push(c as u32);
                values.push(v);
            }
        }
        while current_row < rows {
            current_row += 1;
            indptr[current_row] = indices.len();
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix directly from raw components.
    ///
    /// `indptr` must have length `rows + 1`, be non-decreasing, start at 0 and
    /// end at `indices.len()`; column indices must be `< cols` and sorted
    /// within each row. This is the fast path used by graph/SimRank builders
    /// that already produce CSR layout.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1
            || indptr.first().copied().unwrap_or(1) != 0
            || indptr.last().copied().unwrap_or(0) != indices.len()
            || indices.len() != values.len()
        {
            return Err(MatrixError::InvalidShape {
                rows,
                cols,
                len: indices.len(),
            });
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(MatrixError::InvalidShape {
                    rows,
                    cols,
                    len: indices.len(),
                });
            }
        }
        for &c in &indices {
            if c as usize >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: 0,
                    col: c as usize,
                    shape: (rows, cols),
                });
            }
        }
        // Column indices must be sorted within each row: the column-range
        // partitioned parallel kernels binary-search row slices.
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            if row.windows(2).any(|w| w[1] < w[0]) {
                return Err(MatrixError::UnsortedRow { row: r });
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Internal constructor for components whose invariants the caller has
    /// already established (the view/kernel materialisers).
    #[inline]
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// A borrowed [`CsrView`] over this matrix's storage.
    ///
    /// The spmm-family methods below delegate to the view kernels, so owned
    /// matrices and memory-mapped snapshot sections run identical code.
    #[inline]
    pub fn view(&self) -> CsrView<'_> {
        CsrView::from_parts_unchecked(
            self.rows,
            self.cols,
            &self.indptr,
            &self.indices,
            &self.values,
        )
    }

    /// Identity operator of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array (length `rows + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterator over `(col, value)` pairs of one row.
    pub fn row_iter(&self, row: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.indptr[row];
        let end = self.indptr[row + 1];
        self.indices[start..end]
            .iter()
            .zip(self.values[start..end].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of stored entries in one row.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.indptr[row + 1] - self.indptr[row]
    }

    /// Value at `(row, col)`, or 0.0 if not stored.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        if row >= self.rows || col >= self.cols {
            return 0.0;
        }
        self.row_iter(row)
            .find(|&(c, _)| c == col)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Sum of each row's values.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row_iter(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Multiplies all stored values by `s`.
    pub fn scale(&mut self, s: f32) {
        self.values.iter_mut().for_each(|v| *v *= s);
    }

    /// Sparse × dense product: `self · rhs`.
    ///
    /// Parallelised over disjoint output-row blocks on the shared pool,
    /// with the blocks cut to near-equal total **nnz** (the `indptr` prefix
    /// sums feed [`sigma_parallel::partition_by_prefix`]) so power-law row
    /// distributions spread evenly across threads. Each output row is
    /// produced by exactly one thread with the serial accumulation order
    /// (an 8-lane [`crate::kernels::axpy`] per stored entry — element-wise, hence
    /// bit-exact), so the result is bitwise identical to the serial path at
    /// every thread count.
    pub fn spmm(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.view().spmm(rhs.view())
    }

    /// Transposed sparse × dense product: `selfᵀ · rhs`.
    ///
    /// The serial path is a scatter over rows of `self`, avoiding an
    /// explicit transpose; used for backpropagation through constant
    /// operators. The parallel path partitions the *output* rows (columns of
    /// `self`) instead — cut to near-equal total column nnz by the weighted
    /// planner: each thread scans every input row and binary-searches the
    /// window of entries landing in its column range, so writes stay
    /// disjoint. For a fixed output row both paths accumulate contributions
    /// in the same `(input row, entry)` order, making the result bitwise
    /// identical to the serial scatter at every thread count.
    pub fn spmm_transpose(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.view().spmm_transpose(rhs.view())
    }

    /// Sparse × sparse product `self · rhs`, returned as CSR.
    ///
    /// Used to form multi-hop operators such as `Â²` (H2GCN / MixHop) and
    /// `S·A` (the localized SIGMA ablation of Table VIII). Output rows are
    /// independent (classic Gustavson algorithm), so row ranges run in
    /// parallel with per-range buffers concatenated in range order — the
    /// assembled matrix is identical to the serial result.
    pub fn spgemm(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "spgemm",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        SPGEMM_CALLS.inc();
        let _span = sigma_obs::span!("spgemm", self.nnz().saturating_add(rhs.nnz()));
        let pool = ThreadPool::global();
        // Dispatch estimate: nnz(self) + nnz(rhs) is a cheap stand-in for the
        // true flop count and only gates *whether* to parallelise.
        let parts = if pool.should_parallelize(self.nnz().saturating_add(rhs.nnz())) {
            // Range planning uses the exact per-row cost, flops(r) =
            // Σ_{k ∈ row r} nnz(rhs row k) — one O(nnz(self)) pass — so one
            // dense output row cannot serialise a whole thread.
            let flops: Vec<usize> = (0..self.rows)
                .map(|r| {
                    self.row_iter(r)
                        .map(|(k, _)| rhs.row_nnz(k))
                        .fold(0usize, usize::saturating_add)
                })
                .collect();
            pool.par_map_ranges_weighted(&flops, |range| self.spgemm_rows(rhs, range))
        } else {
            vec![self.spgemm_rows(rhs, 0..self.rows)]
        };
        let (indptr, indices, values) = concat_row_parts(self.rows, parts);
        Ok(CsrMatrix {
            rows: self.rows,
            cols: rhs.cols,
            indptr,
            indices,
            values,
        })
    }

    /// Gustavson sparse × sparse over one output-row range; returns the
    /// range's cumulative per-row nnz plus its indices/values, concatenated
    /// by [`CsrMatrix::spgemm`] in range order.
    fn spgemm_rows(
        &self,
        rhs: &CsrMatrix,
        range: std::ops::Range<usize>,
    ) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let mut row_nnz = Vec::with_capacity(range.len());
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        // Dense accumulator reused across rows (classic Gustavson algorithm)
        // *and* across calls: the scratch pool hands back a buffer that a
        // previous range left all-zero, so only width growth pays a resize.
        let mut scratch = GUSTAVSON_SCRATCH.take_or_else(|| (Vec::new(), Vec::new()));
        let (acc, touched) = &mut *scratch;
        if acc.len() < rhs.cols {
            acc.resize(rhs.cols, 0.0);
        }
        debug_assert!(acc.iter().all(|&v| v == 0.0), "pooled accumulator dirty");
        debug_assert!(touched.is_empty(), "pooled touch list dirty");
        for r in range {
            touched.clear();
            for (k, v) in self.row_iter(r) {
                let (start, end) = (rhs.indptr[k], rhs.indptr[k + 1]);
                for idx in start..end {
                    let c = rhs.indices[idx];
                    if acc[c as usize] == 0.0 {
                        touched.push(c);
                    }
                    acc[c as usize] += v * rhs.values[idx];
                }
            }
            touched.sort_unstable();
            for &c in touched.iter() {
                let v = acc[c as usize];
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
                acc[c as usize] = 0.0;
            }
            row_nnz.push(indices.len());
        }
        // Pool invariant: the per-row cleanup above left `acc` all-zero;
        // clear the touch list so the next taker starts clean.
        touched.clear();
        (row_nnz, indices, values)
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx] as usize;
                let pos = indptr[c];
                indices[pos] = r as u32;
                values[pos] = self.values[idx];
                indptr[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr: counts,
            indices,
            values,
        }
    }

    /// Keeps only the `k` largest-magnitude entries of each row.
    ///
    /// This is the top-k pruning scheme SIGMA applies to the approximate
    /// SimRank matrix to obtain an `O(kn)` aggregation operator. Ties at the
    /// `k` boundary break towards the smaller column index, so the selection
    /// is a pure function of the row's contents (never of iteration or
    /// scheduling order). Rows are materialised in parallel over disjoint
    /// row ranges on the shared [`sigma_parallel::ThreadPool`] and
    /// concatenated in range order, bitwise identical to the serial pass.
    pub fn top_k_per_row(&self, k: usize) -> CsrMatrix {
        let pool = ThreadPool::global();
        let parts = if pool.should_parallelize(self.nnz()) {
            // Per-row cost is the row's nnz (the sort dominates); `indptr`
            // is exactly the prefix sum the nnz-balanced planner wants.
            pool.par_map_ranges_by_prefix(&self.indptr, |range| self.top_k_rows(k, range))
        } else {
            vec![self.top_k_rows(k, 0..self.rows)]
        };
        let (indptr, indices, values) = concat_row_parts(self.rows, parts);
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Top-k selection over one row range; returns the range's cumulative
    /// per-row nnz plus its indices/values, concatenated by
    /// [`CsrMatrix::top_k_per_row`] in range order.
    fn top_k_rows(
        &self,
        k: usize,
        range: std::ops::Range<usize>,
    ) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let mut row_nnz = Vec::with_capacity(range.len());
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut row_buf: Vec<(u32, f32)> = Vec::new();
        for r in range {
            row_buf.clear();
            row_buf.extend(self.row_iter(r).map(|(c, v)| (c as u32, v)));
            if row_buf.len() > k {
                // Canonical order: |value| descending, column ascending on
                // ties. `row_iter` yields sorted columns, so the sort input
                // (and with the total ordering, the output) is deterministic.
                row_buf.sort_unstable_by(|a, b| {
                    b.1.abs()
                        .partial_cmp(&a.1.abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                row_buf.truncate(k);
            }
            row_buf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &row_buf {
                indices.push(c);
                values.push(v);
            }
            row_nnz.push(indices.len());
        }
        (row_nnz, indices, values)
    }

    /// Returns a copy of `self` with the listed rows replaced by the rows of
    /// `replacement` (its `i`-th row becomes row `rows[i]`).
    ///
    /// `rows` must be strictly ascending (sorted, duplicate-free) and in
    /// bounds; `replacement` must have exactly `rows.len()` rows and the
    /// same column count. The splice is a single `O(nnz)` pass.
    ///
    /// This is the operator-patching primitive behind incremental repair:
    /// after an edge edit perturbs a handful of SimRank rows, only those
    /// rows of the top-k aggregation operator are re-materialised and
    /// spliced in, instead of rebuilding the whole matrix.
    pub fn replace_rows(&self, rows: &[usize], replacement: &CsrMatrix) -> Result<CsrMatrix> {
        if replacement.rows != rows.len() || replacement.cols != self.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "replace_rows",
                lhs: self.shape(),
                rhs: replacement.shape(),
            });
        }
        if rows.windows(2).any(|w| w[1] <= w[0]) {
            return Err(MatrixError::UnsortedSelection { op: "replace_rows" });
        }
        if let Some(&last) = rows.last() {
            if last >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    row: last,
                    col: 0,
                    shape: self.shape(),
                });
            }
        }
        let replaced_nnz: usize = rows.iter().map(|&r| self.row_nnz(r)).sum();
        let new_nnz = self.nnz() - replaced_nnz + replacement.nnz();
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::with_capacity(new_nnz);
        let mut values: Vec<f32> = Vec::with_capacity(new_nnz);
        let mut next = rows.iter().copied().zip(0..rows.len()).peekable();
        for r in 0..self.rows {
            let (src, start, end) = match next.peek() {
                Some(&(patch_row, i)) if patch_row == r => {
                    next.next();
                    (
                        replacement,
                        replacement.indptr[i],
                        replacement.indptr[i + 1],
                    )
                }
                _ => (self, self.indptr[r], self.indptr[r + 1]),
            };
            indices.extend_from_slice(&src.indices[start..end]);
            values.extend_from_slice(&src.values[start..end]);
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        })
    }

    /// Normalizes every row to sum to one (rows with zero sum are left empty).
    pub fn row_normalize(&mut self) {
        for r in 0..self.rows {
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            let sum: f32 = self.values[start..end].iter().sum();
            if sum != 0.0 {
                for v in &mut self.values[start..end] {
                    *v /= sum;
                }
            }
        }
    }

    /// Extracts the given rows (in order, duplicates allowed) as a new
    /// `rows.len() × cols` CSR matrix.
    ///
    /// This is the operator-slicing primitive behind online inference: a
    /// query batch of `b` nodes only needs the `b` corresponding rows of the
    /// top-k aggregation operator, so the slice costs `O(b·k)` instead of
    /// touching all `n` rows.
    pub fn gather_rows(&self, rows: &[usize]) -> Result<CsrMatrix> {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0usize);
        let nnz_estimate: usize = rows
            .iter()
            .map(|&r| if r < self.rows { self.row_nnz(r) } else { 0 })
            .sum();
        let mut indices: Vec<u32> = Vec::with_capacity(nnz_estimate);
        let mut values: Vec<f32> = Vec::with_capacity(nnz_estimate);
        for &r in rows {
            if r >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: 0,
                    shape: self.shape(),
                });
            }
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            indices.extend_from_slice(&self.indices[start..end]);
            values.extend_from_slice(&self.values[start..end]);
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        })
    }

    /// Row-sliced sparse × dense product: `self[rows, :] · rhs`.
    ///
    /// Returns a `rows.len() × rhs.cols()` dense matrix whose `i`-th row is
    /// `Σ_j self[rows[i], j] · rhs[j, :]`. Equivalent to
    /// `gather_rows(rows)?.spmm(rhs)` but without materialising the slice;
    /// for a batch of `b` rows of a top-k operator this is `O(b·k·f)` versus
    /// the `O(n·k·f)` of a full [`CsrMatrix::spmm`].
    pub fn spmm_rows(&self, rows: &[usize], rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.view().spmm_rows(rows, rhs.view())
    }

    /// Converts to a dense matrix. Intended for tests and small graphs only.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }

    /// Converts a dense matrix to CSR, dropping entries with `|v| <= threshold`.
    pub fn from_dense(dense: &DenseMatrix, threshold: f32) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(dense.rows() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..dense.rows() {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v.abs() > threshold {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: dense.rows(),
            cols: dense.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Frobenius norm of the stored values.
    pub fn frobenius_norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Concatenates per-row-range CSR fragments — `(cumulative per-row nnz,
/// indices, values)` triples in range order, as produced by the row-range
/// materialisers — into one `(indptr, indices, values)` set.
///
/// A single part (the serial path, or a one-range plan) is **moved**, not
/// copied: the hot serial paths of `spgemm` / `top_k_per_row` /
/// `SparseScores::to_csr` pay no assembly memcpy at all. Multi-part
/// assembly reserves the exact total and appends in range order, so the
/// result is identical to the serial construction for any partition.
pub fn concat_row_parts(
    rows: usize,
    parts: Vec<(Vec<usize>, Vec<u32>, Vec<f32>)>,
) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
    if parts.len() == 1 {
        let (row_nnz, indices, values) = parts.into_iter().next().expect("one part");
        debug_assert_eq!(row_nnz.len(), rows, "one cumulative count per row");
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        indptr.extend(row_nnz);
        return (indptr, indices, values);
    }
    let total_nnz: usize = parts.iter().map(|(_, idx, _)| idx.len()).sum();
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::with_capacity(total_nnz);
    let mut values: Vec<f32> = Vec::with_capacity(total_nnz);
    for (row_nnz, part_indices, part_values) in parts {
        let base = indices.len();
        for nnz in row_nnz {
            indptr.push(base + nnz);
        }
        indices.extend_from_slice(&part_indices);
        values.extend_from_slice(&part_values);
    }
    (indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[0, 2, 0],
        //  [1, 0, 3],
        //  [0, 0, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)]).unwrap()
    }

    #[test]
    fn from_triplets_basic() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.row_nnz(0), 1);
        assert_eq!(m.row_nnz(2), 0);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_and_nan() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 0, f32::NAN)]).is_err());
    }

    #[test]
    fn from_raw_validates() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // wrong indptr length
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).is_err());
        // decreasing indptr
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = CsrMatrix::identity(3);
        let x = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let y = i.spmm(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let x = DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f32 + 0.5);
        let sparse = m.spmm(&x).unwrap();
        let dense = m.to_dense().matmul(&x).unwrap();
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        let m = sample();
        let x = DenseMatrix::from_fn(3, 2, |r, c| (2 * r + c) as f32);
        let sparse = m.spmm_transpose(&x).unwrap();
        let dense = m.to_dense().transpose().matmul(&x).unwrap();
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn spmm_dimension_mismatch() {
        let m = sample();
        let x = DenseMatrix::zeros(4, 2);
        assert!(m.spmm(&x).is_err());
        assert!(m.spmm_transpose(&x).is_err());
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sample();
        let b = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, -1.0)]).unwrap();
        let c = a.spgemm(&b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        for r in 0..3 {
            for col in 0..2 {
                assert!((c.get(r, col) - dense.get(r, col)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn spgemm_identity_operand_is_noop() {
        let m = sample();
        let i = CsrMatrix::identity(3);
        // Identity on either side reproduces the operand exactly.
        assert_eq!(i.spgemm(&m).unwrap(), m);
        assert_eq!(m.spgemm(&i).unwrap(), m);
    }

    #[test]
    fn spgemm_with_empty_matrices() {
        let m = sample();
        // A structurally empty operand annihilates the product but keeps shape.
        let zero = CsrMatrix::from_triplets(3, 3, &[]).unwrap();
        let left = zero.spgemm(&m).unwrap();
        assert_eq!(left.shape(), (3, 3));
        assert_eq!(left.nnz(), 0);
        let right = m.spgemm(&zero).unwrap();
        assert_eq!(right.shape(), (3, 3));
        assert_eq!(right.nnz(), 0);
        // Degenerate zero-dimension products: (0×3)·(3×3) and (3×3)·(3×0).
        let nil_rows = CsrMatrix::from_triplets(0, 3, &[]).unwrap();
        assert_eq!(nil_rows.spgemm(&m).unwrap().shape(), (0, 3));
        let nil_cols = CsrMatrix::from_triplets(3, 0, &[]).unwrap();
        assert_eq!(m.spgemm(&nil_cols).unwrap().shape(), (3, 0));
    }

    #[test]
    fn spgemm_dimension_mismatch_is_rejected() {
        let m = sample(); // 3 × 3
        let wide = CsrMatrix::from_triplets(4, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            m.spgemm(&wide),
            Err(MatrixError::DimensionMismatch { op: "spgemm", .. })
        ));
    }

    #[test]
    fn spgemm_cancellation_drops_exact_zeros() {
        // Row 0 contributes +1·1 and −1·1 to output column 0: the exact
        // cancellation must be pruned from the structure, matching the
        // serial Gustavson behaviour.
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        let c = a.spgemm(&b).unwrap();
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn from_raw_rejects_unsorted_rows() {
        // Sorted-within-row is a structural invariant the column-partitioned
        // parallel kernels rely on; the error names the offending row.
        assert!(matches!(
            CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]),
            Err(MatrixError::UnsortedRow { row: 0 })
        ));
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 1.0]).is_ok());
        // Duplicate (equal) columns within a row remain legal.
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.get(2, 1), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn top_k_keeps_largest_magnitude() {
        let m = CsrMatrix::from_triplets(
            1,
            5,
            &[
                (0, 0, 0.1),
                (0, 1, -0.9),
                (0, 2, 0.5),
                (0, 3, 0.2),
                (0, 4, 0.05),
            ],
        )
        .unwrap();
        let pruned = m.top_k_per_row(2);
        assert_eq!(pruned.nnz(), 2);
        assert_eq!(pruned.get(0, 1), -0.9);
        assert_eq!(pruned.get(0, 2), 0.5);
        assert_eq!(pruned.get(0, 0), 0.0);
    }

    #[test]
    fn top_k_larger_than_row_is_noop() {
        let m = sample();
        assert_eq!(m.top_k_per_row(10), m);
    }

    #[test]
    fn row_normalize_sums_to_one() {
        let mut m = sample();
        m.row_normalize();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-6);
        assert!((sums[1] - 1.0).abs() < 1e-6);
        assert_eq!(sums[2], 0.0);
    }

    #[test]
    fn scale_multiplies_every_stored_value() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(back, m);
    }

    #[test]
    fn from_dense_threshold_drops_small() {
        let d = DenseMatrix::from_rows(&[&[0.001, 1.0], &[0.0, -0.002]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.01);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(0, 1), 1.0);
    }

    #[test]
    fn gather_rows_selects_and_reorders() {
        let m = sample();
        let g = m.gather_rows(&[1, 1, 0]).unwrap();
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.nnz(), 5);
        assert_eq!(g.get(0, 0), 1.0);
        assert_eq!(g.get(0, 2), 3.0);
        assert_eq!(g.get(1, 2), 3.0);
        assert_eq!(g.get(2, 1), 2.0);
        // Empty selection produces a 0 × cols matrix.
        let empty = m.gather_rows(&[]).unwrap();
        assert_eq!(empty.shape(), (0, 3));
        assert_eq!(empty.nnz(), 0);
        // Out-of-bounds rows are rejected.
        assert!(m.gather_rows(&[3]).is_err());
    }

    #[test]
    fn spmm_rows_matches_full_spmm() {
        let m = sample();
        let x = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.25 - 1.0);
        let full = m.spmm(&x).unwrap();
        let rows = [2usize, 0, 1, 0];
        let sliced = m.spmm_rows(&rows, &x).unwrap();
        assert_eq!(sliced.shape(), (4, 4));
        for (dst, &src) in rows.iter().enumerate() {
            assert_eq!(sliced.row(dst), full.row(src));
        }
        // Agreement with the gather-then-spmm formulation.
        let via_gather = m.gather_rows(&rows).unwrap().spmm(&x).unwrap();
        assert_eq!(sliced, via_gather);
    }

    #[test]
    fn spmm_rows_validates_shapes_and_bounds() {
        let m = sample();
        assert!(m.spmm_rows(&[0], &DenseMatrix::zeros(4, 2)).is_err());
        assert!(m.spmm_rows(&[9], &DenseMatrix::zeros(3, 2)).is_err());
        let empty = m.spmm_rows(&[], &DenseMatrix::zeros(3, 2)).unwrap();
        assert_eq!(empty.shape(), (0, 2));
    }

    #[test]
    fn top_k_zero_empties_every_row() {
        let m = sample();
        let pruned = m.top_k_per_row(0);
        assert_eq!(pruned.shape(), m.shape());
        assert_eq!(pruned.nnz(), 0);
        for r in 0..3 {
            assert_eq!(pruned.row_nnz(r), 0);
        }
    }

    #[test]
    fn top_k_on_empty_rows_and_empty_matrix() {
        // Row 2 of the sample is structurally empty and must stay empty.
        let m = sample();
        let pruned = m.top_k_per_row(1);
        assert_eq!(pruned.row_nnz(2), 0);
        assert_eq!(pruned.row_nnz(0), 1);
        // A matrix with no stored entries at all survives pruning.
        let zero = CsrMatrix::from_triplets(3, 3, &[]).unwrap();
        assert_eq!(zero.top_k_per_row(2), zero);
        // Degenerate 0 × 0 matrix.
        let nil = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        assert_eq!(nil.top_k_per_row(3).shape(), (0, 0));
    }

    #[test]
    fn top_k_at_exact_row_nnz_is_identity() {
        let m = sample();
        // Row 1 holds exactly two entries; k = 2 must keep both.
        let pruned = m.top_k_per_row(2);
        assert_eq!(pruned, m);
    }

    #[test]
    fn row_normalize_handles_zero_and_cancelling_rows() {
        // Row 0 sums to zero by cancellation, row 1 is structurally empty.
        let mut m =
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (0, 1, -2.0), (2, 2, 4.0)]).unwrap();
        m.row_normalize();
        // Cancelling rows are left untouched (no division by zero, no NaN).
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), -2.0);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(2, 2), 1.0);
        assert!(m.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn row_normalize_on_all_zero_matrix_is_noop() {
        let mut zero = CsrMatrix::from_triplets(2, 2, &[]).unwrap();
        let before = zero.clone();
        zero.row_normalize();
        assert_eq!(zero, before);
    }

    #[test]
    fn replace_rows_splices_patch_rows() {
        let m = sample();
        // Replace rows 0 and 2 of the sample with new contents.
        let patch =
            CsrMatrix::from_triplets(2, 3, &[(0, 0, 5.0), (0, 2, 6.0), (1, 1, -1.0)]).unwrap();
        let patched = m.replace_rows(&[0, 2], &patch).unwrap();
        assert_eq!(patched.shape(), (3, 3));
        assert_eq!(patched.get(0, 0), 5.0);
        assert_eq!(patched.get(0, 2), 6.0);
        assert_eq!(patched.get(0, 1), 0.0);
        // Untouched row 1 is carried over verbatim.
        assert_eq!(patched.get(1, 0), 1.0);
        assert_eq!(patched.get(1, 2), 3.0);
        assert_eq!(patched.get(2, 1), -1.0);
        assert_eq!(patched.nnz(), 5);
    }

    #[test]
    fn replace_rows_with_empty_selection_is_identity() {
        let m = sample();
        let empty = CsrMatrix::from_triplets(0, 3, &[]).unwrap();
        assert_eq!(m.replace_rows(&[], &empty).unwrap(), m);
    }

    #[test]
    fn replace_rows_can_empty_and_widen_rows() {
        let m = sample();
        // Row 1 (two entries) becomes empty; row 2 (empty) gains three.
        let patch =
            CsrMatrix::from_triplets(2, 3, &[(1, 0, 1.0), (1, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let patched = m.replace_rows(&[1, 2], &patch).unwrap();
        assert_eq!(patched.row_nnz(1), 0);
        assert_eq!(patched.row_nnz(2), 3);
        assert_eq!(patched.get(2, 1), 2.0);
        assert_eq!(patched.get(0, 1), 2.0);
    }

    #[test]
    fn replace_rows_validates_inputs() {
        let m = sample();
        let patch = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        // Selection length must match the patch row count.
        assert!(matches!(
            m.replace_rows(&[0], &patch),
            Err(MatrixError::DimensionMismatch {
                op: "replace_rows",
                ..
            })
        ));
        // Column count must match.
        let narrow = CsrMatrix::from_triplets(2, 2, &[]).unwrap();
        assert!(m.replace_rows(&[0, 1], &narrow).is_err());
        // Selection must be strictly ascending.
        assert!(matches!(
            m.replace_rows(&[1, 0], &patch),
            Err(MatrixError::UnsortedSelection { .. })
        ));
        assert!(matches!(
            m.replace_rows(&[1, 1], &patch),
            Err(MatrixError::UnsortedSelection { .. })
        ));
        // Selection must be in bounds.
        assert!(matches!(
            m.replace_rows(&[0, 3], &patch),
            Err(MatrixError::IndexOutOfBounds { row: 3, .. })
        ));
    }

    #[test]
    fn replace_rows_round_trips_through_gather() {
        // Splicing a gathered slice back in reproduces the original matrix.
        let m = sample();
        let rows = [0usize, 2];
        let slice = m.gather_rows(&rows).unwrap();
        assert_eq!(m.replace_rows(&rows, &slice).unwrap(), m);
    }

    #[test]
    fn top_k_tie_break_prefers_smaller_columns() {
        // Three equal-magnitude entries, k = 2: the canonical order keeps
        // the two smallest column indices regardless of traversal order.
        let m = CsrMatrix::from_triplets(1, 4, &[(0, 0, 0.5), (0, 1, -0.5), (0, 3, 0.5)]).unwrap();
        let pruned = m.top_k_per_row(2);
        assert_eq!(pruned.nnz(), 2);
        assert_eq!(pruned.get(0, 0), 0.5);
        assert_eq!(pruned.get(0, 1), -0.5);
        assert_eq!(pruned.get(0, 3), 0.0);
    }

    #[test]
    fn stats_helpers() {
        let m = sample();
        assert!((m.frobenius_norm() - (4.0f32 + 1.0 + 9.0).sqrt()).abs() < 1e-6);
    }
}
