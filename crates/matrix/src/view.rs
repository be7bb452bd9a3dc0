//! Borrowed views over CSR and dense storage: the view-first kernel API.
//!
//! The zero-copy snapshot format (`sigma-serve` format v3) maps CSR and
//! dense sections straight off disk as `&[usize]`/`&[u32]`/`&[f32]`
//! slices. [`CsrView`] and [`DenseView`] wrap such slices — or the arrays
//! inside an owned [`CsrMatrix`]/[`DenseMatrix`] — and carry the *kernel
//! implementations* for the spmm family. The owned types delegate their
//! public `spmm`/`spmm_rows`/`spmm_transpose` methods here, so the owned
//! and borrowed paths run the same code and produce bitwise-identical
//! results at every thread count.
//!
//! A row pointer is a `usize` everywhere: in an owned matrix, and on disk
//! as a 64-bit little-endian word that a 64-bit host reads in place. So
//! one [`CsrView`] serves both, with no width to dispatch on.

use crate::{kernels, CsrMatrix, DenseMatrix, MatrixError, Result};
use sigma_obs::StaticCounter;
use sigma_parallel::ThreadPool;

pub(crate) static SPMM_CALLS: StaticCounter = StaticCounter::new(
    "sigma_spmm_calls_total",
    "spmm (sparse x dense) kernel invocations that reached the compute path",
);
pub(crate) static SPMM_NNZ: StaticCounter =
    StaticCounter::new("sigma_spmm_nnz_total", "stored entries processed by spmm");
pub(crate) static SPMM_TRANSPOSE_CALLS: StaticCounter = StaticCounter::new(
    "sigma_spmm_transpose_calls_total",
    "spmm_transpose (backward operator product) invocations that reached the compute path",
);
pub(crate) static SPMM_TRANSPOSE_NNZ: StaticCounter = StaticCounter::new(
    "sigma_spmm_transpose_nnz_total",
    "stored entries processed by spmm_transpose",
);
pub(crate) static SPMM_ROWS_CALLS: StaticCounter = StaticCounter::new(
    "sigma_spmm_rows_calls_total",
    "row-sliced spmm (serving batch) invocations that reached the compute path",
);
pub(crate) static SPMM_ROWS_ROWS: StaticCounter = StaticCounter::new(
    "sigma_spmm_rows_rows_total",
    "output rows produced by spmm_rows",
);

/// A borrowed row-major dense `f32` matrix.
///
/// The borrowed counterpart of [`DenseMatrix`]: same layout, no ownership.
/// Obtained from [`DenseMatrix::view`] or built over a memory-mapped
/// snapshot section with [`DenseView::new`].
#[derive(Debug, Clone, Copy)]
pub struct DenseView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> DenseView<'a> {
    /// Wraps a row-major buffer; `data.len()` must equal `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Result<Self> {
        if data.len() != rows.saturating_mul(cols) {
            return Err(MatrixError::InvalidShape {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
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

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &'a [f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies the selected rows (in order, duplicates allowed) into a new
    /// owned matrix. Mirrors [`DenseMatrix::select_rows`] exactly.
    pub fn select_rows(&self, indices: &[usize]) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    row: src,
                    col: 0,
                    shape: self.shape(),
                });
            }
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Copies the viewed data into an owned [`DenseMatrix`].
    pub fn to_owned_matrix(&self) -> DenseMatrix {
        DenseMatrix::from_vec(self.rows, self.cols, self.data.to_vec())
            .expect("view shape is consistent by construction")
    }
}

/// A borrowed CSR `f32` matrix.
///
/// The borrowed counterpart of [`CsrMatrix`]: three slices plus a shape.
/// Carries the spmm-family kernel implementations; [`CsrMatrix`] delegates
/// here, so owned and mapped storage run identical code.
///
/// [`CsrView::new`] performs only O(1) shape checks (lengths and `indptr`
/// endpoints). The O(nnz) structural invariants — `indptr` monotone,
/// within-row column sortedness, indices in bounds — are checked by
/// [`CsrView::validate_structure`], which snapshot loaders call once before
/// serving from the view.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    rows: usize,
    cols: usize,
    indptr: &'a [usize],
    indices: &'a [u32],
    values: &'a [f32],
}

impl<'a> CsrView<'a> {
    /// Wraps raw CSR components after O(1) shape checks: `indptr` has
    /// `rows + 1` entries, starts at 0, ends at `indices.len()`, and
    /// `indices`/`values` have equal length.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: &'a [usize],
        indices: &'a [u32],
        values: &'a [f32],
    ) -> Result<Self> {
        if indptr.len() != rows + 1
            || indptr.first() != Some(&0)
            || indptr.last() != Some(&indices.len())
            || indices.len() != values.len()
        {
            return Err(MatrixError::InvalidShape {
                rows,
                cols,
                len: indices.len(),
            });
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Internal constructor for views over already-validated owned storage.
    #[inline]
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: &'a [usize],
        indices: &'a [u32],
        values: &'a [f32],
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Half-open entry range of one row.
    #[inline]
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.indptr[row]..self.indptr[row + 1]
    }

    /// Number of stored entries in one row.
    #[inline]
    pub fn row_nnz(&self, row: usize) -> usize {
        let r = self.row_range(row);
        r.end - r.start
    }

    /// Column indices of one row.
    #[inline]
    pub fn row_cols(&self, row: usize) -> &'a [u32] {
        &self.indices[self.row_range(row)]
    }

    /// Stored values of one row.
    #[inline]
    pub fn row_vals(&self, row: usize) -> &'a [f32] {
        &self.values[self.row_range(row)]
    }

    /// Iterator over `(col, value)` pairs of one row.
    pub fn row_iter(&self, row: usize) -> impl Iterator<Item = (usize, f32)> + 'a {
        self.row_cols(row)
            .iter()
            .zip(self.row_vals(row))
            .map(|(&c, &v)| (c as usize, v))
    }

    /// O(nnz) structural invariant check: `indptr` monotone non-decreasing,
    /// column indices `< cols` and sorted ascending within each row.
    ///
    /// One row-ordered pass that reads `indptr` and `indices` once. A
    /// matrix breaking several invariants is reported by the highest-ranked
    /// one — `indptr` before range before order — wherever each occurs, so
    /// a lower-ranked finding is held while the rows after it are checked
    /// for what outranks it. The reported row is the first, in row order,
    /// to break that invariant.
    ///
    /// Snapshot loaders run this once per mapped section instead of
    /// trusting the file; the parallel kernels rely on within-row
    /// sortedness for their column-window binary searches.
    pub fn validate_structure(&self) -> Result<()> {
        let mut held: Option<MatrixError> = None;
        let mut start = 0usize;
        for r in 0..self.rows {
            let end = self.indptr[r + 1];
            // `new` pinned the last pointer to `indices.len()`, so one above
            // it is followed by a decrease: the same violation, found early.
            if end < start || end > self.indices.len() {
                return Err(MatrixError::InvalidShape {
                    rows: self.rows,
                    cols: self.cols,
                    len: self.indices.len(),
                });
            }
            let row = &self.indices[start..end];
            start = end;
            if matches!(held, Some(MatrixError::IndexOutOfBounds { .. })) {
                continue;
            }
            let (mut prev, mut sorted) = (0u32, true);
            for &c in row {
                if c as usize >= self.cols {
                    held = Some(MatrixError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        shape: self.shape(),
                    });
                    break;
                }
                sorted &= c >= prev;
                prev = c;
            }
            if !sorted && held.is_none() {
                held = Some(MatrixError::UnsortedRow { row: r });
            }
        }
        held.map_or(Ok(()), Err)
    }

    /// Copies the view into an owned [`CsrMatrix`], re-validating the
    /// structural invariants on the way in.
    pub fn to_owned_matrix(&self) -> Result<CsrMatrix> {
        CsrMatrix::from_raw(
            self.rows,
            self.cols,
            self.indptr.to_vec(),
            self.indices.to_vec(),
            self.values.to_vec(),
        )
    }

    /// Materialises the transpose as an owned [`CsrMatrix`] (counting
    /// sort, identical to [`CsrMatrix::transpose`]).
    pub fn transpose_owned(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for idx in self.row_range(r) {
                let c = self.indices[idx] as usize;
                let pos = indptr[c];
                indices[pos] = r as u32;
                values[pos] = self.values[idx];
                indptr[c] += 1;
            }
        }
        CsrMatrix::from_parts(self.cols, self.rows, counts, indices, values)
    }

    /// Extracts the given rows (in order, duplicates allowed) as an owned
    /// `rows.len() × cols` CSR matrix. Mirrors [`CsrMatrix::gather_rows`].
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
            let range = self.row_range(r);
            indices.extend_from_slice(&self.indices[range.clone()]);
            values.extend_from_slice(&self.values[range]);
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_parts(
            rows.len(),
            self.cols,
            indptr,
            indices,
            values,
        ))
    }

    /// Sparse × dense product `self · rhs`. The kernel behind
    /// [`CsrMatrix::spmm`]; see there for the parallelism and determinism
    /// contract.
    pub fn spmm(&self, rhs: DenseView<'_>) -> Result<DenseMatrix> {
        if self.cols != rhs.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "spmm",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let f = rhs.cols();
        let mut out = DenseMatrix::zeros(self.rows, f);
        if f == 0 || self.rows == 0 {
            return Ok(out);
        }
        SPMM_CALLS.inc();
        SPMM_NNZ.add(self.nnz() as u64);
        let _span = sigma_obs::span!("spmm", self.nnz());
        let pool = ThreadPool::global();
        if pool.should_parallelize(self.nnz().saturating_mul(f)) {
            pool.par_row_blocks_mut_by_prefix(
                out.as_mut_slice(),
                f,
                self.indptr,
                |first_row, block| {
                    self.spmm_block(first_row, rhs, block);
                },
            );
        } else {
            self.spmm_block(0, rhs, out.as_mut_slice());
        }
        Ok(out)
    }

    /// Computes output rows `first_row ..` of `self · rhs` into `block`.
    fn spmm_block(&self, first_row: usize, rhs: DenseView<'_>, block: &mut [f32]) {
        let f = rhs.cols();
        for (i, out_row) in block.chunks_exact_mut(f).enumerate() {
            let r = first_row + i;
            for idx in self.row_range(r) {
                let c = self.indices[idx] as usize;
                kernels::axpy(out_row, self.values[idx], rhs.row(c));
            }
        }
    }

    /// Row-sliced sparse × dense product `self[rows, :] · rhs`. The kernel
    /// behind [`CsrMatrix::spmm_rows`]; see there for the cost model.
    pub fn spmm_rows(&self, rows: &[usize], rhs: DenseView<'_>) -> Result<DenseMatrix> {
        if self.cols != rhs.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "spmm_rows",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let f = rhs.cols();
        let mut out = DenseMatrix::zeros(rows.len(), f);
        let mut work = 0usize;
        for &r in rows {
            if r >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: 0,
                    shape: self.shape(),
                });
            }
            work = work.saturating_add(self.row_nnz(r));
        }
        if f == 0 || rows.is_empty() {
            return Ok(out);
        }
        SPMM_ROWS_CALLS.inc();
        SPMM_ROWS_ROWS.add(rows.len() as u64);
        let _span = sigma_obs::span!("spmm_rows", work);
        let slice_block = |first: usize, block: &mut [f32]| {
            for (i, out_row) in block.chunks_exact_mut(f).enumerate() {
                let r = rows[first + i];
                for idx in self.row_range(r) {
                    let c = self.indices[idx] as usize;
                    kernels::axpy(out_row, self.values[idx], rhs.row(c));
                }
            }
        };
        let pool = ThreadPool::global();
        if pool.should_parallelize(work.saturating_mul(f)) {
            // The planner weights (selected-row nnz) are only materialised
            // on the parallel path: small serving batches stay serial and
            // must not pay an allocation for a plan they will not use.
            let weights: Vec<usize> = rows.iter().map(|&r| self.row_nnz(r)).collect();
            pool.par_row_blocks_mut_weighted(out.as_mut_slice(), f, &weights, slice_block);
        } else {
            slice_block(0, out.as_mut_slice());
        }
        Ok(out)
    }

    /// Transposed sparse × dense product `selfᵀ · rhs`. The kernel behind
    /// [`CsrMatrix::spmm_transpose`]; see there for the parallelism and
    /// determinism contract.
    pub fn spmm_transpose(&self, rhs: DenseView<'_>) -> Result<DenseMatrix> {
        if self.rows != rhs.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "spmm_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let f = rhs.cols();
        let mut out = DenseMatrix::zeros(self.cols, f);
        if f == 0 || self.cols == 0 {
            return Ok(out);
        }
        SPMM_TRANSPOSE_CALLS.inc();
        SPMM_TRANSPOSE_NNZ.add(self.nnz() as u64);
        let _span = sigma_obs::span!("spmm_transpose", self.nnz());
        let pool = ThreadPool::global();
        if pool.should_parallelize(self.nnz().saturating_mul(f)) {
            // Each output row's work is its *column* count in `self`; one
            // O(nnz) histogram pass feeds the nnz-balanced planner so a few
            // super-popular columns do not serialise one thread.
            let mut col_nnz = vec![0usize; self.cols];
            for &c in self.indices {
                col_nnz[c as usize] += 1;
            }
            pool.par_row_blocks_mut_weighted(
                out.as_mut_slice(),
                f,
                &col_nnz,
                |first_col, block| {
                    let cols_in_block = block.len() / f;
                    let (c0, c1) = (first_col, first_col + cols_in_block);
                    for r in 0..self.rows {
                        let range = self.row_range(r);
                        let row_cols = &self.indices[range.clone()];
                        // Entries are sorted by column within a row: hoist
                        // the whole column window `[c0, c1)` out of the
                        // entry loop (two binary searches per row) instead
                        // of re-testing the upper bound per entry.
                        let lo = range.start + row_cols.partition_point(|&c| (c as usize) < c0);
                        let hi = range.start + row_cols.partition_point(|&c| (c as usize) < c1);
                        if lo == hi {
                            continue;
                        }
                        let rhs_row = rhs.row(r);
                        for idx in lo..hi {
                            let c = self.indices[idx] as usize;
                            let out_row = &mut block[(c - c0) * f..(c - c0 + 1) * f];
                            kernels::axpy(out_row, self.values[idx], rhs_row);
                        }
                    }
                },
            );
        } else {
            // Serial scatter. The scattered, cache-unfriendly writes punish
            // the 8-lane axpy's chunked shape here (the one spot it loses to
            // the scalar loop — the spmm_transpose single-thread regression
            // in BENCH_kernels.json), so this path keeps the plain indexed
            // loop; `kernels::axpy` is documented bit-identical to it, so
            // the parallel path above still matches bitwise.
            let out_slice = out.as_mut_slice();
            for r in 0..self.rows {
                let rhs_row = rhs.row(r);
                for idx in self.row_range(r) {
                    let c = self.indices[idx] as usize;
                    let v = self.values[idx];
                    let out_row = &mut out_slice[c * f..(c + 1) * f];
                    for j in 0..f {
                        out_row[j] += v * rhs_row[j];
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The name `MappedSnapshot::operator_view` returns, kept only so that
/// signature stays as the benchmark compiles against it; benchmark rev 2
/// retires it. Everything else names [`CsrView`].
pub type CsrViewAny<'a> = CsrView<'a>;

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
    fn borrowed_view_kernels_match_owned_bitwise() {
        // Slices the view does not share with `m`, as a mapped file's are.
        let m = sample();
        let (indptr, indices, values) = (
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.values().to_vec(),
        );
        let v = CsrView::new(3, 3, &indptr, &indices, &values).unwrap();
        v.validate_structure().unwrap();
        let x = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 + 0.25);
        for (owned, viewed) in [
            (m.spmm(&x).unwrap(), v.spmm(x.view()).unwrap()),
            (
                m.spmm_transpose(&x).unwrap(),
                v.spmm_transpose(x.view()).unwrap(),
            ),
            (
                m.spmm_rows(&[1, 0, 1], &x).unwrap(),
                v.spmm_rows(&[1, 0, 1], x.view()).unwrap(),
            ),
        ] {
            assert_eq!(owned.shape(), viewed.shape());
            for (a, b) in owned.as_slice().iter().zip(viewed.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(v.to_owned_matrix().unwrap(), m);
        assert_eq!(v.transpose_owned(), m.transpose());
        assert_eq!(v.gather_rows(&[1]).unwrap(), m.gather_rows(&[1]).unwrap());
    }

    #[test]
    fn view_construction_rejects_bad_shapes() {
        let (indptr, indices, values) = ([0usize, 1, 2, 2], [1u32, 0], [2.0f32, 1.0]);
        assert!(CsrView::new(3, 3, &indptr, &indices, &values).is_ok());
        // indptr too short for the row count.
        assert!(CsrView::new(4, 3, &indptr, &indices, &values).is_err());
        // endpoint disagrees with the index count.
        let bad_end = [0usize, 1, 2, 3];
        assert!(CsrView::new(3, 3, &bad_end, &indices, &values).is_err());
        // indices/values length mismatch.
        assert!(CsrView::new(3, 3, &indptr, &indices, &values[..1]).is_err());
    }

    #[test]
    fn validate_structure_catches_each_invariant() {
        // Non-monotone indptr.
        let v = CsrView::new(3, 3, &[0, 2, 1, 2], &[1, 0], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::InvalidShape { .. })
        ));
        // Column out of bounds, reported with the row it sits in.
        let v = CsrView::new(2, 2, &[0, 1, 2], &[0, 7], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::IndexOutOfBounds {
                row: 1,
                col: 7,
                shape: (2, 2)
            })
        ));
        // Unsorted columns within a row.
        let v = CsrView::new(1, 3, &[0, 2], &[2, 0], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::UnsortedRow { row: 0 })
        ));
    }

    #[test]
    fn validate_structure_ranks_indptr_before_range_before_order() {
        // Row 0 unsorted, row 2 out of range, row 3 unsorted: range wins,
        // with its own row.
        let indices = [2u32, 1, 0, 9, 3, 2];
        let values = [1.0f32; 6];
        let v = CsrView::new(4, 4, &[0, 2, 3, 4, 6], &indices, &values).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::IndexOutOfBounds { row: 2, col: 9, .. })
        ));
        // The same columns under an indptr that dips after them: indptr wins.
        let v = CsrView::new(4, 4, &[0, 2, 4, 3, 6], &indices, &values).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::InvalidShape { .. })
        ));
        // A pointer past the end is the same violation (it must come back
        // down to reach the pinned endpoint) and never slices out of bounds.
        let v = CsrView::new(4, 4, &[0, 2, 7, 7, 6], &indices, &values).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::InvalidShape { .. })
        ));
        // Only order broken: the first unsorted row is named.
        let indices = [1u32, 2, 0, 3, 3, 2];
        let v = CsrView::new(4, 4, &[0, 2, 3, 4, 6], &indices, &values).unwrap();
        assert!(matches!(
            v.validate_structure(),
            Err(MatrixError::UnsortedRow { row: 3 })
        ));
    }

    #[test]
    fn dense_view_matches_owned() {
        let d = DenseMatrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let v = d.view();
        assert_eq!(v.shape(), d.shape());
        assert_eq!(v.row(1), d.row(1));
        assert_eq!(
            v.select_rows(&[2, 0]).unwrap(),
            d.select_rows(&[2, 0]).unwrap()
        );
        assert_eq!(v.to_owned_matrix(), d);
        assert!(v.select_rows(&[3]).is_err());
    }
}
