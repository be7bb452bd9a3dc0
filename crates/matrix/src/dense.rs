use crate::{kernels, MatrixError, Result};
use sigma_parallel::ThreadPool;

/// A row-major dense `f32` matrix.
///
/// `DenseMatrix` is the workhorse container for node features, hidden
/// representations, MLP weights and gradients throughout the SIGMA
/// reproduction. It deliberately exposes a small, allocation-conscious API:
/// in-place element-wise updates, GEMM variants needed by manual
/// backpropagation (`A·B`, `Aᵀ·B`, `A·Bᵀ`), and the reductions used by the
/// training loop (row argmax, norms, means). The three GEMM variants are
/// parallelised over disjoint output-row ranges on the shared
/// [`sigma_parallel::ThreadPool`]; every output element keeps the serial
/// accumulation order, so results are bitwise identical to the serial path
/// at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// Returns [`MatrixError::InvalidShape`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidShape {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(MatrixError::InvalidShape {
                    rows: rows.len(),
                    cols,
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// A borrowed [`crate::DenseView`] over this matrix's storage, for the
    /// view-first kernel API shared with memory-mapped snapshot sections.
    #[inline]
    pub fn view(&self) -> crate::DenseView<'_> {
        crate::DenseView::new(self.rows, self.cols, &self.data)
            .expect("owned storage is shape-consistent")
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

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the index is out of bounds (an internal invariant
    /// violation in the caller).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterator over row slices.
    fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Sets every element to zero (keeps the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        self.check_same_shape("add_assign", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        self.check_same_shape("sub_assign", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
        Ok(())
    }

    /// `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, alpha: f32, other: &DenseMatrix) -> Result<()> {
        self.check_same_shape("add_scaled", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Element-wise (Hadamard) product in place: `self[i] *= other[i]`.
    pub fn hadamard_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        self.check_same_shape("hadamard_assign", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
        Ok(())
    }

    /// Returns `alpha * self + beta * other` as a new matrix.
    pub fn linear_combination(
        &self,
        alpha: f32,
        beta: f32,
        other: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        self.check_same_shape("linear_combination", other)?;
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| alpha * a + beta * b)
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Dense GEMM: returns `self · other`.
    ///
    /// Output-row blocks run in parallel on the shared pool; each row keeps
    /// the serial i-k-j accumulation order (bitwise-identical results).
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return Ok(out);
        }
        let oc = other.cols;
        let block_fn = |first_row: usize, block: &mut [f32]| {
            // i-k-j loop order: streams through `other` row-by-row for
            // locality; the inner update is the 8-lane axpy (element-wise,
            // bit-exact at any vector width).
            for (i, out_row) in block.chunks_exact_mut(oc).enumerate() {
                let r = first_row + i;
                for k in 0..self.cols {
                    let a = self.data[r * self.cols + k];
                    if a == 0.0 {
                        continue;
                    }
                    kernels::axpy(out_row, a, &other.data[k * oc..(k + 1) * oc]);
                }
            }
        };
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(other.cols);
        let pool = ThreadPool::global();
        if pool.should_parallelize(work) {
            pool.par_row_blocks_mut(out.as_mut_slice(), oc, block_fn);
        } else {
            block_fn(0, out.as_mut_slice());
        }
        Ok(out)
    }

    /// Returns `selfᵀ · other`. Used for weight gradients (`dW = Xᵀ·dY`).
    ///
    /// The serial path scatters row-by-row; the parallel path partitions the
    /// *output* rows (columns of `self`) so writes stay disjoint. For a fixed
    /// output row both accumulate over input rows in ascending order, so the
    /// results are bitwise identical.
    pub fn matmul_transpose_self(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul_transpose_self",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return Ok(out);
        }
        let oc = other.cols;
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(other.cols);
        let pool = ThreadPool::global();
        if pool.should_parallelize(work) {
            pool.par_row_blocks_mut(out.as_mut_slice(), oc, |first_k, block| {
                for r in 0..self.rows {
                    let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
                    let b_row = &other.data[r * oc..(r + 1) * oc];
                    for (i, out_row) in block.chunks_exact_mut(oc).enumerate() {
                        let a = a_row[first_k + i];
                        if a == 0.0 {
                            continue;
                        }
                        kernels::axpy(out_row, a, b_row);
                    }
                }
            });
        } else {
            for r in 0..self.rows {
                let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
                let b_row = &other.data[r * oc..(r + 1) * oc];
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    kernels::axpy(&mut out.data[k * oc..(k + 1) * oc], a, b_row);
                }
            }
        }
        Ok(out)
    }

    /// Returns `self · otherᵀ`. Used for input gradients (`dX = dY·Wᵀ`).
    ///
    /// Each output row is an independent set of dot products computed with
    /// [`kernels::dot`] — the canonical 8-lane reduction order, a pure
    /// function of the operands that is identical at every thread count and
    /// for every compiler vectorisation choice (it is *not* the historical
    /// left-to-right sum; see the `kernels` module docs). Row blocks run in
    /// parallel with identical per-element accumulation order.
    pub fn matmul_transpose_other(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul_transpose_other",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.rows);
        if self.rows == 0 || other.rows == 0 {
            return Ok(out);
        }
        let or = other.rows;
        let block_fn = |first_row: usize, block: &mut [f32]| {
            for (i, out_row) in block.chunks_exact_mut(or).enumerate() {
                let r = first_row + i;
                let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &other.data[j * other.cols..(j + 1) * other.cols];
                    *o = kernels::dot(a_row, b_row);
                }
            }
        };
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(other.rows);
        let pool = ThreadPool::global();
        if pool.should_parallelize(work) {
            pool.par_row_blocks_mut(out.as_mut_slice(), or, block_fn);
        } else {
            block_fn(0, out.as_mut_slice());
        }
        Ok(out)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Horizontally concatenates `self` and `other` (same row count).
    pub fn hconcat(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "hconcat",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut out = DenseMatrix::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.data[i * cols..i * cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * cols + self.cols..(i + 1) * cols].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Returns a new matrix containing the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Result<DenseMatrix> {
        self.view().select_rows(indices)
    }

    /// Index of the maximum value in each row (ties resolved to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Euclidean distance between two rows of this matrix.
    pub fn row_distance(&self, a: usize, b: usize) -> f32 {
        self.row(a)
            .iter()
            .zip(self.row(b).iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns true if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Row-wise softmax, returned as a new matrix.
    ///
    /// Numerically stabilised by subtracting the per-row maximum.
    pub fn softmax_rows(&self) -> DenseMatrix {
        let mut out = self.clone();
        for i in 0..out.rows {
            let row = out.row_mut(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    fn check_same_shape(&self, op: &'static str, other: &DenseMatrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = DenseMatrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r1: &[f32] = &[1.0, 2.0];
        let r2: &[f32] = &[3.0];
        assert!(DenseMatrix::from_rows(&[r1, r2]).is_err());
    }

    #[test]
    fn matmul_small_known_result() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let i = DenseMatrix::identity(3);
        let c = a.matmul(&i).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_matmul_variants_agree() {
        let a = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.5 - 1.0);
        let b = DenseMatrix::from_fn(4, 5, |i, j| (i + j) as f32 * 0.25);
        let direct = a.transpose().matmul(&b).unwrap();
        let fused = a.matmul_transpose_self(&b).unwrap();
        assert_eq!(direct.shape(), fused.shape());
        for (x, y) in direct.as_slice().iter().zip(fused.as_slice()) {
            assert!(approx_eq(*x, *y));
        }

        let c = DenseMatrix::from_fn(5, 3, |i, j| (2 * i + j) as f32 * 0.1);
        let direct2 = a.matmul(&c.transpose()).unwrap();
        let fused2 = a.matmul_transpose_other(&c).unwrap();
        for (x, y) in direct2.as_slice().iter().zip(fused2.as_slice()) {
            assert!(approx_eq(*x, *y));
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = DenseMatrix::from_fn(3, 5, |i, j| (i * 7 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_scaled() {
        let mut a = DenseMatrix::filled(2, 2, 1.0);
        let b = DenseMatrix::filled(2, 2, 2.0);
        a.add_assign(&b).unwrap();
        assert!(a.as_slice().iter().all(|&v| v == 3.0));
        a.sub_assign(&b).unwrap();
        assert!(a.as_slice().iter().all(|&v| v == 1.0));
        a.add_scaled(0.5, &b).unwrap();
        assert!(a.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn hadamard() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[2.0, 0.5], &[1.0, 0.25]]).unwrap();
        a.hadamard_assign(&b).unwrap();
        assert_eq!(a.row(0), &[2.0, 1.0]);
        assert_eq!(a.row(1), &[3.0, 1.0]);
    }

    #[test]
    fn linear_combination_matches_manual() {
        let a = DenseMatrix::filled(2, 3, 2.0);
        let b = DenseMatrix::filled(2, 3, 4.0);
        let c = a.linear_combination(0.5, 0.25, &b).unwrap();
        assert!(c.as_slice().iter().all(|&v| approx_eq(v, 2.0)));
    }

    #[test]
    fn hconcat_shapes_and_content() {
        let a = DenseMatrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn select_rows_and_bounds() {
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let s = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
        assert!(a.select_rows(&[5]).is_err());
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = DenseMatrix::from_rows(&[&[0.1, 0.9, 0.9], &[2.0, 1.0, -1.0]]).unwrap();
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn norms_and_distances() {
        let a = DenseMatrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]).unwrap();
        assert!(approx_eq(a.frobenius_norm(), 5.0));
        assert!(approx_eq(a.row_distance(0, 1), 5.0));
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]).unwrap();
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!(approx_eq(sum, 1.0));
            assert!(s.row(i).iter().all(|&v| v > 0.0 && v < 1.0));
        }
        // Softmax is monotone: ordering preserved.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = DenseMatrix::from_rows(&[&[1000.0, 1001.0]]).unwrap();
        let s = a.softmax_rows();
        assert!(s.is_finite());
        assert!(approx_eq(s.row(0).iter().sum::<f32>(), 1.0));
    }

    #[test]
    fn map_and_scale() {
        let mut a = DenseMatrix::filled(2, 2, -2.0);
        let b = a.map(|v| v.abs());
        assert!(b.as_slice().iter().all(|&v| v == 2.0));
        a.scale(0.5);
        assert!(a.as_slice().iter().all(|&v| v == -1.0));
    }

    #[test]
    fn mean_and_sum() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(approx_eq(a.sum(), 10.0));
        assert!(approx_eq(a.mean(), 2.5));
        assert_eq!(DenseMatrix::zeros(0, 0).mean(), 0.0);
    }
}
