//! The dense row-major matrix type everything else builds on.

use crate::error::LinalgError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the single numeric container used throughout the workspace; all
/// factorizations, descriptor systems and pencil transformations operate on it.
/// Vectors are represented as `n x 1` matrices.
///
/// ```
/// use ds_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = &a * &b;
/// assert_eq!(c, a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Inner-dimension block size of the cache-blocked matmul kernels: a band of
/// 32 rows of a 400-column `f64` matrix is ~100 KiB, comfortably inside L2.
const MATMUL_BLOCK: usize = 32;

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a column vector (an `n x 1` matrix) from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a row vector (a `1 x n` matrix) from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds a block-diagonal matrix from the given blocks.
    pub fn block_diag(blocks: &[&Matrix]) -> Self {
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut m = Matrix::zeros(rows, cols);
        let (mut r0, mut c0) = (0, 0);
        for b in blocks {
            m.set_block(r0, c0, b);
            r0 += b.rows;
            c0 += b.cols;
        }
        m
    }

    /// Builds a matrix from a 2x2 block layout `[[a, b], [c, d]]`.
    ///
    /// # Panics
    ///
    /// Panics if the block shapes are inconsistent.
    pub fn from_blocks_2x2(a: &Matrix, b: &Matrix, c: &Matrix, d: &Matrix) -> Self {
        assert_eq!(a.rows, b.rows, "top blocks must have equal row counts");
        assert_eq!(c.rows, d.rows, "bottom blocks must have equal row counts");
        assert_eq!(a.cols, c.cols, "left blocks must have equal column counts");
        assert_eq!(b.cols, d.cols, "right blocks must have equal column counts");
        let mut m = Matrix::zeros(a.rows + c.rows, a.cols + b.cols);
        m.set_block(0, 0, a);
        m.set_block(0, a.cols, b);
        m.set_block(a.rows, 0, c);
        m.set_block(a.rows, a.cols, d);
        m
    }

    /// Horizontally concatenates matrices (all must have the same row count).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(blocks: &[&Matrix]) -> Self {
        if blocks.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let rows = blocks[0].rows;
        assert!(blocks.iter().all(|b| b.rows == rows));
        let cols = blocks.iter().map(|b| b.cols).sum();
        let mut m = Matrix::zeros(rows, cols);
        let mut c0 = 0;
        for b in blocks {
            m.set_block(0, c0, b);
            c0 += b.cols;
        }
        m
    }

    /// Vertically concatenates matrices (all must have the same column count).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(blocks: &[&Matrix]) -> Self {
        if blocks.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = blocks[0].cols;
        assert!(blocks.iter().all(|b| b.cols == cols));
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut m = Matrix::zeros(rows, cols);
        let mut r0 = 0;
        for b in blocks {
            m.set_block(r0, 0, b);
            r0 += b.rows;
        }
        m
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix has zero rows or zero columns.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    ///
    /// Intended for the in-place (`_in`) kernels; the shape is not changed.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes the matrix to `rows x cols`, reusing the existing buffer.
    ///
    /// The contents after the call are unspecified (a mix of old data and
    /// zeros); every caller is expected to overwrite them.  No allocation
    /// happens when the buffer capacity already suffices.
    pub fn resize_uninit(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `src`, reusing the existing buffer when its
    /// capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_uninit(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites `self` with the `n x n` identity matrix, reusing the buffer.
    pub fn set_identity(&mut self, n: usize) {
        self.resize_uninit(n, n);
        self.data.fill(0.0);
        for i in 0..n {
            self.data[i * n + i] = 1.0;
        }
    }

    /// Returns the element at `(i, j)` or `None` when out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Extracts row `i` as a `1 x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> Matrix {
        assert!(i < self.rows, "row index out of bounds");
        Matrix::from_vec(
            1,
            self.cols,
            self.data[i * self.cols..(i + 1) * self.cols].to_vec(),
        )
    }

    /// Extracts column `j` as a `rows x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> Matrix {
        assert!(j < self.cols, "column index out of bounds");
        let mut v = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            v.push(self[(i, j)]);
        }
        Matrix::from_vec(self.rows, 1, v)
    }

    /// Extracts the contiguous block with rows `r0..r1` and columns `c0..c1`
    /// (half-open ranges).
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix dimensions or are reversed.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        let mut m = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            for j in c0..c1 {
                m[(i - r0, j - c0)] = self[(i, j)];
            }
        }
        m
    }

    /// Copies `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block does not fit at the requested position"
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Returns a matrix whose columns are the columns of `self` selected by
    /// `indices`, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, indices.len());
        for (k, &j) in indices.iter().enumerate() {
            assert!(j < self.cols, "column index out of bounds");
            for i in 0..self.rows {
                m[(i, k)] = self[(i, j)];
            }
        }
        m
    }

    /// The main diagonal as a vector of values.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    // ------------------------------------------------------------------
    // Elementary algebra
    // ------------------------------------------------------------------

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by `factor`, returning a new matrix.
    pub fn scale(&self, factor: f64) -> Matrix {
        self.map(|x| x * factor)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into a caller-provided output.
    ///
    /// `out` is reshaped to `self.rows x rhs.cols` (reusing its buffer when the
    /// capacity suffices) and fully overwritten, so a workspace matrix can be
    /// reused across calls without heap allocation in steady state.
    ///
    /// The kernel is cache-blocked over the inner dimension: a fixed band of
    /// `rhs` rows stays resident while all output rows accumulate its
    /// contribution.  Per output element the additions happen in the same
    /// (ascending-`k`) order as the unblocked row-slice kernel, so the result
    /// is bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        out.resize_uninit(self.rows, rhs.cols);
        crate::simd::wide(
            #[inline(always)]
            || matmul_body(self, rhs, out),
        );
        Ok(())
    }

    /// `selfᵀ * rhs` without forming the transpose explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// `selfᵀ * rhs` written into a caller-provided output (see
    /// [`Matrix::matmul_into`] for the reuse and blocking contract).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn transpose_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "transpose_matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        out.resize_uninit(self.cols, rhs.cols);
        crate::simd::wide(
            #[inline(always)]
            || transpose_matmul_body(self, rhs, out),
        );
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "add",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn try_sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "sub",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    // ------------------------------------------------------------------
    // Norms and structural predicates
    // ------------------------------------------------------------------

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (the max norm).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
    }

    /// Returns `true` when `self` is symmetric to within `tol`
    /// (absolute tolerance on each entry pair).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when `self` is skew-symmetric to within `tol`.
    pub fn is_skew_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if (self[(i, j)] + self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when every entry differs from the corresponding entry of
    /// `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// The symmetric part `(self + selfᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetric_part(&self) -> Matrix {
        assert!(self.is_square(), "symmetric_part requires a square matrix");
        let t = self.transpose();
        self.try_add(&t).expect("shapes match").scale(0.5)
    }

    /// The skew-symmetric part `(self - selfᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn skew_part(&self) -> Matrix {
        assert!(self.is_square(), "skew_part requires a square matrix");
        let t = self.transpose();
        self.try_sub(&t).expect("shapes match").scale(0.5)
    }

    /// Dot product of two vectors stored as `n x 1` (or `1 x n`) matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the element counts differ.
    pub fn dot(&self, rhs: &Matrix) -> Result<f64, LinalgError> {
        if self.data.len() != rhs.data.len() {
            return Err(LinalgError::ShapeMismatch {
                operation: "dot",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }
}

/// Body of [`Matrix::matmul_into`] (`out` already shaped `a.rows × b.cols`),
/// run through [`crate::simd::wide`].
#[inline(always)]
pub(crate) fn matmul_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, n, p) = (a.rows, a.cols, b.cols);
    out.data.fill(0.0);
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + MATMUL_BLOCK).min(n);
        for i in 0..m {
            let band = a.data[i * n + k0..i * n + k1].iter().zip(k0..);
            let terms = band
                .filter(|(&aik, _)| aik != 0.0)
                .map(|(&aik, k)| (aik, k * p, p));
            add_scaled_rows(&mut out.data[i * p..(i + 1) * p], &b.data, terms);
        }
        k0 = k1;
    }
}

/// Body of [`Matrix::transpose_matmul_into`] (`out` already shaped
/// `a.cols × b.cols`), run through [`crate::simd::wide`].
#[inline(always)]
pub(crate) fn transpose_matmul_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, n, p) = (a.rows, a.cols, b.cols);
    out.data.fill(0.0);
    // Block over the output rows: the resident output band accumulates the
    // full ascending-`k` sweep, four rows of `b` at a time, before moving on,
    // which keeps the additions in the exact order of the unblocked kernel.
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + MATMUL_BLOCK).min(n);
        let mut k0 = 0;
        while k0 < m {
            let k1 = (k0 + 4).min(m);
            for i in i0..i1 {
                let terms = (k0..k1)
                    .map(|k| (a.data[k * n + i], k * p, p))
                    .filter(|&(aki, _, _)| aki != 0.0);
                add_scaled_rows(&mut out.data[i * p..(i + 1) * p], &b.data, terms);
            }
            k0 = k1;
        }
        i0 = i1;
    }
}

/// `out[..len] += c·src[start..][..len]` for each `(c, start, len)` of
/// `terms`, in order; `len` must not decrease from term to term.
///
/// Four terms share one pass over `out`, each element still adding the
/// terms that reach it one at a time in order, so the bits are those of one
/// pass per term with a quarter of the loads and stores of `out`.
#[inline(always)]
pub(crate) fn add_scaled_rows(
    out: &mut [f64],
    src: &[f64],
    terms: impl IntoIterator<Item = (f64, usize, usize)>,
) {
    let mut quad = [(0.0, 0, 0); 4];
    let mut len = 0;
    for term in terms {
        quad[len] = term;
        len += 1;
        if len < 4 {
            continue;
        }
        len = 0;
        let [(c0, s0, l0), (c1, s1, l1), (c2, s2, l2), (c3, s3, l3)] = quad;
        let (r0, r1, r2, r3) = (
            &src[s0..][..l0],
            &src[s1..][..l1],
            &src[s2..][..l2],
            &src[s3..][..l3],
        );
        {
            let (o, r0, r1, r2, r3) = (&mut out[..l0], &r0[..l0], &r1[..l0], &r2[..l0], &r3[..l0]);
            for j in 0..l0 {
                o[j] = o[j] + c0 * r0[j] + c1 * r1[j] + c2 * r2[j] + c3 * r3[j];
            }
        }
        for j in l0..l1 {
            out[j] = out[j] + c1 * r1[j] + c2 * r2[j] + c3 * r3[j];
        }
        for j in l1..l2 {
            out[j] = out[j] + c2 * r2[j] + c3 * r3[j];
        }
        for j in l2..l3 {
            out[j] += c3 * r3[j];
        }
    }
    for &(c, start, l) in &quad[..len] {
        for (o, &r) in out[..l].iter_mut().zip(&src[start..][..l]) {
            *o += c * r;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("shape mismatch in `+`")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs).expect("shape mismatch in `-`")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("shape mismatch in `*`")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn from_fn_matches_closure() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m[(2, 1)], 7.0);
    }

    #[test]
    fn indexing_and_rows_cols() {
        let m = sample();
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m.row(1), Matrix::row_vector(&[4.0, 5.0, 6.0]));
        assert_eq!(m.col(0), Matrix::column(&[1.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_panics() {
        let m = sample();
        let _ = m[(5, 0)];
    }

    #[test]
    fn get_returns_none_out_of_bounds() {
        let m = sample();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let m = sample();
        let twice = &m + &m;
        assert_eq!(twice, m.scale(2.0));
        let zero = &m - &m;
        assert_eq!(zero.norm_fro(), 0.0);
        assert_eq!((&m * 3.0)[(1, 2)], 18.0);
        assert_eq!((-&m)[(0, 0)], -1.0);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        // a is 2x3 so aᵀ is 3x2 — need rhs with 2 rows.
        let rhs = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let fast = a.transpose_matmul(&rhs).unwrap();
        let slow = &a.transpose() * &rhs;
        assert!(fast.approx_eq(&slow, 1e-14));
        let _ = b; // silence unused helper
    }

    #[test]
    fn block_and_set_block() {
        let m = sample();
        let blk = m.block(0, 2, 1, 3);
        assert_eq!(blk, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
        let mut z = Matrix::zeros(3, 3);
        z.set_block(1, 1, &Matrix::identity(2));
        assert_eq!(z[(1, 1)], 1.0);
        assert_eq!(z[(2, 2)], 1.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn stack_operations() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(2, 1);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (2, 3));
        let v = Matrix::vstack(&[&a, &Matrix::zeros(1, 2)]);
        assert_eq!(v.shape(), (3, 2));
        let d = Matrix::block_diag(&[&a, &Matrix::filled(1, 1, 5.0)]);
        assert_eq!(d.shape(), (3, 3));
        assert_eq!(d[(2, 2)], 5.0);
        assert_eq!(d[(0, 2)], 0.0);
    }

    #[test]
    fn from_blocks_2x2_layout() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(2, 1);
        let c = Matrix::zeros(1, 2);
        let d = Matrix::filled(1, 1, 7.0);
        let m = Matrix::from_blocks_2x2(&a, &b, &c, &d);
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m[(2, 2)], 7.0);
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    fn select_columns_in_order() {
        let m = sample();
        let c = m.select_columns(&[2, 0]);
        assert_eq!(c, Matrix::from_rows(&[&[3.0, 1.0], &[6.0, 4.0]]));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn symmetry_predicates() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        assert!(s.is_symmetric(0.0));
        assert!(!s.is_skew_symmetric(1e-12));
        let k = Matrix::from_rows(&[&[0.0, 2.0], &[-2.0, 0.0]]);
        assert!(k.is_skew_symmetric(0.0));
        assert!(!k.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn symmetric_and_skew_parts_sum_back() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[5.0, -1.0]]);
        let sum = &m.symmetric_part() + &m.skew_part();
        assert!(sum.approx_eq(&m, 1e-15));
        assert!(m.symmetric_part().is_symmetric(1e-15));
        assert!(m.skew_part().is_skew_symmetric(1e-15));
    }

    #[test]
    fn dot_product() {
        let a = Matrix::column(&[1.0, 2.0, 3.0]);
        let b = Matrix::column(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Matrix::column(&[1.0])).is_err());
    }

    #[test]
    fn diag_and_diagonal() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn display_contains_dimensions() {
        let text = format!("{}", Matrix::identity(2));
        assert!(text.contains("2x2"));
    }

    #[test]
    fn empty_matrix() {
        let e = Matrix::zeros(0, 3);
        assert!(e.is_empty());
        let h = Matrix::hstack(&[]);
        assert!(h.is_empty());
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Matrix::from_fn(37, 53, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(53, 41, |i, j| ((i * 5 + j * 13) % 9) as f64 * 0.25 - 1.0);
        let mut out = Matrix::zeros(64, 64); // wrong shape on purpose
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Second call with a correctly shaped buffer must also be exact.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        assert!(a.matmul_into(&a, &mut out).is_err());
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_reference() {
        // Reference kernel: the plain i-k-j row-slice loop the blocked kernel
        // must reproduce bit for bit (same per-element addition order, same
        // skipped zeros), on dense input, input with exact zeros of either
        // sign, and input with an infinity and a NaN.
        let n = 70; // larger than one block so the blocking actually kicks in
        for kind in 0..3 {
            let entry = |i: usize, j: usize, salt: usize| -> f64 {
                let v = ((i * 31 + j * 17 + salt) % 23) as f64 / 7.0 - 1.5;
                match (kind, (i * 7 + j * 3 + salt) % 5) {
                    (1, 0 | 1) => 0.0,
                    (1, 2) => -0.0,
                    (2, _) if (i, j) == (40, 3 + salt % 2) => f64::NAN,
                    (2, _) if (i, j) == (5, 60 + salt % 2) => f64::INFINITY,
                    _ => v,
                }
            };
            let a = Matrix::from_fn(n, n, |i, j| entry(i, j, 0));
            let b = Matrix::from_fn(n, n + 3, |i, j| entry(i, j, 1));
            let mut reference = Matrix::zeros(n, n + 3);
            for i in 0..n {
                for k in 0..n {
                    let aik = a[(i, k)];
                    if aik == 0.0 {
                        continue;
                    }
                    for j in 0..n + 3 {
                        reference[(i, j)] += aik * b[(k, j)];
                    }
                }
            }
            let fast = a.matmul(&b).unwrap();
            assert_same_bits(fast.as_slice(), reference.as_slice());
            let mut tref = Matrix::zeros(n, n + 3);
            for k in 0..n {
                for i in 0..n {
                    let aki = a[(k, i)];
                    if aki == 0.0 {
                        continue;
                    }
                    for j in 0..n + 3 {
                        tref[(i, j)] += aki * b[(k, j)];
                    }
                }
            }
            let tfast = a.transpose_matmul(&b).unwrap();
            assert_same_bits(tfast.as_slice(), tref.as_slice());
        }
    }

    #[test]
    fn scaled_rows_match_one_pass_per_term_bit_for_bit() {
        // The loop `add_scaled_rows` replaced: one pass over `out[..len]` per
        // term.  Rows of equal length (the matmul kernels), and rows of a
        // lower triangle with gaps between them (the LDLᵀ inverse), on data
        // with zeros of either sign, an infinity and a NaN.
        let n = 41;
        let mut src = Matrix::from_fn(n, n, |i, j| match (i * 7 + j * 3) % 11 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f64 - 5.5) * 10f64.powi((i % 5) as i32 - 2),
        });
        src[(30, 4)] = f64::NAN;
        src[(12, 2)] = f64::INFINITY;
        for count in 0..=9 {
            for triangle in [false, true] {
                // Ascending rows with gaps, coefficients of either sign.
                let terms: Vec<(f64, usize, usize)> = (0..count)
                    .map(|t| {
                        let k = 2 + t * 4 + t % 3;
                        let len = if triangle { k + 1 } else { n };
                        (0.75 - 0.4 * t as f64, k * n, len)
                    })
                    .collect();
                let mut fast = vec![1.5; n];
                add_scaled_rows(&mut fast, src.as_slice(), terms.iter().copied());
                let mut former = vec![1.5; n];
                for &(c, start, len) in &terms {
                    for (o, &r) in former[..len].iter_mut().zip(&src.as_slice()[start..]) {
                        *o += c * r;
                    }
                }
                assert_same_bits(&fast, &former);
            }
        }
    }

    /// Bit equality, except that any two NaNs match.
    fn assert_same_bits(x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        for (k, (a, b)) in x.iter().zip(y).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "entry {k}: {a:e} vs {b:e}"
            );
        }
    }

    #[test]
    fn copy_from_and_set_identity_reuse() {
        let src = sample();
        let mut dst = Matrix::zeros(1, 1);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.set_identity(3);
        assert_eq!(dst, Matrix::identity(3));
        dst.resize_uninit(2, 2);
        assert_eq!(dst.shape(), (2, 2));
    }
}
