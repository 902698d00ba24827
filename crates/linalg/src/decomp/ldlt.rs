//! Bunch–Kaufman `LDLᵀ` factorization of symmetric indefinite matrices and
//! the symmetric inverse built on it.
//!
//! `P A Pᵀ = L D Lᵀ` with `L` unit lower triangular, `D` block diagonal with
//! 1×1 and 2×2 blocks, and `P` the symmetric permutation chosen by the
//! Bunch–Kaufman partial pivoting rule (J. R. Bunch and L. Kaufman, "Some
//! stable methods for calculating inertia and solving symmetric linear
//! systems", Math. Comp. 31, 1977).  Only the lower triangle of the input is
//! read.  The factorization costs `n³/3` flops and the inverse another
//! `2n³/3`, half of the `2n³` an LU-based inverse spends, and the inverse
//! comes out exactly symmetric.

use crate::error::LinalgError;
use crate::matrix::{add_scaled_rows, Matrix};

/// Bunch–Kaufman's pivoting constant `α = (1 + √17)/8`, which minimizes the
/// bound on element growth.
const ALPHA: f64 = 0.640_388_203_202_208_4;

/// Order from which [`Ldlt::conjugated_inverse_into`] runs its triangular
/// products register-blocked.  Below it the per-block coefficient scans and
/// partial accumulations cost more than the shared loads save: on `J·H` of
/// random Hamiltonians (2×2 pivots, AVX2 instance) the unblocked products
/// were faster at orders 16–112 in most of ten alternating pairs, about
/// even at 128, and slower from 144 on.
pub(crate) const BLOCKED_INVERSE_MIN_DIM: usize = 128;

/// Bunch–Kaufman factorization `P A Pᵀ = L D Lᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct Ldlt {
    /// `L` in the strictly lower triangle (unit diagonal implied; zero at
    /// `(k+1, k)` inside a 2×2 block).  The upper triangle is scratch.
    pub l: Matrix,
    /// Diagonal of `D`.
    pub d: Vec<f64>,
    /// Subdiagonal of `D`: `e[k] = D[k+1][k]` when rows `k, k+1` form a 2×2
    /// block, `0` otherwise.
    pub e: Vec<f64>,
    /// Symmetric permutation: row `i` of `P A Pᵀ` is row `perm[i]` of `A`.
    pub perm: Vec<usize>,
    /// `true` when a pivot (a 1×1 block, or the smaller eigenvalue of a 2×2
    /// block) fell to `ε·n·max(1, ‖A‖max)` or below — the threshold
    /// [`crate::decomp::lu::factor_into`] applies to its pivots — or a 1×1
    /// pivot is NaN.
    pub singular: bool,
}

impl Ldlt {
    /// An empty factorization, used as reusable storage for [`factor_into`].
    pub fn empty() -> Ldlt {
        Ldlt {
            l: Matrix::zeros(0, 0),
            d: Vec::new(),
            e: Vec::new(),
            perm: Vec::new(),
            singular: false,
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// `J·A⁻¹·J` for an even order `2h`, with `J = [[0, I], [−I, 0]]`, into
    /// `x`, with `scratch` as an `n × n` work matrix (both are reshaped and
    /// fully overwritten; their buffers may trade places, so no allocation
    /// happens in steady state).  The result is exactly symmetric.
    ///
    /// From order 128 the two triangular products run register-blocked,
    /// four rows at a time, and every element still adds its terms one at a
    /// time in the order of [`Ldlt::inverse_unblocked_into`]; the permuting
    /// scatter then writes each entry of `A⁻¹` straight to its conjugated
    /// place, negated where row and column fall in the same half.  At every
    /// order the bits are therefore those of the reference inverse
    /// conjugated by `J`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the factorization flagged a
    /// pivot and [`LinalgError::InvalidInput`] for an odd order.
    pub fn conjugated_inverse_into(
        &self,
        x: &mut Matrix,
        scratch: &mut Matrix,
    ) -> Result<(), LinalgError> {
        self.checked()?;
        if !self.dim().is_multiple_of(2) {
            return Err(LinalgError::invalid_input(
                "ldlt::conjugated_inverse needs an even order",
            ));
        }
        let blocked = self.dim() >= BLOCKED_INVERSE_MIN_DIM;
        crate::simd::wide(
            #[inline(always)]
            || self.inverse_body(x, scratch, blocked, true),
        );
        Ok(())
    }

    /// The exactly symmetric inverse `A⁻¹ = Pᵀ L⁻ᵀ D⁻¹ L⁻¹ P` into `x`
    /// through the unblocked products, with `scratch` as for
    /// [`Ldlt::conjugated_inverse_into`]: the reference its blocked kernel is
    /// tested against.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the factorization flagged a
    /// pivot.
    pub fn inverse_unblocked_into(
        &self,
        x: &mut Matrix,
        scratch: &mut Matrix,
    ) -> Result<(), LinalgError> {
        self.checked()?;
        crate::simd::wide(
            #[inline(always)]
            || self.inverse_body(x, scratch, false, false),
        );
        Ok(())
    }

    fn checked(&self) -> Result<(), LinalgError> {
        if self.singular {
            return Err(LinalgError::Singular {
                operation: "ldlt::inverse",
            });
        }
        Ok(())
    }

    /// Body of the inverse entry points for a factorization with no flagged
    /// pivot, run through [`crate::simd::wide`]: `blocked` selects the
    /// register-blocked products, `conjugate` writes `J·A⁻¹·J`.
    #[inline(always)]
    pub(crate) fn inverse_body(
        &self,
        x: &mut Matrix,
        scratch: &mut Matrix,
        blocked: bool,
        conjugate: bool,
    ) {
        let n = self.dim();
        scratch.resize_uninit(n, n);
        x.resize_uninit(n, n);
        // scratch ← M = L⁻¹ (unit lower triangular).
        unit_lower_inverse(self.l.as_slice(), scratch.as_mut_slice(), n, blocked);
        // x ← Mᵀ in its strict upper triangle: row i then holds column i of
        // M, the coefficients its own lower half is accumulated from below.
        {
            let md = scratch.as_slice();
            let xd = x.as_mut_slice();
            for i in 0..n {
                for k in (i + 1)..n {
                    xd[i * n + k] = md[k * n + i];
                }
            }
        }
        // scratch ← W = D⁻¹ M, block row by block row; row k of W is only
        // ever read on columns ≤ k.
        {
            let md = scratch.as_mut_slice();
            let mut k = 0;
            while k < n {
                if self.e[k] == 0.0 {
                    let inv = 1.0 / self.d[k];
                    for w in md[k * n..=k * n + k].iter_mut() {
                        *w *= inv;
                    }
                    k += 1;
                } else {
                    // D⁻¹ = t·[[c/b, −1], [−1, a/b]] with t = b/(ac − b²),
                    // in the overflow-safe form the factorization used.
                    let (a, b, c) = (self.d[k], self.e[k], self.d[k + 1]);
                    let d11 = c / b;
                    let d22 = a / b;
                    let t = 1.0 / ((d11 * d22 - 1.0) * b);
                    let (head, tail) = md.split_at_mut((k + 1) * n);
                    let row_k = &mut head[k * n..k * n + k + 1];
                    let row_k1 = &mut tail[..k + 2];
                    for (wk, wk1) in row_k.iter_mut().zip(row_k1.iter_mut()) {
                        let (mk, mk1) = (*wk, *wk1);
                        *wk = t * (d11 * mk - mk1);
                        *wk1 = t * (d22 * mk1 - mk);
                    }
                    // M[k][k+1] = 0 and M[k+1][k+1] = 1.
                    row_k1[k + 1] = t * d22;
                    k += 2;
                }
            }
        }
        // x's lower triangle ← Mᵀ W.
        lower_product(x.as_mut_slice(), scratch.as_slice(), n, blocked);
        // A⁻¹[perm[i]][perm[j]] = X[i][j]: scatter the lower triangle into
        // both triangles of the spent scratch, then hand it over as x.  For
        // J·A⁻¹·J, entry (p, q) of A⁻¹ lands at (σp, σq), σ swapping the
        // halves, negated when p and q share a half.
        {
            let half = n / 2;
            let place = |p: usize| match (conjugate, p < half) {
                (false, _) => p,
                (true, true) => p + half,
                (true, false) => p - half,
            };
            let xd = x.as_slice();
            let od = scratch.as_mut_slice();
            for i in 0..n {
                let pi = self.perm[i];
                let di = place(pi);
                for j in 0..=i {
                    let pj = self.perm[j];
                    let dj = place(pj);
                    let v = xd[i * n + j];
                    let v = if conjugate && (pi < half) == (pj < half) {
                        -v
                    } else {
                        v
                    };
                    od[di * n + dj] = v;
                    od[dj * n + di] = v;
                }
            }
        }
        std::mem::swap(x, scratch);
    }
}

/// Four rows of `C` accumulators for the register-blocked triangular
/// products.
struct Rows4<const C: usize>([[f64; C]; 4]);

impl<const C: usize> Rows4<C> {
    /// Loads `C` entries of `data` from each of the four `starts`.
    #[inline(always)]
    fn load(data: &[f64], starts: [usize; 4]) -> Self {
        Rows4(starts.map(|s| {
            let mut row = [0.0; C];
            row.copy_from_slice(&data[s..s + C]);
            row
        }))
    }

    #[inline(always)]
    fn store(&self, data: &mut [f64], starts: [usize; 4]) {
        for (row, s) in self.0.iter().zip(starts) {
            data[s..s + C].copy_from_slice(row);
        }
    }

    /// `row r += c_r[t]·src_t[j0..j0 + C]` for each term `t` in order, where
    /// `src` holds the terms' rows back to back (stride `n`) and every
    /// coefficient is nonzero: the four rows share each load of `src`.
    #[inline(always)]
    fn add_terms(&mut self, coefs: [&[f64]; 4], src: &[f64], n: usize, j0: usize) {
        let [c0, c1, c2, c3] = coefs;
        let [a0, a1, a2, a3] = &mut self.0;
        let terms = src.chunks_exact(n).zip(c0).zip(c1).zip(c2).zip(c3);
        for ((((row, &x0), &x1), &x2), &x3) in terms {
            let s = &row[j0..j0 + C];
            for v in 0..C {
                a0[v] += x0 * s[v];
                a1[v] += x1 * s[v];
                a2[v] += x2 * s[v];
                a3[v] += x3 * s[v];
            }
        }
    }
}

/// `md ← M = L⁻¹` for the unit lower triangular `L` in `ld`'s strict lower
/// triangle, rows top-down: row i of `M` is `−Σ_{k<i} L[i][k]·M[k]` over
/// the nonzero `L[i][k]` in ascending `k`, with `M[i][i] = 1`.
///
/// `blocked` takes rows four at a time: on full column blocks left of the
/// block's first row, whose terms are the finished rows above it, the four
/// rows share each term's load when their coefficients are all nonzero.
/// Every element still adds the same terms one at a time in ascending `k`.
#[inline(always)]
fn unit_lower_inverse(ld: &[f64], md: &mut [f64], n: usize, blocked: bool) {
    let mut i0 = 0;
    while blocked && i0 + 4 <= n {
        let rows = [i0, i0 + 1, i0 + 2, i0 + 3].map(|i| i * n);
        let dense = rows
            .iter()
            .all(|&row| ld[row..row + i0].iter().all(|&c| c != 0.0));
        let mut j0 = 0;
        if dense {
            while j0 + 8 <= i0 {
                leading_block::<8>(ld, md, n, i0, j0);
                j0 += 8;
            }
            if j0 + 4 <= i0 {
                leading_block::<4>(ld, md, n, i0, j0);
                j0 += 4;
            }
        }
        for i in i0..i0 + 4 {
            inverse_row(ld, md, n, i, j0, i0);
        }
        i0 += 4;
    }
    for i in i0..n {
        inverse_row(ld, md, n, i, 0, 0);
    }
}

/// Columns `[j0, j0 + C)` of rows `i0..i0 + 4` of `M = L⁻¹`, accumulated
/// from zero over the terms `k < i0` (before any negation).  The terms
/// `k < j0 + C − 1` reach only the columns `j ≤ k`, one element at a time.
#[inline(always)]
fn leading_block<const C: usize>(ld: &[f64], md: &mut [f64], n: usize, i0: usize, j0: usize) {
    let rows = [i0, i0 + 1, i0 + 2, i0 + 3].map(|i| i * n);
    let (head, rest) = md.split_at_mut(i0 * n);
    for (r, &row) in rows.iter().enumerate() {
        let out = &mut rest[r * n + j0..r * n + j0 + C];
        out.fill(0.0);
        for k in j0..j0 + C - 1 {
            let c = ld[row + k];
            for (o, &m) in out[..=k - j0].iter_mut().zip(&head[k * n + j0..=k * n + k]) {
                *o += c * m;
            }
        }
    }
    let starts = [0, n, 2 * n, 3 * n].map(|s| s + j0);
    let mut acc = Rows4::<C>::load(rest, starts);
    let k0 = j0 + C - 1;
    let coefs = rows.map(|row| &ld[row + k0..row + i0]);
    acc.add_terms(coefs, &head[k0 * n..i0 * n], n, j0);
    acc.store(rest, starts);
}

/// Finishes row `i` of `M = L⁻¹`: its columns from `j0` take every term
/// that reaches them, its columns below `j0` (accumulated by
/// [`leading_block`] over the terms `k < k0`) the terms from `k0` on; then
/// the row is negated and given its unit diagonal.
#[inline(always)]
fn inverse_row(ld: &[f64], md: &mut [f64], n: usize, i: usize, j0: usize, k0: usize) {
    let (head, rest) = md.split_at_mut(i * n);
    let row = &mut rest[..n];
    let coefs = &ld[i * n..i * n + i];
    if j0 > 0 {
        let terms = (k0..i)
            .filter(|&k| coefs[k] != 0.0)
            .map(|k| (coefs[k], k * n, j0));
        add_scaled_rows(&mut row[..j0], head, terms);
    }
    let tail = &mut row[j0..];
    tail.fill(0.0);
    let terms = (j0..i)
        .filter(|&k| coefs[k] != 0.0)
        .map(|k| (coefs[k], k * n + j0, k + 1 - j0));
    add_scaled_rows(tail, head, terms);
    for m in row[..i].iter_mut() {
        *m = -*m;
    }
    row[i] = 1.0;
}

/// `xd`'s lower triangle ← `Mᵀ W`: `X[i][..=i] = W[i][..=i] + Σ_{k>i}
/// M[k][i]·W[k][..=i]` over the nonzero `M[k][i]` in ascending `k`, the
/// coefficients read from row `i`'s strict upper half of `xd`.
///
/// `blocked` takes rows four at a time: on the full column blocks all four
/// rows have, the terms `k ≥ i0 + 4` they share run with each load of `W`
/// shared when the coefficients are all nonzero, after each row's own
/// first terms.  Every element still adds the same terms one at a time in
/// ascending `k`.
#[inline(always)]
fn lower_product(xd: &mut [f64], wd: &[f64], n: usize, blocked: bool) {
    let mut i0 = 0;
    while blocked && i0 + 4 <= n {
        let rows = [i0, i0 + 1, i0 + 2, i0 + 3].map(|i| i * n);
        let dense = rows
            .iter()
            .all(|&row| xd[row + i0 + 4..row + n].iter().all(|&c| c != 0.0));
        let mut j0 = 0;
        if dense {
            while j0 + 8 <= i0 + 1 {
                shared_block::<8>(xd, wd, n, i0, j0);
                j0 += 8;
            }
            if j0 + 4 <= i0 + 1 {
                shared_block::<4>(xd, wd, n, i0, j0);
                j0 += 4;
            }
        }
        for i in i0..i0 + 4 {
            product_row(xd, wd, n, i, j0);
        }
        i0 += 4;
    }
    for i in i0..n {
        product_row(xd, wd, n, i, 0);
    }
}

/// Columns `[j0, j0 + C)` of rows `i0..i0 + 4` of `X = MᵀW`.
#[inline(always)]
fn shared_block<const C: usize>(xd: &mut [f64], wd: &[f64], n: usize, i0: usize, j0: usize) {
    let rows = [i0, i0 + 1, i0 + 2, i0 + 3].map(|i| i * n);
    let starts = rows.map(|row| row + j0);
    let mut acc = Rows4::<C>::load(wd, starts);
    // Each row's terms i < k < i0 + 4 come first.
    for k in (i0 + 1)..(i0 + 4) {
        let src = &wd[k * n + j0..k * n + j0 + C];
        for (r, out) in acc.0.iter_mut().enumerate().take(k - i0) {
            let c = xd[rows[r] + k];
            if c != 0.0 {
                for (o, &w) in out.iter_mut().zip(src) {
                    *o += c * w;
                }
            }
        }
    }
    let coefs = rows.map(|row| &xd[row + i0 + 4..row + n]);
    acc.add_terms(coefs, &wd[(i0 + 4) * n..], n, j0);
    acc.store(xd, starts);
}

/// Row `i` of `X = MᵀW` on its columns `j0..=i`.
#[inline(always)]
fn product_row(xd: &mut [f64], wd: &[f64], n: usize, i: usize, j0: usize) {
    let (lower, upper) = xd[i * n..(i + 1) * n].split_at_mut(i + 1);
    let tail = &mut lower[j0..];
    tail.copy_from_slice(&wd[i * n + j0..=i * n + i]);
    let terms = ((i + 1)..n).zip(upper.iter());
    let terms = terms
        .filter(|(_, &c)| c != 0.0)
        .map(|(k, &c)| (c, k * n + j0, i + 1 - j0));
    add_scaled_rows(tail, wd, terms);
}

/// Computes the Bunch–Kaufman factorization of the symmetric matrix `a`
/// (lower triangle read) into a caller-provided [`Ldlt`], reusing its
/// buffers (zero heap allocation in steady state when the dimension
/// repeats).
///
/// Like [`crate::decomp::lu::factor_into`], the factorization completes
/// whatever the input: a pivot at or below `ε·n·max(1, ‖A‖max)` sets
/// [`Ldlt::singular`] and its elimination step is skipped.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] if `a` is not square.
pub fn factor_into(a: &Matrix, f: &mut Ldlt) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "ldlt::factor",
            shape: a.shape(),
        });
    }
    crate::simd::wide(
        #[inline(always)]
        || factor_body(a, f),
    );
    Ok(())
}

/// Body of [`factor_into`] for a square `a`, run through
/// [`crate::simd::wide`].
#[inline(always)]
pub(crate) fn factor_body(a: &Matrix, f: &mut Ldlt) {
    let n = a.rows();
    f.l.copy_from(a);
    f.d.clear();
    f.d.resize(n, 0.0);
    f.e.clear();
    f.e.resize(n, 0.0);
    f.perm.clear();
    f.perm.extend(0..n);
    f.singular = false;
    let tol = f64::EPSILON * a.norm_max().max(1.0) * (n as f64);
    let ld = f.l.as_mut_slice();

    let mut k = 0;
    while k < n {
        let absakk = ld[k * n + k].abs();
        let (mut imax, mut colmax) = (k, 0.0f64);
        for i in (k + 1)..n {
            let v = ld[i * n + k].abs();
            if v > colmax {
                colmax = v;
                imax = i;
            }
        }
        // A NaN diagonal entry is a 1×1 pivot, flagged below, as in LAPACK's
        // `dsytf2`: the 2×2 branch would pair it with a row past the end.
        let (kp, step) = if absakk >= ALPHA * colmax || absakk.is_nan() {
            (k, 1)
        } else {
            // Largest off-diagonal entry of row/column imax in the trailing
            // matrix (row imax left of the diagonal, column imax below it).
            let mut rowmax = ld[imax * n + k..imax * n + imax]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            for j in (imax + 1)..n {
                rowmax = rowmax.max(ld[j * n + imax].abs());
            }
            if absakk * rowmax >= ALPHA * colmax * colmax {
                (k, 1)
            } else if ld[imax * n + imax].abs() >= ALPHA * rowmax {
                (imax, 1)
            } else {
                (imax, 2)
            }
        };
        let kk = k + step - 1;
        if kp != kk {
            swap_symmetric(ld, n, kk, kp);
            f.perm.swap(kk, kp);
        }
        if step == 1 {
            let pivot = ld[k * n + k];
            f.d[k] = pivot;
            if pivot.abs() <= tol || pivot.is_nan() {
                f.singular = true;
                k += 1;
                continue;
            }
            // Row k's free upper half keeps the pivot column, so every
            // update below runs over contiguous rows.
            for i in (k + 1)..n {
                ld[k * n + i] = ld[i * n + k];
            }
            let (head, below) = ld.split_at_mut((k + 1) * n);
            let col = &head[k * n..(k + 1) * n];
            for (i, row_i) in ((k + 1)..n).zip(below.chunks_exact_mut(n)) {
                let l = row_i[k] / pivot;
                for (x, &w) in row_i[(k + 1)..=i].iter_mut().zip(&col[(k + 1)..=i]) {
                    *x -= l * w;
                }
                row_i[k] = l;
            }
            k += 1;
        } else {
            let (a, b, c) = (ld[k * n + k], ld[(k + 1) * n + k], ld[(k + 1) * n + k + 1]);
            f.d[k] = a;
            f.d[k + 1] = c;
            f.e[k] = b;
            // LAPACK's overflow-safe 2×2 inverse: D⁻¹ = t·[[c/b, −1], [−1, a/b]]
            // with t = b/(ac − b²).  Pivoting keeps |ac| < α²b², so
            // |det| = b²·|d11·d22 − 1| ≥ (1 − α²)·b².
            let d11 = c / b;
            let d22 = a / b;
            let det_over_b2 = d11 * d22 - 1.0;
            let mid = 0.5 * (a + c);
            let radius = (0.5 * (a - c)).hypot(b);
            let smaller = b.abs() * det_over_b2.abs() * (b.abs() / (mid.abs() + radius));
            if smaller <= tol {
                f.singular = true;
                k += 2;
                continue;
            }
            let t = 1.0 / (det_over_b2 * b);
            for i in (k + 2)..n {
                ld[k * n + i] = ld[i * n + k];
                ld[(k + 1) * n + i] = ld[i * n + k + 1];
            }
            ld[(k + 1) * n + k] = 0.0;
            let (head, below) = ld.split_at_mut((k + 2) * n);
            let (col_k, col_k1) = head[k * n..(k + 2) * n].split_at(n);
            for (i, row_i) in ((k + 2)..n).zip(below.chunks_exact_mut(n)) {
                let (w1, w2) = (row_i[k], row_i[k + 1]);
                let l1 = t * (d11 * w1 - w2);
                let l2 = t * (d22 * w2 - w1);
                for ((x, &u), &v) in row_i[(k + 2)..=i]
                    .iter_mut()
                    .zip(&col_k[(k + 2)..=i])
                    .zip(&col_k1[(k + 2)..=i])
                {
                    *x -= l1 * u + l2 * v;
                }
                row_i[k] = l1;
                row_i[k + 1] = l2;
            }
            k += 2;
        }
    }
}

/// Computes the Bunch–Kaufman factorization of the symmetric matrix `a`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] if `a` is not square.
pub fn factor(a: &Matrix) -> Result<Ldlt, LinalgError> {
    let mut f = Ldlt::empty();
    factor_into(a, &mut f)?;
    Ok(f)
}

/// Symmetric interchange of rows and columns `p < q` in lower-triangular
/// storage, applied to the whole matrix: the already computed columns of
/// `L` swap rows too, so the factorization ends with a single permutation.
fn swap_symmetric(ld: &mut [f64], n: usize, p: usize, q: usize) {
    for j in 0..p {
        ld.swap(p * n + j, q * n + j);
    }
    ld.swap(p * n + p, q * n + q);
    for j in (p + 1)..q {
        ld.swap(j * n + p, q * n + j);
    }
    for i in (q + 1)..n {
        ld.swap(i * n + p, i * n + q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
        let f = factor(a)?;
        let mut x = Matrix::zeros(0, 0);
        let mut scratch = Matrix::zeros(0, 0);
        f.inverse_unblocked_into(&mut x, &mut scratch)?;
        Ok(x)
    }

    /// `L D Lᵀ` rebuilt from the factors and permuted back to `A`'s order.
    fn reconstruct(f: &Ldlt) -> Matrix {
        let n = f.dim();
        let l = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Greater => f.l[(i, j)],
            std::cmp::Ordering::Less => 0.0,
        });
        let d = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                f.d[i]
            } else if i == j + 1 {
                f.e[j]
            } else if j == i + 1 {
                f.e[i]
            } else {
                0.0
            }
        });
        let ldl = &(&l * &d) * &l.transpose();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(f.perm[i], f.perm[j])] = ldl[(i, j)];
            }
        }
        a
    }

    #[test]
    fn definite_matrix_uses_only_1x1_pivots() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let f = factor(&a).unwrap();
        assert!(f.e.iter().all(|&e| e == 0.0));
        assert!(reconstruct(&f).approx_eq(&a, 1e-13));
        let x = inverse(&a).unwrap();
        assert!((&a * &x).approx_eq(&Matrix::identity(3), 1e-13));
    }

    #[test]
    fn zero_diagonal_forces_a_2x2_pivot() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[2.0, 0.0, 3.0], &[1.0, 3.0, 0.0]]);
        let f = factor(&a).unwrap();
        assert!(f.e.iter().any(|&e| e != 0.0), "no 2×2 block chosen");
        assert!(!f.singular);
        assert!(reconstruct(&f).approx_eq(&a, 1e-13));
        let x = inverse(&a).unwrap();
        assert!((&a * &x).approx_eq(&Matrix::identity(3), 1e-13));
        assert_eq!(x, x.transpose(), "inverse must be exactly symmetric");
        // J·A⁻¹·J has no meaning at an odd order.
        let (mut x, mut scratch) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        assert!(matches!(
            f.conjugated_inverse_into(&mut x, &mut scratch),
            Err(LinalgError::InvalidInput { .. })
        ));
    }

    #[test]
    fn singular_matrix_is_flagged() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let f = factor(&a).unwrap();
        assert!(f.singular);
        let mut x = Matrix::zeros(0, 0);
        let mut scratch = Matrix::zeros(0, 0);
        assert!(matches!(
            f.conjugated_inverse_into(&mut x, &mut scratch),
            Err(LinalgError::Singular { .. })
        ));
        assert!(factor(&Matrix::zeros(3, 3)).unwrap().singular);
    }

    #[test]
    fn nan_pivot_is_flagged() {
        // A NaN diagonal entry in the last column used to take the 2×2
        // branch and index past the matrix.
        for a in [
            Matrix::from_rows(&[&[1.0, 0.5], &[0.5, f64::NAN]]),
            Matrix::from_rows(&[&[f64::NAN]]),
        ] {
            assert!(factor(&a).unwrap().singular);
        }
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            factor(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn empty_matrix_factors_and_inverts() {
        let x = inverse(&Matrix::zeros(0, 0)).unwrap();
        assert!(x.is_empty());
    }
}
