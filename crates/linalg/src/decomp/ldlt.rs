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
use crate::matrix::Matrix;

/// Bunch–Kaufman's pivoting constant `α = (1 + √17)/8`, which minimizes the
/// bound on element growth.
const ALPHA: f64 = 0.640_388_203_202_208_4;

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
    /// [`crate::decomp::lu::factor_into`] applies to its pivots.
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

    /// Natural logarithm of `|det A|`, accumulated block by block.
    pub fn log_abs_det(&self) -> f64 {
        let n = self.dim();
        let mut acc = 0.0f64;
        let mut k = 0;
        while k < n {
            if self.e[k] != 0.0 {
                acc += (self.d[k] * self.d[k + 1] - self.e[k] * self.e[k])
                    .abs()
                    .ln();
                k += 2;
            } else {
                acc += self.d[k].abs().ln();
                k += 1;
            }
        }
        acc
    }

    /// The exactly symmetric inverse `A⁻¹ = Pᵀ L⁻ᵀ D⁻¹ L⁻¹ P` into `x`, with
    /// `scratch` as an `n × n` work matrix (both are reshaped and fully
    /// overwritten; their buffers may trade places, so no allocation happens
    /// in steady state).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the factorization flagged a
    /// pivot.
    pub fn inverse_into(&self, x: &mut Matrix, scratch: &mut Matrix) -> Result<(), LinalgError> {
        if self.singular {
            return Err(LinalgError::Singular {
                operation: "ldlt::inverse",
            });
        }
        let n = self.dim();
        scratch.resize_uninit(n, n);
        x.resize_uninit(n, n);
        let ld = self.l.as_slice();
        // scratch ← M = L⁻¹ (unit lower triangular), rows top-down: row i
        // only reads the finished rows k < i.
        {
            let md = scratch.as_mut_slice();
            for i in 0..n {
                let (head, rest) = md.split_at_mut(i * n);
                let row_i = &mut rest[..n];
                row_i.fill(0.0);
                for k in 0..i {
                    let f = ld[i * n + k];
                    if f != 0.0 {
                        let row_k = &head[k * n..k * n + k + 1];
                        for (xi, &xk) in row_i[..=k].iter_mut().zip(row_k) {
                            *xi += f * xk;
                        }
                    }
                }
                for xi in row_i[..i].iter_mut() {
                    *xi = -*xi;
                }
                row_i[i] = 1.0;
            }
        }
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
        // x's lower triangle ← Mᵀ W: X[i][..=i] = Σ_{k ≥ i} M[k][i]·W[k][..=i],
        // with M[i][i] = 1 and M[k][i] (k > i) read from row i's upper half.
        {
            let wd = scratch.as_slice();
            let xd = x.as_mut_slice();
            for i in 0..n {
                let (lower, upper) = xd[i * n..(i + 1) * n].split_at_mut(i + 1);
                lower.copy_from_slice(&wd[i * n..=i * n + i]);
                for (k, &f) in ((i + 1)..n).zip(upper.iter()) {
                    if f != 0.0 {
                        let row_k = &wd[k * n..=k * n + i];
                        for (xi, &wk) in lower.iter_mut().zip(row_k) {
                            *xi += f * wk;
                        }
                    }
                }
            }
        }
        // A⁻¹[perm[i]][perm[j]] = X[i][j]: scatter the lower triangle into
        // both triangles of the spent scratch, then hand it over as x.
        {
            let xd = x.as_slice();
            let od = scratch.as_mut_slice();
            for i in 0..n {
                let pi = self.perm[i];
                for j in 0..=i {
                    let pj = self.perm[j];
                    let v = xd[i * n + j];
                    od[pi * n + pj] = v;
                    od[pj * n + pi] = v;
                }
            }
        }
        std::mem::swap(x, scratch);
        Ok(())
    }
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
        let (kp, step) = if absakk >= ALPHA * colmax {
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
            if pivot.abs() <= tol {
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
    Ok(())
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
        f.inverse_into(&mut x, &mut scratch)?;
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
    }

    #[test]
    fn singular_matrix_is_flagged() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let f = factor(&a).unwrap();
        assert!(f.singular);
        let mut x = Matrix::zeros(0, 0);
        let mut scratch = Matrix::zeros(0, 0);
        assert!(matches!(
            f.inverse_into(&mut x, &mut scratch),
            Err(LinalgError::Singular { .. })
        ));
        assert!(factor(&Matrix::zeros(3, 3)).unwrap().singular);
    }

    #[test]
    fn log_abs_det_matches_lu() {
        let a = Matrix::from_rows(&[
            &[0.0, 1.0, 2.0, 0.5],
            &[1.0, 0.0, 0.3, 1.0],
            &[2.0, 0.3, -1.0, 0.0],
            &[0.5, 1.0, 0.0, 0.1],
        ]);
        let lu = crate::decomp::lu::factor(&a).unwrap();
        let f = factor(&a).unwrap();
        assert!((f.log_abs_det() - lu.log_abs_det()).abs() < 1e-12);
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
