//! LU factorization with partial pivoting and the solvers built on it.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// LU factorization `P A = L U` with partial (row) pivoting.
///
/// `L` is unit lower triangular and `U` upper triangular; both are packed into
/// [`Lu::lu`]. The permutation is stored as a row-index vector.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed `L` (strictly lower part, unit diagonal implied) and `U` (upper part).
    pub lu: Matrix,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of the input.
    pub perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), used for the determinant.
    pub perm_sign: f64,
    /// `true` when a (numerically) zero pivot was encountered.
    pub singular: bool,
}

/// Computes the LU factorization of a square matrix.
///
/// The factorization always completes (singularity is reported through
/// [`Lu::singular`]), so rank-deficient matrices can still be inspected.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] if `a` is not square.
pub fn factor(a: &Matrix) -> Result<Lu, LinalgError> {
    let mut f = Lu::empty();
    factor_into(a, &mut f)?;
    Ok(f)
}

/// Computes the LU factorization of `a` into a caller-provided [`Lu`],
/// reusing its matrix and pivot buffers (zero heap allocation in steady state
/// when the dimension repeats).
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] if `a` is not square.
pub fn factor_into(a: &Matrix, f: &mut Lu) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "lu::factor",
            shape: a.shape(),
        });
    }
    let n = a.rows();
    f.lu.copy_from(a);
    f.perm.clear();
    f.perm.extend(0..n);
    f.perm_sign = 1.0;
    f.singular = false;
    let scale = a.norm_max().max(1.0);
    let tol = f64::EPSILON * scale * (n as f64);
    let lu = f.lu.as_mut_slice();

    for k in 0..n {
        // Partial pivoting: find the largest entry in column k at or below row k.
        let mut p = k;
        let mut max_val = lu[k * n + k].abs();
        for i in (k + 1)..n {
            if lu[i * n + k].abs() > max_val {
                max_val = lu[i * n + k].abs();
                p = i;
            }
        }
        if p != k {
            for j in 0..n {
                lu.swap(p * n + j, k * n + j);
            }
            f.perm.swap(p, k);
            f.perm_sign = -f.perm_sign;
        }
        let pivot = lu[k * n + k];
        if pivot.abs() <= tol {
            f.singular = true;
            continue;
        }
        // Eliminate below the pivot; row k is read-only while rows k+1.. are
        // updated, so split the buffer once per step.
        let (top, below) = lu.split_at_mut((k + 1) * n);
        let row_k = &top[k * n..];
        for row_i in below.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            for j in (k + 1)..n {
                let delta = factor * row_k[j];
                row_i[j] -= delta;
            }
        }
    }
    Ok(())
}

impl Lu {
    /// An empty factorization, used as reusable storage for [`factor_into`].
    pub fn empty() -> Lu {
        Lu {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
            singular: false,
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the factored matrix.
    ///
    /// Computed as the raw product of the `U` diagonal, so the result
    /// over/underflows `f64` once `n · log₂(typical |u_ii|)` exceeds ±1024 —
    /// in practice a few hundred rows for matrices whose entries are not
    /// close to unit scale.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A X = B` for `X` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the factorization flagged a zero
    /// pivot, and [`LinalgError::ShapeMismatch`] when `b` has the wrong row count.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let mut x = Matrix::zeros(0, 0);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A X = B` into a caller-provided output matrix (reshaped and
    /// fully overwritten; no allocation in steady state).
    ///
    /// # Errors
    ///
    /// Same as [`Lu::solve`].
    pub fn solve_into(&self, b: &Matrix, x: &mut Matrix) -> Result<(), LinalgError> {
        let n = self.dim();
        if self.singular {
            return Err(LinalgError::Singular {
                operation: "lu::solve",
            });
        }
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                operation: "lu::solve",
                left: self.lu.shape(),
                right: b.shape(),
            });
        }
        let nrhs = b.cols();
        // Apply permutation to B.
        x.resize_uninit(n, nrhs);
        {
            let xd = x.as_mut_slice();
            let bd = b.as_slice();
            for i in 0..n {
                xd[i * nrhs..(i + 1) * nrhs]
                    .copy_from_slice(&bd[self.perm[i] * nrhs..(self.perm[i] + 1) * nrhs]);
            }
        }
        self.substitute_in_place(x);
        Ok(())
    }

    /// Forward/back substitution on a permuted right-hand side already stored
    /// in `x` (shared by [`Lu::solve_into`] and [`Lu::inverse_into`]).
    fn substitute_in_place(&self, x: &mut Matrix) {
        let n = self.dim();
        let nrhs = x.cols();
        let lud = self.lu.as_slice();
        let xd = x.as_mut_slice();
        // Forward substitution with unit lower triangular L.
        for i in 0..n {
            let (above, current) = xd.split_at_mut(i * nrhs);
            let row_i = &mut current[..nrhs];
            let lrow = &lud[i * n..i * n + i];
            for (k, &lik) in lrow.iter().enumerate() {
                if lik != 0.0 {
                    let row_k = &above[k * nrhs..(k + 1) * nrhs];
                    for (xi, &xk) in row_i.iter_mut().zip(row_k.iter()) {
                        let delta = lik * xk;
                        *xi -= delta;
                    }
                }
            }
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let (head, tail) = xd.split_at_mut((i + 1) * nrhs);
            let row_i = &mut head[i * nrhs..];
            let urow = &lud[i * n..(i + 1) * n];
            for k in (i + 1)..n {
                let uik = urow[k];
                if uik != 0.0 {
                    let row_k = &tail[(k - i - 1) * nrhs..(k - i) * nrhs];
                    for (xi, &xk) in row_i.iter_mut().zip(row_k.iter()) {
                        let delta = uik * xk;
                        *xi -= delta;
                    }
                }
            }
            let uii = urow[i];
            for xi in row_i.iter_mut() {
                *xi /= uii;
            }
        }
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the matrix is singular.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let mut x = Matrix::zeros(0, 0);
        self.inverse_into(&mut x)?;
        Ok(x)
    }

    /// Inverse of the factored matrix into a caller-provided output
    /// (reshaped and fully overwritten; no allocation in steady state).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the matrix is singular.
    pub fn inverse_into(&self, x: &mut Matrix) -> Result<(), LinalgError> {
        let n = self.dim();
        if self.singular {
            return Err(LinalgError::Singular {
                operation: "lu::solve",
            });
        }
        // The permuted identity right-hand side, written directly.
        x.resize_uninit(n, n);
        {
            let xd = x.as_mut_slice();
            xd.fill(0.0);
            for i in 0..n {
                xd[i * n + self.perm[i]] = 1.0;
            }
        }
        self.substitute_in_place(x);
        Ok(())
    }

    /// Inverse of the factored matrix via triangular inversion
    /// (`A⁻¹ = U⁻¹·L⁻¹·P`), using a caller-provided `n × n` scratch matrix.
    ///
    /// Costs `(4/3)n³` flops against the `2n³` of the substitution-based
    /// [`Lu::inverse_into`], which makes it the right choice inside iterative
    /// callers (the Newton sign iteration spends almost all its time here).
    /// The floating-point operation *order* differs from `inverse_into`, so
    /// the two are numerically equivalent but not bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the matrix is singular.
    pub fn inverse_into_ws(&self, x: &mut Matrix, scratch: &mut Matrix) -> Result<(), LinalgError> {
        let n = self.dim();
        if self.singular {
            return Err(LinalgError::Singular {
                operation: "lu::solve",
            });
        }
        scratch.resize_uninit(n, n);
        x.resize_uninit(n, n);
        let lud = self.lu.as_slice();
        // scratch ← U⁻¹ (upper triangular), rows bottom-up: row i only reads
        // already-finished rows k > i.
        {
            let ud = scratch.as_mut_slice();
            for i in (0..n).rev() {
                let (head, tail) = ud.split_at_mut((i + 1) * n);
                let row_i = &mut head[i * n..];
                row_i.fill(0.0);
                for k in (i + 1)..n {
                    let f = lud[i * n + k];
                    if f != 0.0 {
                        let row_k = &tail[(k - i - 1) * n..(k - i) * n];
                        for (xi, &xk) in row_i[k..].iter_mut().zip(row_k[k..].iter()) {
                            *xi += f * xk;
                        }
                    }
                }
                let inv_uii = 1.0 / lud[i * n + i];
                for xi in row_i[(i + 1)..].iter_mut() {
                    *xi = -*xi * inv_uii;
                }
                row_i[i] = inv_uii;
            }
        }
        // x ← L⁻¹ (unit lower triangular), rows top-down.
        {
            let xd = x.as_mut_slice();
            for i in 0..n {
                let (head, row_rest) = xd.split_at_mut(i * n);
                let row_i = &mut row_rest[..n];
                row_i.fill(0.0);
                for k in 0..i {
                    let f = lud[i * n + k];
                    if f != 0.0 {
                        let row_k = &head[k * n..(k + 1) * n];
                        for (xi, &xk) in row_i[..=k].iter_mut().zip(row_k[..=k].iter()) {
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
        // x ← U⁻¹·L⁻¹ in place, rows top-down: row i scales itself first, then
        // accumulates only rows k > i, which are still untouched L⁻¹ rows.
        {
            let ud = scratch.as_slice();
            let xd = x.as_mut_slice();
            for i in 0..n {
                let (head, tail) = xd.split_at_mut((i + 1) * n);
                let row_i = &mut head[i * n..];
                let uii = ud[i * n + i];
                for xi in row_i.iter_mut() {
                    *xi *= uii;
                }
                for k in (i + 1)..n {
                    let f = ud[i * n + k];
                    if f != 0.0 {
                        let row_k = &tail[(k - i - 1) * n..(k - i) * n];
                        for (xi, &xk) in row_i[..=k].iter_mut().zip(row_k[..=k].iter()) {
                            *xi += f * xk;
                        }
                    }
                }
            }
        }
        // Apply the column permutation: (M·P)[i][perm[k]] = M[i][k]. The U⁻¹
        // scratch is spent, so its first row doubles as the permutation buffer.
        {
            let tmp = &mut scratch.as_mut_slice()[..n];
            let xd = x.as_mut_slice();
            for i in 0..n {
                let row_i = &mut xd[i * n..(i + 1) * n];
                tmp.copy_from_slice(row_i);
                for (k, &p) in self.perm.iter().enumerate() {
                    row_i[p] = tmp[k];
                }
            }
        }
        Ok(())
    }
}

/// One-shot solve of `A X = B`.
///
/// # Errors
///
/// Propagates the errors of [`factor`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    factor(a)?.solve(b)
}

/// One-shot matrix inverse.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] when `a` is singular and
/// [`LinalgError::NotSquare`] when it is not square.
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    factor(a)?.inverse()
}

/// One-shot determinant.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `a` is not square.
pub fn det(a: &Matrix) -> Result<f64, LinalgError> {
    Ok(factor(a)?.det())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_small_system() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let b = Matrix::column(&[10.0, 12.0]);
        let x = solve(&a, &b).unwrap();
        let residual = &(&a * &x) - &b;
        assert!(residual.norm_fro() < 1e-12);
    }

    #[test]
    fn determinant_matches_formula() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((det(&a).unwrap() - (-2.0)).abs() < 1e-12);
        let id = Matrix::identity(5);
        assert!((det(&id).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let inv = inverse(&a).unwrap();
        assert!((&a * &inv).approx_eq(&Matrix::identity(3), 1e-12));
        assert!((&inv * &a).approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let f = factor(&a).unwrap();
        assert!(f.singular);
        assert!(matches!(
            f.solve(&Matrix::identity(2)),
            Err(LinalgError::Singular { .. })
        ));
        assert!(det(&a).unwrap().abs() < 1e-10);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(factor(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[9.0, 1.0], &[8.0, 0.0]]);
        let x = solve(&a, &b).unwrap();
        assert!((&(&a * &x) - &b).norm_fro() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &Matrix::column(&[2.0, 3.0])).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn factor_into_reuses_buffers_and_matches_factor() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let reference = factor(&a).unwrap();
        let mut f = Lu::empty();
        // Warm the buffers with a different matrix first.
        factor_into(&Matrix::identity(3), &mut f).unwrap();
        factor_into(&a, &mut f).unwrap();
        assert_eq!(f.lu, reference.lu);
        assert_eq!(f.perm, reference.perm);
        assert_eq!(f.perm_sign, reference.perm_sign);
        assert_eq!(f.singular, reference.singular);
        let mut inv = Matrix::zeros(0, 0);
        f.inverse_into(&mut inv).unwrap();
        assert_eq!(inv, reference.inverse().unwrap());
        let b = Matrix::from_fn(3, 2, |i, j| (i + 2 * j) as f64);
        let mut x = Matrix::zeros(0, 0);
        f.solve_into(&b, &mut x).unwrap();
        assert_eq!(x, reference.solve(&b).unwrap());
    }

    #[test]
    fn triangular_inverse_matches_substitution_inverse() {
        for n in [1usize, 2, 3, 5, 8, 13, 21, 40] {
            let a = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    4.0 + (i % 3) as f64
                } else {
                    (((i * 5 + j * 11) % 7) as f64 - 3.0) * 0.4
                }
            });
            let f = factor(&a).unwrap();
            let reference = f.inverse().unwrap();
            let mut x = Matrix::zeros(0, 0);
            let mut scratch = Matrix::zeros(0, 0);
            f.inverse_into_ws(&mut x, &mut scratch).unwrap();
            assert!(
                (&x - &reference).norm_max() <= 1e-12 * reference.norm_max().max(1.0),
                "triangular inverse diverges from substitution inverse at n = {n}"
            );
            assert!((&a * &x).approx_eq(&Matrix::identity(n), 1e-10));
        }
    }

    #[test]
    fn triangular_inverse_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let f = factor(&a).unwrap();
        let mut x = Matrix::zeros(0, 0);
        let mut scratch = Matrix::zeros(0, 0);
        assert!(matches!(
            f.inverse_into_ws(&mut x, &mut scratch),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn larger_random_like_system() {
        let n = 12;
        // Deterministic well-conditioned matrix: diagonally dominant.
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                ((i * 7 + j * 3) % 5) as f64 * 0.3 - 0.6
            }
        });
        let x_true = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 * 0.5 - 1.0);
        let b = &a * &x_true;
        let x = solve(&a, &b).unwrap();
        assert!((&x - &x_true).norm_fro() < 1e-10);
    }
}
