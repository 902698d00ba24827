//! Moore–Penrose pseudo-inverse.

use crate::decomp::svd::svd;
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Computes the Moore–Penrose pseudo-inverse `A⁺` of `a` via the SVD, treating
/// singular values below `rel_tol * σ_max` as zero.
///
/// # Errors
///
/// Propagates SVD convergence failures.
///
/// ```
/// # use ds_linalg::{Matrix, pinv};
/// # fn main() -> Result<(), ds_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
/// let p = pinv::pseudo_inverse(&a, 1e-12)?;
/// assert!((&(&a * &p) * &a).approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn pseudo_inverse(a: &Matrix, rel_tol: f64) -> Result<Matrix, LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Matrix::zeros(n, m));
    }
    let d = svd(a)?;
    let r = d.rank(rel_tol);
    // A⁺ = V Σ⁺ Uᵀ using only the leading r singular triplets.
    let mut out = Matrix::zeros(n, m);
    for k in 0..r {
        let sigma_inv = 1.0 / d.s[k];
        let uk = d.u.col(k);
        let vk = d.v.col(k);
        // out += sigma_inv * vk ukᵀ
        for i in 0..n {
            let vi = vk[(i, 0)] * sigma_inv;
            if vi == 0.0 {
                continue;
            }
            for j in 0..m {
                out[(i, j)] += vi * uk[(j, 0)];
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-11;

    fn check_penrose(a: &Matrix, p: &Matrix, tol: f64) {
        // The four Penrose conditions.
        assert!((&(&(a * p) * a) - a).norm_fro() < tol, "A P A = A violated");
        assert!((&(&(p * a) * p) - p).norm_fro() < tol, "P A P = P violated");
        let ap = a * p;
        assert!(ap.is_symmetric(tol), "A P not symmetric");
        let pa = p * a;
        assert!(pa.is_symmetric(tol), "P A not symmetric");
    }

    #[test]
    fn pinv_of_invertible_matrix_is_inverse() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let p = pseudo_inverse(&a, TOL).unwrap();
        assert!((&a * &p).approx_eq(&Matrix::identity(2), 1e-11));
    }

    #[test]
    fn pinv_of_rank_deficient_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let p = pseudo_inverse(&a, TOL).unwrap();
        check_penrose(&a, &p, 1e-9);
    }

    #[test]
    fn pinv_of_rectangular_matrices() {
        let tall = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let p = pseudo_inverse(&tall, TOL).unwrap();
        assert_eq!(p.shape(), (2, 3));
        check_penrose(&tall, &p, 1e-10);
        let wide = tall.transpose();
        let pw = pseudo_inverse(&wide, TOL).unwrap();
        assert_eq!(pw.shape(), (3, 2));
        check_penrose(&wide, &pw, 1e-10);
    }

    #[test]
    fn pinv_of_zero_matrix_is_zero() {
        let z = Matrix::zeros(2, 3);
        let p = pseudo_inverse(&z, TOL).unwrap();
        assert_eq!(p.shape(), (3, 2));
        assert_eq!(p.norm_fro(), 0.0);
    }
}
