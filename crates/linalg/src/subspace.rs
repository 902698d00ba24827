//! SVD-based subspace arithmetic.
//!
//! The passivity-test reduction of the DAC 2006 paper is phrased entirely in
//! terms of subspace operations: kernels, ranges, orthogonal complements
//! and "set subtraction" `X \ Y = X ∩ Y⊥` (in the sense of Basile–Marro).
//! All decisions about numerical rank go through the SVD with a relative
//! tolerance.

use crate::decomp::qr;
use crate::decomp::svd::{rank_from_singular_values, svd, svd_u_s};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::DEFAULT_RELATIVE_TOLERANCE;

/// Numerical rank of `a` with relative tolerance `rel_tol` (singular values
/// below `rel_tol * σ_max` count as zero).
///
/// # Errors
///
/// Propagates SVD convergence failures.
pub fn rank(a: &Matrix, rel_tol: f64) -> Result<usize, LinalgError> {
    if a.is_empty() {
        return Ok(0);
    }
    // The rank decision only needs the singular values; skip the V factor.
    // Singular values are transpose-invariant, so wide input is transposed
    // first — the tall orientation is the one where the V-free Jacobi path
    // actually skips work (the wide branch must accumulate V to build U).
    let (_, s) = if a.rows() < a.cols() {
        svd_u_s(&a.transpose())?
    } else {
        svd_u_s(a)?
    };
    Ok(rank_from_singular_values(&s, rel_tol))
}

/// Orthonormal basis of the column space (range) of `a`.
///
/// # Errors
///
/// Propagates SVD convergence failures.
pub fn range_basis(a: &Matrix, rel_tol: f64) -> Result<Matrix, LinalgError> {
    if a.is_empty() {
        return Ok(Matrix::zeros(a.rows(), 0));
    }
    // The range basis lives in U; the V-free Jacobi path produces the exact
    // same U and singular values at roughly half the rotation work.
    let (u, s) = svd_u_s(a)?;
    let r = rank_from_singular_values(&s, rel_tol);
    Ok(u.block(0, a.rows(), 0, r))
}

/// Orthonormal basis of the null space (kernel) of `a`: all `x` with `a x = 0`.
///
/// # Errors
///
/// Propagates SVD convergence failures.
pub fn null_space(a: &Matrix, rel_tol: f64) -> Result<Matrix, LinalgError> {
    let (m, n) = a.shape();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    if m == 0 {
        return Ok(Matrix::identity(n));
    }
    // Work on Aᵀ A's right singular vectors: the SVD of A directly provides V.
    let d = svd(a)?;
    let r = d.rank(rel_tol);
    if d.v.cols() >= n {
        // m >= n: V is n x n orthogonal; kernel = trailing n - r columns.
        Ok(d.v.block(0, n, r, n))
    } else {
        // m < n: V returned by `svd` is n x m; the kernel needs the orthogonal
        // complement of the leading r columns of V.
        let vr = d.v.block(0, n, 0, r);
        complement(&vr, n)
    }
}

/// Orthonormal basis of the orthogonal complement of `span(u)` inside `R^dim`.
///
/// `u` must have `dim` rows (its columns need not be orthonormal).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] if `u` has the wrong number of rows;
/// propagates SVD convergence failures.
pub fn complement(u: &Matrix, dim: usize) -> Result<Matrix, LinalgError> {
    if u.cols() == 0 {
        return Ok(Matrix::identity(dim));
    }
    if u.rows() != dim {
        return Err(LinalgError::invalid_input(format!(
            "complement: basis has {} rows but the ambient dimension is {}",
            u.rows(),
            dim
        )));
    }
    // Orthonormalize the spanning set first (rank-revealing via the SVD when
    // the input is not already orthonormal), then extend it to a full
    // orthogonal basis with a Householder QR of the thin matrix — much cheaper
    // than an SVD of the `dim x dim` projector.
    let q = range_basis(u, DEFAULT_RELATIVE_TOLERANCE)?;
    if q.cols() == 0 {
        return Ok(Matrix::identity(dim));
    }
    if q.cols() >= dim {
        return Ok(Matrix::zeros(dim, 0));
    }
    let full = qr::factor_full(&q).q;
    Ok(full.block(0, dim, q.cols(), dim))
}

/// Subspace "subtraction" in the sense of Basile–Marro: an orthonormal basis of
/// `span(x) ∩ span(y)⊥`, i.e. the part of `span(x)` orthogonal to `span(y)`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] when the row counts differ; propagates
/// SVD convergence failures.
pub fn subtract(x: &Matrix, y: &Matrix, rel_tol: f64) -> Result<Matrix, LinalgError> {
    if x.cols() == 0 {
        return Ok(Matrix::zeros(x.rows(), 0));
    }
    if y.cols() == 0 {
        return range_basis(x, rel_tol);
    }
    if x.rows() != y.rows() {
        return Err(LinalgError::invalid_input(
            "subtract: bases live in different ambient dimensions",
        ));
    }
    let qy = range_basis(y, rel_tol)?;
    // Project the columns of x onto the complement of span(y).
    let proj = &x.clone() - &(&qy * &qy.transpose_matmul(x)?);
    range_basis(&proj, rel_tol)
}

/// Orthonormal basis of the sum `span(u) + span(v)`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] when the row counts differ; propagates
/// SVD convergence failures.
pub fn sum(u: &Matrix, v: &Matrix, rel_tol: f64) -> Result<Matrix, LinalgError> {
    if u.cols() == 0 {
        return range_basis(v, rel_tol);
    }
    if v.cols() == 0 {
        return range_basis(u, rel_tol);
    }
    if u.rows() != v.rows() {
        return Err(LinalgError::invalid_input(
            "sum: bases live in different ambient dimensions",
        ));
    }
    range_basis(&Matrix::hstack(&[u, v]), rel_tol)
}

/// Returns `true` when `span(u) ⊆ span(v)` to within `rel_tol`.
///
/// # Errors
///
/// Propagates SVD convergence failures.
pub fn is_contained(u: &Matrix, v: &Matrix, rel_tol: f64) -> Result<bool, LinalgError> {
    if u.cols() == 0 {
        return Ok(true);
    }
    let qv = range_basis(v, rel_tol)?;
    let residual = &u.clone() - &(&qv * &qv.transpose_matmul(u)?);
    let scale = u.norm_fro().max(1.0);
    Ok(residual.norm_fro() <= rel_tol.max(1e-9) * scale * 10.0)
}

/// Extends the orthonormal columns of `u` to a full orthonormal basis of
/// `R^dim`, returning an orthogonal `dim x dim` matrix whose leading columns
/// are (a re-orthonormalized copy of) `u`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] when the row count differs from `dim`;
/// propagates SVD convergence failures.
pub fn complete_basis(u: &Matrix, dim: usize) -> Result<Matrix, LinalgError> {
    if u.cols() == 0 {
        return Ok(Matrix::identity(dim));
    }
    if u.rows() != dim {
        return Err(LinalgError::invalid_input(
            "complete_basis: wrong ambient dimension",
        ));
    }
    let q = qr::orthonormalize_columns(u, DEFAULT_RELATIVE_TOLERANCE);
    if q.cols() >= dim {
        return Ok(q);
    }
    let full = qr::factor_full(&q).q;
    let comp = full.block(0, dim, q.cols(), dim);
    Ok(Matrix::hstack(&[&q, &comp]))
}

/// Orthogonal projector onto `span(u)` (given any spanning set `u`).
///
/// # Errors
///
/// Propagates SVD convergence failures.
pub fn projector(u: &Matrix, rel_tol: f64) -> Result<Matrix, LinalgError> {
    let q = range_basis(u, rel_tol)?;
    Ok(&q * &q.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    fn assert_orthonormal(q: &Matrix) {
        if q.cols() == 0 {
            return;
        }
        let qtq = q.transpose_matmul(q).unwrap();
        assert!(
            qtq.approx_eq(&Matrix::identity(q.cols()), 1e-9),
            "columns not orthonormal"
        );
    }

    #[test]
    fn rank_of_outer_product() {
        let u = Matrix::column(&[1.0, 2.0, 3.0]);
        let a = &u * &u.transpose();
        assert_eq!(rank(&a, TOL).unwrap(), 1);
        assert_eq!(rank(&Matrix::identity(4), TOL).unwrap(), 4);
        assert_eq!(rank(&Matrix::zeros(3, 2), TOL).unwrap(), 0);
    }

    #[test]
    fn null_space_of_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[1.0, 0.0, 1.0]]);
        let ns = null_space(&a, TOL).unwrap();
        assert_eq!(ns.cols(), 1);
        assert_orthonormal(&ns);
        assert!((&a * &ns).norm_fro() < 1e-9);
    }

    #[test]
    fn null_space_of_wide_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0, 0.0], &[0.0, 1.0, 0.0, 1.0]]);
        let ns = null_space(&a, TOL).unwrap();
        assert_eq!(ns.cols(), 2);
        assert!((&a * &ns).norm_fro() < 1e-9);
        assert_orthonormal(&ns);
    }

    #[test]
    fn range_basis_spans_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 4.0], &[0.0, 0.0, 0.0], &[1.0, 2.0, 4.0]]);
        let r = range_basis(&a, TOL).unwrap();
        assert_eq!(r.cols(), 1);
        assert_orthonormal(&r);
        // Each column of a lies in the span of r.
        assert!(is_contained(&a, &r, TOL).unwrap());
    }

    #[test]
    fn complement_dimensions_add_up() {
        let u = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0], &[0.0, 0.0]]);
        let c = complement(&u, 4).unwrap();
        assert_eq!(c.cols(), 2);
        assert_orthonormal(&c);
        assert!((&u.transpose() * &c).norm_fro() < 1e-10);
        // Complement of nothing is everything.
        assert_eq!(complement(&Matrix::zeros(3, 0), 3).unwrap().cols(), 3);
    }

    #[test]
    fn subtract_removes_shared_directions() {
        // span{e1, e2} \ span{e2} = span{e1}
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let y = Matrix::column(&[0.0, 1.0, 0.0]);
        let d = subtract(&x, &y, TOL).unwrap();
        assert_eq!(d.cols(), 1);
        assert!((d[(0, 0)].abs() - 1.0).abs() < 1e-9);
        // Subtracting nothing returns the original span.
        let full = subtract(&x, &Matrix::zeros(3, 0), TOL).unwrap();
        assert_eq!(full.cols(), 2);
    }

    #[test]
    fn sum_of_subspaces() {
        let u = Matrix::column(&[1.0, 0.0, 0.0]);
        let v = Matrix::column(&[0.0, 1.0, 0.0]);
        let s = sum(&u, &v, TOL).unwrap();
        assert_eq!(s.cols(), 2);
        assert_orthonormal(&s);
    }

    #[test]
    fn containment_checks() {
        let u = Matrix::column(&[1.0, 1.0, 0.0]);
        let v = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        assert!(is_contained(&u, &v, TOL).unwrap());
        assert!(!is_contained(&v, &u, TOL).unwrap());
    }

    #[test]
    fn complete_basis_is_orthogonal() {
        let u = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0], &[0.0]]);
        let full = complete_basis(&u, 4).unwrap();
        assert_eq!(full.shape(), (4, 4));
        assert_orthonormal(&full);
        // Leading column still spans u.
        assert!(is_contained(&u, &full.block(0, 4, 0, 1), TOL).unwrap());
    }

    #[test]
    fn projector_is_idempotent_and_symmetric() {
        let u = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0], &[0.0, 2.0]]);
        let p = projector(&u, TOL).unwrap();
        assert!(p.is_symmetric(1e-10));
        assert!((&(&p * &p) - &p).norm_fro() < 1e-9);
        // Projecting a vector already in the span leaves it unchanged.
        let x = u.col(0);
        assert!((&(&p * &x) - &x).norm_fro() < 1e-9);
    }
}
