//! Eigenvalue computations for general (unsymmetric) real matrices.

use crate::decomp::schur::{self, RealSchur};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::scalar::Complex;
use crate::workspace::{self, EigenWorkspace};

/// Computes all eigenvalues of a square real matrix.
///
/// The eigenvalues of a real matrix come in complex-conjugate pairs; they are
/// returned in the order induced by the real Schur form.
///
/// # Errors
///
/// Propagates the errors of [`schur::real_schur`].
///
/// ```
/// # use ds_linalg::{Matrix, eigen};
/// # fn main() -> Result<(), ds_linalg::LinalgError> {
/// let rotation = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
/// let eig = eigen::eigenvalues(&rotation)?;
/// assert!(eig.iter().all(|z| z.re.abs() < 1e-12 && (z.im.abs() - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>, LinalgError> {
    workspace::with_thread_pool(|pool| eigenvalues_in(a, pool.get(a.rows())))
}

/// Computes all eigenvalues of `a` using caller-provided scratch buffers.
///
/// Runs the eigenvalues-only Schur iteration ([`schur::real_schur_in`] with
/// `q = None`) entirely inside the workspace: the only allocation is the
/// returned vector (use [`eigenvalues_into`] to avoid even that).  The
/// eigenvalues are bit for bit those [`eigenvalues_from_schur`] reads off the
/// full decomposition's `T`.
///
/// # Errors
///
/// Propagates the errors of [`schur::real_schur`].
pub fn eigenvalues_in(a: &Matrix, ws: &mut EigenWorkspace) -> Result<Vec<Complex>, LinalgError> {
    // ds-lint: allow(hot-path-alloc) -- allocates only the caller-owned result vector, per the documented contract; the zero-alloc path is eigenvalues_into
    let mut out = Vec::with_capacity(a.rows());
    eigenvalues_into(a, ws, &mut out)?;
    Ok(out)
}

/// Computes all eigenvalues of `a` into a caller-provided vector (cleared
/// first) using caller-provided scratch buffers — zero heap allocation in
/// steady state.
///
/// # Errors
///
/// Propagates the errors of [`schur::real_schur`].
pub fn eigenvalues_into(
    a: &Matrix,
    ws: &mut EigenWorkspace,
    out: &mut Vec<Complex>,
) -> Result<(), LinalgError> {
    out.clear();
    ws.t.copy_from(a);
    schur::real_schur_in(&mut ws.t, None, &mut ws.refl)?;
    push_eigenvalues_from_schur(&ws.t, out);
    Ok(())
}

/// Extracts eigenvalues from a quasi-upper-triangular (real Schur) matrix.
pub fn eigenvalues_from_schur(t: &Matrix) -> Vec<Complex> {
    let mut out = Vec::with_capacity(t.rows());
    push_eigenvalues_from_schur(t, &mut out);
    out
}

/// Appends the eigenvalues of a quasi-upper-triangular matrix to `out`.
fn push_eigenvalues_from_schur(t: &Matrix, out: &mut Vec<Complex>) {
    let n = t.rows();
    out.reserve(n);
    let mut i = 0;
    while i < n {
        if i + 1 < n && t[(i + 1, i)] != 0.0 {
            let (l1, l2) = eig_2x2(t[(i, i)], t[(i, i + 1)], t[(i + 1, i)], t[(i + 1, i + 1)]);
            out.push(l1);
            out.push(l2);
            i += 2;
        } else {
            out.push(Complex::from_real(t[(i, i)]));
            i += 1;
        }
    }
}

/// Eigenvalues of the 2x2 matrix `[[a, b], [c, d]]`.
pub fn eig_2x2(a: f64, b: f64, c: f64, d: f64) -> (Complex, Complex) {
    let trace = a + d;
    let det = a * d - b * c;
    let half = trace / 2.0;
    let disc = half * half - det;
    if disc >= 0.0 {
        let root = disc.sqrt();
        (
            Complex::from_real(half + root),
            Complex::from_real(half - root),
        )
    } else {
        let root = (-disc).sqrt();
        (Complex::new(half, root), Complex::new(half, -root))
    }
}

/// Spectral abscissa: the largest real part among the eigenvalues.
///
/// # Errors
///
/// Propagates the errors of [`eigenvalues`].
pub fn spectral_abscissa(a: &Matrix) -> Result<f64, LinalgError> {
    let eig = eigenvalues(a)?;
    Ok(eig.iter().map(|z| z.re).fold(f64::NEG_INFINITY, f64::max))
}

/// Returns `true` when every eigenvalue has a strictly negative real part
/// (Hurwitz stability), using `tol` as the allowed margin around zero.
///
/// # Errors
///
/// Propagates the errors of [`eigenvalues`].
pub fn is_hurwitz(a: &Matrix, tol: f64) -> Result<bool, LinalgError> {
    Ok(spectral_abscissa(a)? < -tol.abs() || a.rows() == 0)
}

/// Re-exported Schur result type for callers that need the factors.
pub type Schur = RealSchur;

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_real_parts(v: &[Complex]) -> Vec<f64> {
        let mut r: Vec<f64> = v.iter().map(|z| z.re).collect();
        r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        r
    }

    #[test]
    fn eigenvalues_of_triangular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 5.0, -3.0], &[0.0, -2.0, 4.0], &[0.0, 0.0, 7.0]]);
        let e = eigenvalues(&a).unwrap();
        let re = sorted_real_parts(&e);
        assert!((re[0] + 2.0).abs() < 1e-10);
        assert!((re[1] - 1.0).abs() < 1e-10);
        assert!((re[2] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn complex_pair_from_rotation_scaling() {
        // Eigenvalues 2 ± 3i.
        let a = Matrix::from_rows(&[&[2.0, 3.0], &[-3.0, 2.0]]);
        let e = eigenvalues(&a).unwrap();
        assert!(e.iter().all(|z| (z.re - 2.0).abs() < 1e-10));
        assert!(e.iter().any(|z| (z.im - 3.0).abs() < 1e-10));
        assert!(e.iter().any(|z| (z.im + 3.0).abs() < 1e-10));
    }

    #[test]
    fn eig_2x2_real_and_complex() {
        let (l1, l2) = eig_2x2(3.0, 0.0, 0.0, -1.0);
        assert!((l1.re - 3.0).abs() < 1e-14 && l1.im == 0.0);
        assert!((l2.re + 1.0).abs() < 1e-14);
        let (c1, c2) = eig_2x2(0.0, 1.0, -1.0, 0.0);
        assert!((c1.im - 1.0).abs() < 1e-14);
        assert!((c2.im + 1.0).abs() < 1e-14);
    }

    #[test]
    fn stability_predicates() {
        let stable = Matrix::from_rows(&[&[-1.0, 10.0], &[0.0, -0.5]]);
        assert!(is_hurwitz(&stable, 1e-12).unwrap());
        let unstable = Matrix::from_rows(&[&[0.1, 0.0], &[0.0, -2.0]]);
        assert!(!is_hurwitz(&unstable, 1e-12).unwrap());
        assert!((spectral_abscissa(&unstable).unwrap() - 0.1).abs() < 1e-10);
    }

    #[test]
    fn trace_and_determinant_consistency() {
        let a = Matrix::from_fn(8, 8, |i, j| ((i * 5 + j * 9) % 7) as f64 * 0.4 - 1.0);
        let e = eigenvalues(&a).unwrap();
        let sum_re: f64 = e.iter().map(|z| z.re).sum();
        assert!((sum_re - a.trace()).abs() < 1e-8);
        // Product of eigenvalues equals determinant (compare moduli of products).
        let det = crate::decomp::lu::det(&a).unwrap();
        let prod = e.iter().fold(Complex::from_real(1.0), |acc, &z| acc * z);
        assert!((prod.re - det).abs() < 1e-6 * det.abs().max(1.0));
        assert!(prod.im.abs() < 1e-6 * det.abs().max(1.0));
    }
}
