//! The matrix sign function.
//!
//! For a matrix `A` with no eigenvalues on the imaginary axis, the matrix sign
//! function `sign(A)` has eigenvalues `±1` with the same invariant subspaces as
//! `A`: the range of `(I - sign(A))/2` is the invariant subspace associated
//! with the open left half-plane.  The DAC 2006 passivity test uses this to
//! split the spectrum of the Hamiltonian matrix `A₄₄` (paper eq. (22)) without
//! requiring ordered Schur forms; [`hamiltonian_sign_into`] runs that
//! iteration on the symmetric `J·Z`, and the general [`matrix_sign_into`] is
//! its reference.  Both take the same Frobenius-scaled Newton step.

use crate::decomp::{ldlt, lu};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::workspace::{self, EigenWorkspace};

/// Options controlling the Newton iteration for the matrix sign function.
#[derive(Debug, Clone, Copy)]
pub struct SignOptions {
    /// Maximum number of Newton iterations.
    pub max_iterations: usize,
    /// Target accuracy of the converged sign. The iteration stops when
    /// `‖Z_{k+1} − Z_k‖_F / ‖Z_{k+1}‖_F ≤ √tolerance`: convergence is
    /// quadratic, so a step of size √tolerance means the error committed by
    /// not taking the next step is already below `tolerance`.
    pub tolerance: f64,
}

impl Default for SignOptions {
    fn default() -> Self {
        SignOptions {
            max_iterations: 100,
            tolerance: 1e-12,
        }
    }
}

/// Computes the matrix sign function of `a` by the scaled Newton iteration
/// `Z ← (c Z + (c Z)⁻¹) / 2` with the Frobenius scale
/// `c = (‖Z⁻¹‖_F / ‖Z‖_F)^{1/2}`.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::Singular`] if an iterate becomes singular — this happens
///   exactly when `a` has an eigenvalue on (or numerically on) the imaginary
///   axis, for which the sign function is undefined.
/// * [`LinalgError::ConvergenceFailure`] if the iteration stalls.
pub fn matrix_sign(a: &Matrix, options: &SignOptions) -> Result<Matrix, LinalgError> {
    let mut out = Matrix::zeros(0, 0);
    workspace::with_thread_pool(|pool| {
        matrix_sign_into(a, options, pool.get(a.rows()), &mut out).map(|_| ())
    })?;
    Ok(out)
}

/// Computes the matrix sign function into a caller-provided output matrix
/// using caller-provided scratch buffers: the scaled Newton iteration runs
/// with zero heap allocation in steady state (the LU factorization, the
/// inverse and the next iterate all live in the workspace).
///
/// Returns the number of Newton iterations performed, so convergence-rate
/// regressions (e.g. scaling silently degrading to `c = 1`) are observable.
///
/// # Errors
///
/// Same as [`matrix_sign`].
pub fn matrix_sign_into(
    a: &Matrix,
    options: &SignOptions,
    ws: &mut EigenWorkspace,
    out: &mut Matrix,
) -> Result<usize, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "sign::matrix_sign",
            shape: a.shape(),
        });
    }
    if a.rows() == 0 {
        out.resize_uninit(0, 0);
        return Ok(0);
    }
    // `out` is the iterate Z; ws.w1 the inverse, ws.w2 the next iterate.
    out.copy_from(a);
    let mut norm = out.norm_fro();
    for iteration in 1..=options.max_iterations {
        lu::factor_into(out, &mut ws.lu)?;
        if ws.lu.singular {
            return Err(LinalgError::Singular {
                operation: "sign::matrix_sign (eigenvalue on the imaginary axis?)",
            });
        }
        // ws.w2 only holds the next iterate later in the step, so it is free
        // to serve as the triangular-inverse scratch here.
        ws.lu.inverse_into_ws(&mut ws.w1, &mut ws.w2)?;
        if newton_step(out, &mut norm, &ws.w1, &mut ws.w2, options.tolerance) {
            return Ok(iteration);
        }
    }
    Err(LinalgError::ConvergenceFailure {
        operation: "sign::matrix_sign",
        iterations: options.max_iterations,
    })
}

/// Computes `sign(H)` of a Hamiltonian matrix `H` (`J·H` symmetric, with
/// `J = [[0, I], [−I, 0]]`) by the structure-preserving Newton iteration of
/// R. Byers ("Solving the algebraic Riccati equation with the matrix sign
/// function", Linear Algebra Appl. 85, 1987).
///
/// The iterate is carried as the symmetric `S = J·Z` and updated as
/// `S ← ½(c·S + c⁻¹·J S⁻¹ J)`, which is [`matrix_sign_into`]'s
/// `Z ← ½(c·Z + (c·Z)⁻¹)` through the same Newton step, scale and stopping
/// rule (`‖S‖_F = ‖Z‖_F`, `‖S⁻¹‖_F = ‖Z⁻¹‖_F`), but each step inverts a
/// symmetric matrix through a Bunch–Kaufman `LDLᵀ` ([`ldlt`]) at half the
/// flops of LU.  Only the Hamiltonian part of `h` is used: `J·H` is
/// symmetrized first, and every iterate stays exactly symmetric.  `out`
/// receives `sign(H) = Jᵀ·S`, so `J·out` is exactly symmetric.
///
/// A singular iterate ends the iteration, so the `LDLᵀ` pivot test must
/// decide no more eagerly than [`matrix_sign_into`]'s LU test: a pivot the
/// `LDLᵀ` flags is confirmed with that LU test on `Z = Jᵀ·S`, and an iterate
/// the LU test finds regular takes its step through the LU inverse.
///
/// Returns the number of Newton iterations performed.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular and
///   [`LinalgError::InvalidInput`] for odd-dimensional input.
/// * [`LinalgError::Singular`] when the LU test confirms a singular iterate
///   (an eigenvalue on, or numerically on, the imaginary axis).
/// * [`LinalgError::ConvergenceFailure`] if the iteration stalls — which is
///   how a simple eigenvalue exactly on the imaginary axis ends: the exact
///   structure keeps it there, where the general iteration's roundoff
///   drifts it off the axis.
pub fn hamiltonian_sign_into(
    h: &Matrix,
    options: &SignOptions,
    ws: &mut EigenWorkspace,
    out: &mut Matrix,
) -> Result<usize, LinalgError> {
    if !h.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "sign::hamiltonian_sign",
            shape: h.shape(),
        });
    }
    let m = h.rows();
    if !m.is_multiple_of(2) {
        return Err(LinalgError::invalid_input(
            "sign::hamiltonian_sign needs an even dimension",
        ));
    }
    if m == 0 {
        out.resize_uninit(0, 0);
        return Ok(0);
    }
    let n = m / 2;
    j_mul_symmetrized(h, out, n);
    let mut norm = out.norm_fro();
    for iteration in 1..=options.max_iterations {
        // ws.w2 ← J S⁻¹ J (ws.w1 is the inverse's scratch).
        ldlt::factor_into(out, &mut ws.ldlt)?;
        if ws.ldlt.singular {
            ws.t.copy_from(out);
            jt_mul_in_place(&mut ws.t, n);
            lu::factor_into(&ws.t, &mut ws.lu)?;
            if ws.lu.singular {
                return Err(LinalgError::Singular {
                    operation: "sign::hamiltonian_sign (eigenvalue on the imaginary axis?)",
                });
            }
            // Z⁻¹ = S⁻¹·J, so J S⁻¹ J = J·Z⁻¹ (symmetric up to roundoff).
            ws.lu.inverse_into_ws(&mut ws.w1, &mut ws.w2)?;
            j_mul_symmetrized(&ws.w1, &mut ws.w2, n);
        } else {
            // J S⁻¹ J straight from the inverse's permuting scatter.
            ws.ldlt.conjugated_inverse_into(&mut ws.w2, &mut ws.w1)?;
        }
        // The step is elementwise on exactly symmetric operands, so the next
        // iterate is exactly symmetric too.
        if newton_step(out, &mut norm, &ws.w2, &mut ws.w1, options.tolerance) {
            jt_mul_in_place(out, n);
            return Ok(iteration);
        }
    }
    Err(LinalgError::ConvergenceFailure {
        operation: "sign::hamiltonian_sign",
        iterations: options.max_iterations,
    })
}

/// The Newton step both sign iterations take: `x ← ½(c·x + c⁻¹·y)`, where
/// `y` is the iterate's inverse (conjugated by `J` for the symmetric iterate)
/// and `c = (‖y‖_F / ‖x‖_F)^{1/2}` is the Frobenius scale, the geometric mean
/// of the extremal singular-value estimates (two norms, no determinant to
/// overflow).  `x_norm` carries `‖x‖_F` from one step to the next: the update
/// sums the squares of the new iterate in [`Matrix::norm_fro`]'s order, so the
/// carried norm equals `x.norm_fro()` bit for bit.  `next` is scratch that
/// trades places with `x`.
///
/// Returns `true` once `‖x_{k+1} − x_k‖_F ≤ √tolerance·‖x_{k+1}‖_F`:
/// convergence is quadratic, so a step of relative size √tolerance leaves an
/// error of order `tolerance`, and stopping there skips one confirming step.
fn newton_step(
    x: &mut Matrix,
    x_norm: &mut f64,
    y: &Matrix,
    next: &mut Matrix,
    tolerance: f64,
) -> bool {
    let c = (y.norm_fro() / *x_norm).sqrt();
    let c = if c.is_finite() && c > 0.0 { c } else { 1.0 };
    next.resize_uninit(x.rows(), x.cols());
    let cx = c * 0.5;
    let cy = 0.5 / c;
    let mut diff_sq = 0.0;
    let mut norm_sq = 0.0;
    for ((nx, &xv), &yv) in next
        .as_mut_slice()
        .iter_mut()
        .zip(x.as_slice())
        .zip(y.as_slice())
    {
        let value = xv * cx + yv * cy;
        let delta = value - xv;
        diff_sq += delta * delta;
        norm_sq += value * value;
        *nx = value;
    }
    std::mem::swap(x, next);
    *x_norm = norm_sq.sqrt();
    diff_sq.sqrt() <= tolerance.sqrt() * x_norm.max(f64::MIN_POSITIVE)
}

/// [`hamiltonian_sign_into`] on this thread's workspace pool.
///
/// # Errors
///
/// Same as [`hamiltonian_sign_into`].
pub fn hamiltonian_sign(h: &Matrix, options: &SignOptions) -> Result<Matrix, LinalgError> {
    let mut out = Matrix::zeros(0, 0);
    workspace::with_thread_pool(|pool| {
        hamiltonian_sign_into(h, options, pool.get(h.rows()), &mut out).map(|_| ())
    })?;
    Ok(out)
}

/// `x ← Jᵀ·x` for `2n` rows: the halves trade places and the new top half
/// changes sign.
fn jt_mul_in_place(x: &mut Matrix, n: usize) {
    let cols = x.cols();
    let (top, bottom) = x.as_mut_slice().split_at_mut(n * cols);
    top.swap_with_slice(bottom);
    for v in top.iter_mut() {
        *v = -*v;
    }
}

/// `dst ← sym(J·Y)` for a `2n × 2n` matrix `Y` whose `J·Y` is symmetric up
/// to roundoff (a Hamiltonian matrix or its inverse); `(J·Y)[i]` is
/// `Y[i + n]` on the top half and `−Y[i − n]` on the bottom half.
fn j_mul_symmetrized(y: &Matrix, dst: &mut Matrix, n: usize) {
    let m = 2 * n;
    dst.resize_uninit(m, m);
    let yd = y.as_slice();
    let jy = |i: usize, j: usize| {
        if i < n {
            yd[(i + n) * m + j]
        } else {
            -yd[(i - n) * m + j]
        }
    };
    let dd = dst.as_mut_slice();
    for i in 0..m {
        for j in 0..=i {
            let v = 0.5 * (jy(i, j) + jy(j, i));
            dd[i * m + j] = v;
            dd[j * m + i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_of_definite_diagonal() {
        let a = Matrix::diag(&[-2.0, -0.5, 3.0]);
        let s = matrix_sign(&a, &SignOptions::default()).unwrap();
        assert!(s.approx_eq(&Matrix::diag(&[-1.0, -1.0, 1.0]), 1e-10));
    }

    #[test]
    fn sign_is_involutory() {
        let a = Matrix::from_rows(&[&[-3.0, 1.0, 0.5], &[0.0, 2.0, -1.0], &[0.0, 0.0, -1.0]]);
        let s = matrix_sign(&a, &SignOptions::default()).unwrap();
        assert!((&s * &s).approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn sign_commutes_with_argument() {
        let a = Matrix::from_rows(&[&[-1.0, 2.0], &[0.5, -4.0]]);
        let s = matrix_sign(&a, &SignOptions::default()).unwrap();
        let as_ = &a * &s;
        let sa = &s * &a;
        assert!(as_.approx_eq(&sa, 1e-8));
    }

    #[test]
    fn imaginary_axis_eigenvalue_is_rejected() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]); // eigenvalues ±i
        assert!(matrix_sign(&a, &SignOptions::default()).is_err());
    }

    #[test]
    fn frobenius_scaling_is_overflow_immune_and_fast() {
        // 300 eigenvalues of magnitude 100, so |det| = 10^600 overflows f64:
        // Frobenius scaling sees c = √(‖Z⁻¹‖_F/‖Z‖_F) = 1/100 without ever
        // touching a determinant, so there is nothing to overflow.
        let n = 300;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    100.0
                } else {
                    -100.0
                }
            } else {
                0.0
            }
        });
        let mut out = Matrix::zeros(0, 0);
        let iterations = workspace::with_thread_pool(|pool| {
            matrix_sign_into(&a, &SignOptions::default(), pool.get(n), &mut out)
        })
        .unwrap();
        assert!(
            iterations <= 4,
            "Frobenius scaling ineffective: {iterations} iterations"
        );
        for i in 0..n {
            let want = if i % 2 == 0 { 1.0 } else { -1.0 };
            assert!((out[(i, i)] - want).abs() < 1e-10);
        }
    }

    #[test]
    fn scaled_newton_converges_fast_at_n200() {
        // Well-conditioned Hamiltonian H = diag(D, −D) (so J·H is symmetric)
        // with eigenvalue magnitudes 10²..10⁴: the geometric mean is 10³, so
        // the first scaled step maps the spectrum near ±1, while unscaled
        // Newton would have to halve the extremal magnitudes all the way down.
        let half = 100;
        let n = 2 * half;
        let magnitude = |i: usize| 10f64.powf(2.0 + 2.0 * (i as f64) / ((half - 1) as f64));
        let h = Matrix::from_fn(n, n, |i, j| {
            if i != j {
                0.0
            } else if i < half {
                -magnitude(i)
            } else {
                magnitude(i - half)
            }
        });
        let mut out = Matrix::zeros(0, 0);
        let scaled = workspace::with_thread_pool(|pool| {
            matrix_sign_into(&h, &SignOptions::default(), pool.get(n), &mut out)
        })
        .unwrap();
        for i in 0..n {
            let want = if i < half { -1.0 } else { 1.0 };
            assert!((out[(i, i)] - want).abs() < 1e-10);
        }
        // The absolute count is pinned so a silent scaling regression (c
        // falling back to 1, as an overflowing determinant once made it) trips
        // here.
        assert!(
            scaled <= 8,
            "scaled Newton convergence regressed: {scaled} iterations at n = {n}"
        );
    }

    #[test]
    fn carried_norm_is_the_frobenius_norm_bit_for_bit() {
        let x0 = Matrix::from_fn(37, 37, |i, j| ((i * 7 + j * 13) % 11) as f64 * 0.3 - 1.4);
        let y = Matrix::from_fn(37, 37, |i, j| ((i * 5 + j * 3) % 7) as f64 * 0.2 - 0.6);
        let mut x = x0.clone();
        let mut norm = x.norm_fro();
        let mut next = Matrix::zeros(0, 0);
        for _ in 0..3 {
            newton_step(&mut x, &mut norm, &y, &mut next, 1e-12);
            assert_eq!(norm.to_bits(), x.norm_fro().to_bits());
        }
        assert_ne!(x, x0);
    }

    #[test]
    fn empty_matrix() {
        let s = matrix_sign(&Matrix::zeros(0, 0), &SignOptions::default()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matrix_sign(&Matrix::zeros(2, 3), &SignOptions::default()).is_err());
    }
}
