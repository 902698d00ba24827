//! The matrix sign function and sign-based invariant subspaces.
//!
//! For a matrix `A` with no eigenvalues on the imaginary axis, the matrix sign
//! function `sign(A)` has eigenvalues `±1` with the same invariant subspaces as
//! `A`: the range of `(I - sign(A))/2` is the invariant subspace associated
//! with the open left half-plane.  The DAC 2006 passivity test uses this to
//! split the spectrum of the Hamiltonian matrix `A₄₄` (paper eq. (22)) without
//! requiring ordered Schur forms; [`hamiltonian_sign_into`] runs that
//! iteration on the symmetric `J·Z`, the general [`matrix_sign_into`] serves
//! every other caller.

use crate::decomp::{ldlt, lu};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::subspace;
use crate::workspace::{self, EigenWorkspace};

/// Minimum dimension at which the Newton iteration switches from the
/// substitution-based inverse to the cheaper triangular inverse.
const FAST_INVERSE_MIN_DIM: usize = 64;

/// Per-iteration scaling strategy for the Newton sign iteration
/// `Z ← (c Z + (c Z)⁻¹) / 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignScaling {
    /// Frobenius-norm scaling `c = (‖Z⁻¹‖_F / ‖Z‖_F)^{1/2}` — the geometric
    /// mean of the extremal singular-value estimates. Overflow-immune by
    /// construction (two norms, no determinant) and on Hamiltonian spectra it
    /// converges in fewer iterations than determinantal scaling, whose
    /// `|det Z|^{1/n} ≈ 1` for a ±λ-symmetric spectrum makes it a near no-op.
    Frobenius,
    /// Determinantal scaling `c = |det Z|^{-1/n}`, with the exponent
    /// accumulated in the log domain (`Σ ln|u_ii|`): the raw diagonal product
    /// over/underflows f64 near n ≈ 200 even for well-conditioned iterates,
    /// which would silently disable scaling (c = 1) exactly where it matters
    /// most.
    Determinantal,
    /// No scaling (plain Newton). Exists for diagnostics and convergence-rate
    /// regression tests.
    None,
}

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
    /// Per-iteration scaling strategy ([`SignScaling::Frobenius`] by default).
    pub scaling: SignScaling,
}

impl Default for SignOptions {
    fn default() -> Self {
        SignOptions {
            max_iterations: 100,
            tolerance: 1e-12,
            scaling: SignScaling::Frobenius,
        }
    }
}

/// Computes the matrix sign function of `a` by the scaled Newton iteration
/// `Z ← (c Z + (c Z)⁻¹) / 2` (see [`SignScaling`] for the scaling choices).
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
    let n = a.rows();
    if n == 0 {
        out.resize_uninit(0, 0);
        return Ok(0);
    }
    // `out` is the iterate Z; ws.w1 the inverse, ws.w2 the next iterate.
    out.copy_from(a);
    // Quadratic convergence: a step of relative size √tol leaves an error of
    // order tol, so stopping there skips one confirming iteration for free.
    let stop_tol = options.tolerance.sqrt();
    for iteration in 1..=options.max_iterations {
        lu::factor_into(out, &mut ws.lu)?;
        if ws.lu.singular {
            return Err(LinalgError::Singular {
                operation: "sign::matrix_sign (eigenvalue on the imaginary axis?)",
            });
        }
        // The triangular inverse costs (4/3)n³ against 2n³ for substitution;
        // below the crossover the substitution path is kept, which also keeps
        // small-matrix results bit-identical to earlier releases.
        if n >= FAST_INVERSE_MIN_DIM {
            // ws.w2 only holds the next iterate later in the loop, so it is
            // free to serve as the triangular-inverse scratch here.
            ws.lu.inverse_into_ws(&mut ws.w1, &mut ws.w2)?;
        } else {
            ws.lu.inverse_into(&mut ws.w1)?;
        }
        let c = match options.scaling {
            SignScaling::Frobenius => {
                let scale = (ws.w1.norm_fro() / out.norm_fro()).sqrt();
                if scale.is_finite() && scale > 0.0 {
                    scale
                } else {
                    1.0
                }
            }
            SignScaling::Determinantal => {
                let log_abs_det = ws.lu.log_abs_det();
                let scale = (-log_abs_det / n as f64).exp();
                if scale.is_finite() && scale > 0.0 {
                    scale
                } else {
                    1.0
                }
            }
            SignScaling::None => 1.0,
        };
        // next = Z·(c/2) + Z⁻¹·(1/(2c)), with the running difference and norm
        // accumulated in the same element order as the matrix-level formula.
        ws.w2.resize_uninit(n, n);
        let cz = c * 0.5;
        let ci = 0.5 / c;
        let mut diff_sq = 0.0;
        let mut norm_sq = 0.0;
        for ((nx, &z), &zi) in ws
            .w2
            .as_mut_slice()
            .iter_mut()
            .zip(out.as_slice())
            .zip(ws.w1.as_slice())
        {
            let value = z * cz + zi * ci;
            let delta = value - z;
            diff_sq += delta * delta;
            norm_sq += value * value;
            *nx = value;
        }
        let diff = diff_sq.sqrt();
        let scale = norm_sq.sqrt().max(f64::MIN_POSITIVE);
        std::mem::swap(out, &mut ws.w2);
        if diff <= stop_tol * scale {
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
/// `Z ← ½(c·Z + (c·Z)⁻¹)` with the same scaling and stopping rule
/// (`‖S‖_F = ‖Z‖_F`, `‖S⁻¹‖_F = ‖Z⁻¹‖_F`), but each step inverts a
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
    let stop_tol = options.tolerance.sqrt();
    for iteration in 1..=options.max_iterations {
        // ws.w2 ← J S⁻¹ J (ws.w1 is the inverse's scratch).
        ldlt::factor_into(out, &mut ws.ldlt)?;
        let log_abs_det = if ws.ldlt.singular {
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
            ws.lu.log_abs_det()
        } else {
            ws.ldlt.inverse_into(&mut ws.w1, &mut ws.w2)?;
            conjugate_by_j(&ws.w1, &mut ws.w2, n);
            ws.ldlt.log_abs_det()
        };
        let c = match options.scaling {
            SignScaling::Frobenius => (ws.w2.norm_fro() / out.norm_fro()).sqrt(),
            SignScaling::Determinantal => (-log_abs_det / m as f64).exp(),
            SignScaling::None => 1.0,
        };
        let c = if c.is_finite() && c > 0.0 { c } else { 1.0 };
        // next = S·(c/2) + J S⁻¹ J·(1/(2c)), elementwise on exactly symmetric
        // operands, so the next iterate is exactly symmetric too.
        ws.w1.resize_uninit(m, m);
        let cs = c * 0.5;
        let ci = 0.5 / c;
        let mut diff_sq = 0.0;
        let mut norm_sq = 0.0;
        for ((nx, &s), &si) in ws
            .w1
            .as_mut_slice()
            .iter_mut()
            .zip(out.as_slice())
            .zip(ws.w2.as_slice())
        {
            let value = s * cs + si * ci;
            let delta = value - s;
            diff_sq += delta * delta;
            norm_sq += value * value;
            *nx = value;
        }
        let diff = diff_sq.sqrt();
        let scale = norm_sq.sqrt().max(f64::MIN_POSITIVE);
        std::mem::swap(out, &mut ws.w1);
        if diff <= stop_tol * scale {
            jt_mul_in_place(out, n);
            return Ok(iteration);
        }
    }
    Err(LinalgError::ConvergenceFailure {
        operation: "sign::hamiltonian_sign",
        iterations: options.max_iterations,
    })
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

/// `dst ← J·X·J` for a symmetric `2n × 2n` matrix `X`:
/// `J X J = [[−X₂₂, X₂₁], [X₁₂, −X₁₁]]`, exactly symmetric when `X` is.
fn conjugate_by_j(x: &Matrix, dst: &mut Matrix, n: usize) {
    let m = 2 * n;
    dst.resize_uninit(m, m);
    let xd = x.as_slice();
    for (i, row) in dst.as_mut_slice().chunks_exact_mut(m).enumerate() {
        let top = i < n;
        let src = if top { i + n } else { i - n };
        let (s_lo, s_hi) = xd[src * m..(src + 1) * m].split_at(n);
        let (d_lo, d_hi) = row.split_at_mut(n);
        for (d, &s) in d_lo.iter_mut().zip(s_hi) {
            *d = if top { -s } else { s };
        }
        for (d, &s) in d_hi.iter_mut().zip(s_lo) {
            *d = if top { s } else { -s };
        }
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

/// Result of a spectral split along the imaginary axis.
#[derive(Debug, Clone)]
pub struct SpectralSplit {
    /// Orthonormal basis of the invariant subspace for eigenvalues with
    /// negative real part (`n x n_stable`).
    pub stable_basis: Matrix,
    /// Orthonormal basis of the invariant subspace for eigenvalues with
    /// positive real part (`n x n_unstable`).
    pub unstable_basis: Matrix,
}

/// Splits `R^n` into the stable and antistable invariant subspaces of `a`
/// using the matrix sign function.
///
/// # Errors
///
/// Propagates the errors of [`matrix_sign`]; in particular the split is
/// rejected when `a` has eigenvalues on the imaginary axis.
pub fn spectral_split(a: &Matrix, options: &SignOptions) -> Result<SpectralSplit, LinalgError> {
    let n = a.rows();
    let s = matrix_sign(a, options)?;
    let identity = Matrix::identity(n);
    let p_stable = (&identity - &s).scale(0.5);
    let p_unstable = (&identity + &s).scale(0.5);
    // The projectors have eigenvalues ≈ 0/1, so a generous relative tolerance
    // cleanly separates the range.
    let stable_basis = subspace::range_basis(&p_stable, 1e-6)?;
    let unstable_basis = subspace::range_basis(&p_unstable, 1e-6)?;
    if stable_basis.cols() + unstable_basis.cols() != n {
        return Err(LinalgError::invalid_input(format!(
            "spectral split dimensions {} + {} do not add up to {} (eigenvalues too close to the imaginary axis)",
            stable_basis.cols(),
            unstable_basis.cols(),
            n
        )));
    }
    Ok(SpectralSplit {
        stable_basis,
        unstable_basis,
    })
}

/// Orthonormal basis of the stable (left-half-plane) invariant subspace of `a`.
///
/// # Errors
///
/// Propagates the errors of [`spectral_split`].
pub fn stable_invariant_subspace(a: &Matrix, options: &SignOptions) -> Result<Matrix, LinalgError> {
    Ok(spectral_split(a, options)?.stable_basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen;

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
    fn stable_subspace_of_block_diagonal() {
        let a = Matrix::block_diag(&[
            &Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, -2.0]]),
            &Matrix::from_rows(&[&[3.0]]),
        ]);
        let split = spectral_split(&a, &SignOptions::default()).unwrap();
        assert_eq!(split.stable_basis.cols(), 2);
        assert_eq!(split.unstable_basis.cols(), 1);
        // Invariance: A * V_stable stays inside span(V_stable).
        let av = &a * &split.stable_basis;
        assert!(subspace::is_contained(&av, &split.stable_basis, 1e-8).unwrap());
    }

    #[test]
    fn stable_subspace_matches_eigen_count() {
        // Build a matrix with 3 stable and 2 unstable eigenvalues.
        let d = Matrix::diag(&[-1.0, -2.0, -0.3, 0.7, 1.5]);
        // Similarity transform with a well-conditioned matrix.
        let t = Matrix::from_fn(5, 5, |i, j| {
            if i == j {
                1.0
            } else {
                0.1 * ((i + 2 * j) % 3) as f64
            }
        });
        let t_inv = lu::inverse(&t).unwrap();
        let a = &(&t * &d) * &t_inv;
        let basis = stable_invariant_subspace(&a, &SignOptions::default()).unwrap();
        assert_eq!(basis.cols(), 3);
        // Restriction of A to the subspace is Hurwitz.
        let restricted = basis.transpose_matmul(&(&a * &basis)).unwrap();
        assert!(eigen::is_hurwitz(&restricted, 1e-9).unwrap());
    }

    #[test]
    fn unscaled_newton_still_converges() {
        let a = Matrix::diag(&[-2.0, -0.5, 3.0, 10.0]);
        let options = SignOptions {
            scaling: SignScaling::None,
            ..SignOptions::default()
        };
        let s = matrix_sign(&a, &options).unwrap();
        assert!(s.approx_eq(&Matrix::diag(&[-1.0, -1.0, 1.0, 1.0]), 1e-10));
    }

    #[test]
    fn scaling_survives_det_overflow() {
        // 300 eigenvalues of magnitude 100 → |det| = 10^600 overflows f64, so
        // the pre-fix scaling guard silently fell back to c = 1. The log-domain
        // path must keep scaling active and converge quickly.
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
        let options = SignOptions {
            scaling: SignScaling::Determinantal,
            ..SignOptions::default()
        };
        let iterations = workspace::with_thread_pool(|pool| {
            matrix_sign_into(&a, &options, pool.get(n), &mut out)
        })
        .unwrap();
        // With c = |det|^{-1/n} = 1/100 the first step already maps the
        // spectrum to ±1; unscaled Newton needs ~10 halvings to pull 100 → 1.
        assert!(
            iterations <= 4,
            "determinantal scaling ineffective: {iterations} iterations"
        );
        for i in 0..n {
            let want = if i % 2 == 0 { 1.0 } else { -1.0 };
            assert!((out[(i, i)] - want).abs() < 1e-10);
        }
    }

    #[test]
    fn frobenius_scaling_is_overflow_immune_and_fast() {
        // Same spectrum as the determinantal overflow fixture: Frobenius
        // scaling sees c = √(‖Z⁻¹‖_F/‖Z‖_F) = 1/100 without ever touching a
        // determinant, so there is nothing to overflow in the first place.
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
    fn scaled_newton_beats_unscaled_at_n200() {
        // Well-conditioned Hamiltonian H = diag(D, −D) (so J·H is symmetric)
        // with eigenvalue magnitudes 10²..10⁴: the geometric mean is 10³, so
        // the first scaled step maps the spectrum near ±1, while unscaled
        // Newton has to halve the extremal magnitudes all the way down.
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
        let unscaled_options = SignOptions {
            scaling: SignScaling::None,
            ..SignOptions::default()
        };
        let unscaled = workspace::with_thread_pool(|pool| {
            matrix_sign_into(&h, &unscaled_options, pool.get(n), &mut out)
        })
        .unwrap();
        // Scaling must be active (c ≠ 1 ⇒ strictly fewer iterations) and the
        // absolute count is pinned so a silent scaling regression — like the
        // determinantal-overflow fallback this module once had — trips here.
        assert!(
            scaled < unscaled,
            "scaled Newton took {scaled} iterations, unscaled {unscaled}"
        );
        assert!(
            scaled <= 8,
            "scaled Newton convergence regressed: {scaled} iterations at n = {n}"
        );
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
