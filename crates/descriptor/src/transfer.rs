//! Transfer-function evaluation for descriptor systems.
//!
//! `G(s) = D + C (sE − A)⁻¹ B` is evaluated at complex frequencies by solving
//! the real augmented system
//!
//! ```text
//! [ Re(s)E − A   −Im(s)E ] [X_re]   [B]
//! [ Im(s)E    Re(s)E − A ] [X_im] = [0]
//! ```
//!
//! which avoids a complex matrix type.  At a real `s` the imaginary blocks
//! are zero, so the `n × n` system `(sE − A) X = B` is solved instead (see
//! [`evaluate`]).

use crate::error::DescriptorError;
use crate::system::{DescriptorSystem, StateSpace};
use ds_linalg::decomp::{lu, symmetric};
use ds_linalg::{Complex, Matrix};

/// The value of a (matrix) transfer function at one complex frequency, stored
/// as real and imaginary parts.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferValue {
    /// Real part of `G(s)`.
    pub re: Matrix,
    /// Imaginary part of `G(s)`.
    pub im: Matrix,
}

impl TransferValue {
    /// Maximum absolute entry over both parts.
    pub fn norm_max(&self) -> f64 {
        self.re.norm_max().max(self.im.norm_max())
    }

    /// Entry-wise difference `self − other` as a new [`TransferValue`].
    pub fn sub(&self, other: &TransferValue) -> TransferValue {
        TransferValue {
            re: &self.re - &other.re,
            im: &self.im - &other.im,
        }
    }

    /// The Hermitian part `(G + Gᴴ)/2 · 2 = G + Gᴴ` represented as an
    /// equivalent real symmetric matrix of twice the size:
    /// `H = S + iK ⪰ 0  ⇔  [[S, −K], [K, S]] ⪰ 0`.
    pub fn popov_real_embedding(&self) -> Matrix {
        let s = &self.re + &self.re.transpose();
        let k = &self.im - &self.im.transpose();
        Matrix::from_blocks_2x2(&s, &k.scale(-1.0), &k, &s)
    }

    /// Smallest eigenvalue of the Hermitian matrix `G + Gᴴ` (the Popov
    /// function when evaluated at `s = jω`).
    ///
    /// # Errors
    ///
    /// Propagates symmetric-eigensolver failures.
    pub fn popov_min_eigenvalue(&self) -> Result<f64, DescriptorError> {
        let embedded = self.popov_real_embedding();
        Ok(symmetric::min_eigenvalue(&embedded)?)
    }
}

/// Evaluates `G(s)` for a descriptor system at the complex point `s`.
///
/// At a real `s` (the Markov probes, `ω = 0`) the augmented system is
/// `diag(sE − A, sE − A)`: its LU repeats the `n × n` pivots twice and its
/// imaginary solution is zero.  That case solves the `n × n` system, which
/// gives the same real part bit for bit and an all-zero imaginary part.  It
/// keeps the augmented solve's singularity rule: a pivot at or below
/// `ε · 2n · max(1, max|sE − A|)` reports [`DescriptorError::SingularPencil`],
/// not the `ε · n` of the `n × n` LU.  The wider margin is a verdict
/// decision, not a speed one: with `ε · n`, near-singular samples of
/// strongly frequency-scaled decks turn from errors into verdicts, some of
/// them wrong.
///
/// # Errors
///
/// Returns [`DescriptorError::SingularPencil`] when `sE − A` is singular at the
/// requested point (i.e. `s` is a pole), and propagates other numerical errors.
pub fn evaluate(sys: &DescriptorSystem, s: Complex) -> Result<TransferValue, DescriptorError> {
    let n = sys.order();
    let e = sys.e();
    let a = sys.a();
    let real_block = &e.scale(s.re) - a;
    let singular = |err| match err {
        ds_linalg::LinalgError::Singular { .. } => DescriptorError::SingularPencil,
        other => DescriptorError::Numerical(other),
    };
    if s.im == 0.0 {
        let f = lu::factor(&real_block).map_err(singular)?;
        let tol = f64::EPSILON * real_block.norm_max().max(1.0) * (2 * n) as f64;
        if (0..n).any(|k| f.lu[(k, k)].abs() <= tol) {
            return Err(DescriptorError::SingularPencil);
        }
        let x = f.solve(sys.b()).map_err(singular)?;
        return Ok(TransferValue {
            re: &(sys.c() * &x) + sys.d(),
            im: Matrix::zeros(sys.num_outputs(), sys.num_inputs()),
        });
    }
    let imag_block = e.scale(s.im);
    // Augmented real system.
    let aug = Matrix::from_blocks_2x2(
        &real_block,
        &imag_block.scale(-1.0),
        &imag_block,
        &real_block,
    );
    let rhs = Matrix::vstack(&[sys.b(), &Matrix::zeros(n, sys.num_inputs())]);
    let x = lu::solve(&aug, &rhs).map_err(singular)?;
    let x_re = x.block(0, n, 0, sys.num_inputs());
    let x_im = x.block(n, 2 * n, 0, sys.num_inputs());
    Ok(TransferValue {
        re: &(sys.c() * &x_re) + sys.d(),
        im: sys.c() * &x_im,
    })
}

/// Evaluates `G(jω)` on the imaginary axis.
///
/// # Errors
///
/// See [`evaluate`].
pub fn evaluate_jomega(
    sys: &DescriptorSystem,
    omega: f64,
) -> Result<TransferValue, DescriptorError> {
    evaluate(sys, Complex::new(0.0, omega))
}

/// Evaluates the transfer function of a regular state space at `s`.
///
/// # Errors
///
/// See [`evaluate`].
pub fn evaluate_state_space(ss: &StateSpace, s: Complex) -> Result<TransferValue, DescriptorError> {
    evaluate(&ss.to_descriptor(), s)
}

/// Compares the transfer functions of two descriptor systems on a set of probe
/// frequencies (both on and off the imaginary axis) and returns the largest
/// absolute deviation.  Used throughout the test suites to verify that system
/// transformations preserve `G(s)`.
///
/// # Errors
///
/// Propagates evaluation errors (poles at a probe point are skipped).
pub fn max_deviation(
    sys1: &DescriptorSystem,
    sys2: &DescriptorSystem,
    probes: &[Complex],
) -> Result<f64, DescriptorError> {
    let mut worst: f64 = 0.0;
    let mut evaluated = 0;
    for &s in probes {
        let g1 = match evaluate(sys1, s) {
            Ok(v) => v,
            Err(DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(e),
        };
        let g2 = match evaluate(sys2, s) {
            Ok(v) => v,
            Err(DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(e),
        };
        worst = worst.max(g1.sub(&g2).norm_max());
        evaluated += 1;
    }
    if evaluated == 0 {
        return Err(DescriptorError::invalid_input(
            "all probe points hit poles of the systems being compared",
        ));
    }
    Ok(worst)
}

/// A default set of probe frequencies for transfer-function comparisons:
/// a mix of imaginary-axis points and general complex points away from typical
/// pole locations.
pub fn default_probe_points() -> Vec<Complex> {
    vec![
        Complex::new(0.0, 0.1),
        Complex::new(0.0, 1.0),
        Complex::new(0.0, 10.0),
        Complex::new(0.0, 100.0),
        Complex::new(1.0, 0.5),
        Complex::new(2.5, -3.0),
        Complex::new(0.3, 7.0),
        Complex::new(5.0, 0.0),
    ]
}

/// Markov-parameter estimate `M₁ ≈ lim_{σ→∞} [G(σ) − G(−σ)] / (2σ)` evaluated
/// by sampling at a large real frequency; exact when `G` has polynomial degree
/// at most one (i.e. `M_k = 0` for `k ≥ 2`), which the passivity flow
/// guarantees for passive systems.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn sample_m1(sys: &DescriptorSystem, sigma: f64) -> Result<Matrix, DescriptorError> {
    let g_plus = evaluate(sys, Complex::from_real(sigma))?;
    let g_minus = evaluate(sys, Complex::from_real(-sigma))?;
    Ok((&g_plus.re - &g_minus.re).scale(1.0 / (2.0 * sigma)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// G(s) = 1 / (s + 1) as a descriptor system with a redundant algebraic state.
    fn first_order() -> DescriptorSystem {
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let c = Matrix::from_rows(&[&[1.0, 0.0]]);
        let d = Matrix::zeros(1, 1);
        DescriptorSystem::new(e, a, b, c, d).unwrap()
    }

    /// G(s) = R + sL (impedance of a series RL branch), an impulsive system.
    fn series_rl(r: f64, l: f64) -> DescriptorSystem {
        // States: current i (dynamic), auxiliary algebraic variable v_l.
        //   L di/dt = v_l            (E row with L)
        //   0       = -v_l - R i + u (algebraic)
        //   y       = v_l + R i      ... easier: use the 2x2 construction below.
        // Simpler exact realization of  G(s) = R + s L:
        //   E = [[0, L],[0, 0]], A = [[-1, 0],[0, -1]], B = [1, ?]...
        // Use the standard polynomial realization:
        //   G(s) = R + s L  =  D + C (sE - A)^{-1} B with
        //   E = [[0, 1],[0, 0]], A = I, B = [0, 1]ᵀ, C = [L, 0], D = R... check:
        //   (sE - A) = [[-1, s],[0, -1]], inverse = [[-1, -s],[0, -1]],
        //   C (sE-A)^{-1} B = [L, 0] [[-1,-s],[0,-1]] [0,1]ᵀ = [L, 0]·[-s, -1]ᵀ = -Ls.
        // So pick C = [-L, 0] to get +Ls.
        let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[-l, 0.0]]);
        let d = Matrix::filled(1, 1, r);
        DescriptorSystem::new(e, a, b, c, d).unwrap()
    }

    /// `G(s)` through the `2n × 2n` augmented system for every `s`, as the
    /// real axis was evaluated before it got its own `n × n` solve.
    fn augmented(sys: &DescriptorSystem, s: Complex) -> Result<TransferValue, DescriptorError> {
        let n = sys.order();
        let real_block = &sys.e().scale(s.re) - sys.a();
        let imag_block = sys.e().scale(s.im);
        let aug = Matrix::from_blocks_2x2(
            &real_block,
            &imag_block.scale(-1.0),
            &imag_block,
            &real_block,
        );
        let rhs = Matrix::vstack(&[sys.b(), &Matrix::zeros(n, sys.num_inputs())]);
        let x = lu::solve(&aug, &rhs).map_err(|err| match err {
            ds_linalg::LinalgError::Singular { .. } => DescriptorError::SingularPencil,
            other => DescriptorError::Numerical(other),
        })?;
        Ok(TransferValue {
            re: &(sys.c() * &x.block(0, n, 0, sys.num_inputs())) + sys.d(),
            im: sys.c() * &x.block(n, 2 * n, 0, sys.num_inputs()),
        })
    }

    #[test]
    fn real_axis_values_match_the_augmented_solve() {
        let n = 9;
        // Two ports, a singular E and couplings in both E and A.
        let dense = DescriptorSystem::new(
            Matrix::from_fn(n, n, |i, j| {
                if i < 6 && (i == j || j == i + 2) {
                    1.0 + 0.1 * (i + j) as f64
                } else {
                    0.0
                }
            }),
            Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    -3.0 - i as f64
                } else {
                    (((i * 5 + j * 3) % 7) as f64 - 3.0) * 0.2
                }
            }),
            Matrix::from_fn(n, 2, |i, j| ((i + 3 * j) % 4) as f64 - 1.5),
            Matrix::from_fn(2, n, |i, j| ((2 * i + j) % 5) as f64 - 2.0),
            Matrix::from_rows(&[&[0.5, 0.1], &[0.0, 0.25]]),
        )
        .unwrap();
        let systems = [first_order(), series_rl(2.0, 3.0), dense];
        for (index, sys) in systems.iter().enumerate() {
            for sigma in [0.0, -0.0, 0.7, -2.5, 1e4, -1e4, 3e4] {
                let s = Complex::from_real(sigma);
                let fast = evaluate(sys, s).unwrap();
                let reference = augmented(sys, s).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&fast.re),
                    bits(&reference.re),
                    "system {index} at {sigma}"
                );
                // The augmented imaginary part is ±0; the real-axis one is 0.
                assert!(fast.im == reference.im, "system {index} at {sigma}");
                assert!(fast.im.as_slice().iter().all(|x| x.to_bits() == 0));
            }
        }
    }

    #[test]
    fn real_axis_singularity_keeps_the_augmented_threshold() {
        // σE − A = diag(1, 1, 1, δ) with max 1: the augmented LU calls a
        // pivot singular at ε·2n = 8ε, the 4 × 4 LU only at ε·n = 4ε.
        let sys_with = |delta: f64| {
            DescriptorSystem::new(
                Matrix::zeros(4, 4),
                Matrix::diag(&[-1.0, -1.0, -1.0, -delta]),
                Matrix::column(&[1.0, 0.0, 0.0, 1.0]),
                Matrix::row_vector(&[1.0, 0.0, 0.0, 1.0]),
                Matrix::zeros(1, 1),
            )
            .unwrap()
        };
        let between = sys_with(6.0 * f64::EPSILON);
        assert!(!lu::factor(&between.a().scale(-1.0)).unwrap().singular);
        for s in [Complex::from_real(0.0), Complex::from_real(2.0)] {
            assert!(matches!(
                augmented(&between, s),
                Err(DescriptorError::SingularPencil)
            ));
            assert!(matches!(
                evaluate(&between, s),
                Err(DescriptorError::SingularPencil)
            ));
        }
        // Just above the augmented threshold both solve.
        let above = sys_with(10.0 * f64::EPSILON);
        let fast = evaluate(&above, Complex::from_real(0.0)).unwrap();
        let reference = augmented(&above, Complex::from_real(0.0)).unwrap();
        assert_eq!(fast.re[(0, 0)].to_bits(), reference.re[(0, 0)].to_bits());
    }

    #[test]
    fn first_order_lowpass_values() {
        let sys = first_order();
        // G(j0) = 1
        let g0 = evaluate_jomega(&sys, 0.0).unwrap();
        assert!((g0.re[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(g0.im[(0, 0)].abs() < 1e-12);
        // G(j1) = 1/(1 + j) = 0.5 - 0.5j
        let g1 = evaluate_jomega(&sys, 1.0).unwrap();
        assert!((g1.re[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((g1.im[(0, 0)] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn series_rl_is_impulsive_but_evaluates() {
        let sys = series_rl(2.0, 3.0);
        let g = evaluate(&sys, Complex::new(0.0, 5.0)).unwrap();
        // G(j5) = 2 + 15j
        assert!((g.re[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((g.im[(0, 0)] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn evaluation_at_pole_reports_singular() {
        let sys = first_order();
        assert!(matches!(
            evaluate(&sys, Complex::from_real(-1.0)),
            Err(DescriptorError::SingularPencil)
        ));
    }

    #[test]
    fn popov_function_of_passive_rc() {
        let sys = first_order();
        for &w in &[0.0, 0.3, 1.0, 10.0, 1e3] {
            let g = evaluate_jomega(&sys, w).unwrap();
            assert!(
                g.popov_min_eigenvalue().unwrap() >= -1e-12,
                "Popov function negative at ω = {w}"
            );
        }
    }

    #[test]
    fn popov_embedding_matches_scalar_case() {
        let sys = first_order();
        let g = evaluate_jomega(&sys, 1.0).unwrap();
        // For scalar G, G + G* = 2 Re G.
        let min = g.popov_min_eigenvalue().unwrap();
        assert!((min - 2.0 * 0.5).abs() < 1e-10);
    }

    #[test]
    fn max_deviation_of_identical_systems_is_zero() {
        let sys = first_order();
        let dev = max_deviation(&sys, &sys.clone(), &default_probe_points()).unwrap();
        assert!(dev < 1e-13);
    }

    #[test]
    fn max_deviation_detects_difference() {
        let sys = first_order();
        let other = series_rl(1.0, 1.0);
        let dev = max_deviation(&sys, &other, &default_probe_points()).unwrap();
        assert!(dev > 0.1);
    }

    #[test]
    fn m1_sampling_recovers_inductance() {
        let sys = series_rl(2.0, 3.0);
        let m1 = sample_m1(&sys, 1e4).unwrap();
        assert!((m1[(0, 0)] - 3.0).abs() < 1e-6);
        // The proper first-order system has no M1.
        let m1_proper = sample_m1(&first_order(), 1e4).unwrap();
        assert!(m1_proper[(0, 0)].abs() < 1e-6);
    }

    #[test]
    fn adjoint_transfer_is_transposed_reflection() {
        let sys = series_rl(2.0, 3.0);
        let adj = sys.adjoint();
        let s = Complex::new(0.7, 2.0);
        let g = evaluate(&sys, Complex::new(-0.7, -2.0)).unwrap();
        let h = evaluate(&adj, s).unwrap();
        // H(s) = Gᵀ(−s); scalar case: H(s) = G(−s).
        assert!((g.re[(0, 0)] - h.re[(0, 0)]).abs() < 1e-10);
        assert!((g.im[(0, 0)] - h.im[(0, 0)]).abs() < 1e-10);
    }

    #[test]
    fn state_space_evaluation_agrees_with_descriptor() {
        let ss = StateSpace::new(
            Matrix::from_rows(&[&[-2.0, 1.0], &[0.0, -1.0]]),
            Matrix::column(&[0.0, 1.0]),
            Matrix::row_vector(&[1.0, 0.0]),
            Matrix::filled(1, 1, 0.5),
        )
        .unwrap();
        let s = Complex::new(0.0, 2.0);
        let v1 = evaluate_state_space(&ss, s).unwrap();
        let v2 = evaluate(&ss.to_descriptor(), s).unwrap();
        assert!(v1.sub(&v2).norm_max() < 1e-13);
    }
}
