//! Weierstrass-style additive decomposition of a descriptor system.
//!
//! A regular pencil `(E, A)` is equivalent to `(diag(I, N), diag(A_f, I))` with
//! `N` nilpotent (the Weierstrass canonical form, paper eq. (8)); the transfer
//! function then splits as
//!
//! ```text
//! G(s) = C_f (sI − A_f)⁻¹ B_f  +  M₀ + s M₁ + s² M₂ + …      (paper eq. (3)/(9))
//! ```
//!
//! This module computes that split *without* GUPTRI: a Cayley-shifted resolvent
//! `K = (αE − A)⁻¹ E` maps the infinite eigenvalues of the pencil to the zero
//! eigenvalue of `K` with the same Jordan structure, so the generalized kernel
//! and range of `K` are the right deflating subspaces of the infinite and
//! finite spectra.  The decoupling transformation `W = [E·X_f, A·X_∞]` is
//! generally **non-orthogonal**, which is exactly the conditioning caveat the
//! paper raises for Weierstrass-based passivity tests; it is retained here
//! because this module also serves as the paper's "Weierstrass approach"
//! baseline.

use crate::error::DescriptorError;
use crate::system::{DescriptorSystem, StateSpace};
use ds_linalg::decomp::lu;
use ds_linalg::{subspace, Matrix};

/// Options for the Weierstrass decomposition.
#[derive(Debug, Clone)]
pub struct WeierstrassOptions {
    /// Relative tolerance for all rank decisions.
    pub rel_tol: f64,
    /// Candidate Cayley shifts `α`; the first one making `αE − A` nonsingular
    /// and yielding a well-conditioned decoupling is used.
    pub shift_candidates: Vec<f64>,
}

impl Default for WeierstrassOptions {
    fn default() -> Self {
        WeierstrassOptions {
            rel_tol: 1e-9,
            shift_candidates: vec![
                1.0,
                -1.618,
                std::f64::consts::E,
                -0.577,
                7.389,
                -13.2,
                0.123,
            ],
        }
    }
}

/// The additive decomposition `G(s) = G_p(s) + s M₁ + s² M₂ + …` where
/// `G_p(s) = M₀ + C_f (sI − A_f)⁻¹ B_f` is the proper part.
#[derive(Debug, Clone)]
pub struct WeierstrassDecomposition {
    /// Proper part as a regular state space `(A_f, B_f, C_f, M₀)`.
    pub proper: StateSpace,
    /// Polynomial Markov parameters `[M₁, M₂, …]` (empty for proper systems).
    /// Trailing (numerically) zero coefficients are trimmed.
    pub markov: Vec<Matrix>,
    /// Dimension `q` of the finite spectrum (`deg det(sE − A)`).
    pub finite_dim: usize,
    /// Dimension `n − q` of the infinite spectral structure
    /// (nondynamic + impulsive modes).
    pub infinite_dim: usize,
    /// Index of nilpotency `ν` of the infinite structure (0 when `E` is
    /// nonsingular, 1 for impulse-free singular systems, ≥ 2 when impulsive
    /// modes are present).
    pub nilpotent_index: usize,
    /// The Cayley shift that was used.
    pub shift: f64,
}

impl WeierstrassDecomposition {
    /// The first-order Markov parameter `M₁` (zero matrix if absent).
    pub fn m1(&self, outputs: usize, inputs: usize) -> Matrix {
        self.markov
            .first()
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(outputs, inputs))
    }

    /// Degree of the polynomial part (0 when there is none).
    pub fn polynomial_degree(&self) -> usize {
        self.markov.len()
    }
}

/// Computes the Weierstrass-style additive decomposition of a regular
/// descriptor system.
///
/// # Errors
///
/// * [`DescriptorError::SingularPencil`] when no candidate shift makes
///   `αE − A` invertible or the deflating subspaces do not decouple (both are
///   symptoms of a singular pencil or extreme ill-conditioning).
/// * Propagates numerical errors from the underlying kernels.
pub fn decompose(
    sys: &DescriptorSystem,
    options: &WeierstrassOptions,
) -> Result<WeierstrassDecomposition, DescriptorError> {
    let n = sys.order();
    let m_in = sys.num_inputs();
    let m_out = sys.num_outputs();
    if n == 0 {
        return Ok(WeierstrassDecomposition {
            proper: StateSpace::new(
                Matrix::zeros(0, 0),
                Matrix::zeros(0, m_in),
                Matrix::zeros(m_out, 0),
                sys.d().clone(),
            )?,
            markov: vec![],
            finite_dim: 0,
            infinite_dim: 0,
            nilpotent_index: 0,
            shift: 0.0,
        });
    }

    let mut last_error = DescriptorError::SingularPencil;
    for &alpha in &options.shift_candidates {
        match try_decompose_with_shift(sys, alpha, options.rel_tol) {
            Ok(result) => return Ok(result),
            Err(err) => last_error = err,
        }
    }
    Err(last_error)
}

fn try_decompose_with_shift(
    sys: &DescriptorSystem,
    alpha: f64,
    rel_tol: f64,
) -> Result<WeierstrassDecomposition, DescriptorError> {
    let n = sys.order();
    let m_in = sys.num_inputs();
    let m_out = sys.num_outputs();

    // K = (αE − A)⁻¹ E maps finite eigenvalues λ to 1/(α − λ) and infinite
    // eigenvalues to 0, preserving Jordan structure.
    let shifted = &sys.e().scale(alpha) - sys.a();
    let factor = lu::factor(&shifted)?;
    if factor.singular {
        return Err(DescriptorError::SingularPencil);
    }
    let k = factor.solve(sys.e())?;

    // Generalized kernel of K: iterate powers until the nullity stagnates.
    let mut power = k.clone();
    let mut prev_nullity = 0usize;
    let mut nu = 0usize;
    let mut kernel = Matrix::zeros(n, 0);
    for step in 1..=n {
        let ns = subspace::null_space(&power, rel_tol)?;
        if ns.cols() == prev_nullity {
            break;
        }
        prev_nullity = ns.cols();
        kernel = ns;
        nu = step;
        if prev_nullity == n {
            break;
        }
        power = power.matmul(&k)?;
    }
    let infinite_dim = prev_nullity;
    let q = n - infinite_dim;

    // Deflating subspaces.
    let (x_f, x_inf) = if infinite_dim == 0 {
        (Matrix::identity(n), Matrix::zeros(n, 0))
    } else {
        // range(K^ν) for the finite part; `power` currently holds K^ν or K^{ν+1}
        // depending on where the loop stopped, so recompute K^ν cleanly.
        let mut k_nu = Matrix::identity(n);
        for _ in 0..nu {
            k_nu = k_nu.matmul(&k)?;
        }
        let range = subspace::range_basis(&k_nu, rel_tol)?;
        (range, kernel)
    };
    if x_f.cols() != q {
        return Err(DescriptorError::invalid_input(format!(
            "deflating-subspace dimensions disagree: range gives {}, kernel gives {}",
            x_f.cols(),
            infinite_dim
        )));
    }

    // Decoupling transformation.
    let z = Matrix::hstack(&[&x_f, &x_inf]);
    let e_xf = sys.e().matmul(&x_f)?;
    let a_xinf = sys.a().matmul(&x_inf)?;
    let w = Matrix::hstack(&[&e_xf, &a_xinf]);
    let w_factor = lu::factor(&w)?;
    if w_factor.singular {
        return Err(DescriptorError::SingularPencil);
    }

    let e_tilde = w_factor.solve(&sys.e().matmul(&z)?)?;
    let a_tilde = w_factor.solve(&sys.a().matmul(&z)?)?;
    let b_tilde = w_factor.solve(sys.b())?;
    let c_tilde = sys.c().matmul(&z)?;

    // Verify the expected block-diagonal structure (the off-diagonal blocks
    // must vanish for true deflating subspaces).
    let scale = e_tilde.norm_max().max(a_tilde.norm_max()).max(1.0);
    let coupling_tol = 1e-6 * scale;
    let e_off = e_tilde
        .block(q, n, 0, q)
        .norm_max()
        .max(e_tilde.block(0, q, q, n).norm_max());
    let a_off = a_tilde
        .block(q, n, 0, q)
        .norm_max()
        .max(a_tilde.block(0, q, q, n).norm_max());
    if e_off > coupling_tol || a_off > coupling_tol {
        return Err(DescriptorError::invalid_input(format!(
            "deflating subspaces failed to decouple the pencil (residual {:.2e})",
            e_off.max(a_off)
        )));
    }

    // Finite part: E block is identity by construction, A block is A_f.
    let e_f = e_tilde.block(0, q, 0, q);
    let a_f_raw = a_tilde.block(0, q, 0, q);
    // Guard against mild departure of E_f from identity by solving E_f A_f = raw.
    let a_f = if q > 0 {
        lu::solve(&e_f, &a_f_raw)?
    } else {
        a_f_raw
    };
    let b_f = if q > 0 {
        lu::solve(&e_f, &b_tilde.block(0, q, 0, m_in))?
    } else {
        Matrix::zeros(0, m_in)
    };
    let c_f = c_tilde.block(0, m_out, 0, q);

    // Infinite part: A block is identity, E block is the nilpotent N.
    let nilpotent = e_tilde.block(q, n, q, n);
    let a_inf = a_tilde.block(q, n, q, n);
    let b_inf_raw = b_tilde.block(q, n, 0, m_in);
    let b_inf = if infinite_dim > 0 {
        lu::solve(&a_inf, &b_inf_raw)?
    } else {
        b_inf_raw
    };
    let c_inf = c_tilde.block(0, m_out, q, n);

    // Markov parameters: G_poly(s) = −Σ_k s^k C_∞ N^k B_∞.
    let m0 = if infinite_dim > 0 {
        sys.d() - &c_inf.matmul(&b_inf)?
    } else {
        sys.d().clone()
    };
    let mut markov = Vec::new();
    if infinite_dim > 0 {
        let mut n_power = nilpotent.clone();
        let markov_tol = 1e-10 * sys.scale();
        for _ in 1..nu.max(1) {
            let mk = c_inf.matmul(&n_power.matmul(&b_inf)?)?.scale(-1.0);
            markov.push(mk);
            n_power = n_power.matmul(&nilpotent)?;
        }
        // Trim trailing zero coefficients.
        while markov
            .last()
            .map(|m: &Matrix| m.norm_max() <= markov_tol)
            .unwrap_or(false)
        {
            markov.pop();
        }
    }

    Ok(WeierstrassDecomposition {
        proper: StateSpace::new(a_f, b_f, c_f, m0)?,
        markov,
        finite_dim: q,
        infinite_dim,
        nilpotent_index: if infinite_dim == 0 { 0 } else { nu },
        shift: alpha,
    })
}

/// Evaluates the decomposition at a complex point and compares against the
/// original transfer function; returns the maximum deviation over the probes.
/// Intended for validation in tests and examples.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn validation_error(
    sys: &DescriptorSystem,
    decomposition: &WeierstrassDecomposition,
    probes: &[ds_linalg::Complex],
) -> Result<f64, DescriptorError> {
    use crate::transfer;
    let mut worst: f64 = 0.0;
    for &s in probes {
        let g = match transfer::evaluate(sys, s) {
            Ok(v) => v,
            Err(DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(e),
        };
        let gp = transfer::evaluate_state_space(&decomposition.proper, s)?;
        // Add the polynomial part sᵏ Mₖ.
        let mut total_re = gp.re.clone();
        let mut total_im = gp.im.clone();
        let mut s_pow = s;
        for mk in &decomposition.markov {
            total_re = &total_re + &mk.scale(s_pow.re);
            total_im = &total_im + &mk.scale(s_pow.im);
            s_pow = s_pow * s;
        }
        let dev_re = (&g.re - &total_re).norm_max();
        let dev_im = (&g.im - &total_im).norm_max();
        worst = worst.max(dev_re.max(dev_im));
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::default_probe_points;

    fn proper_index1() -> DescriptorSystem {
        // G(s) = 1/(s+1) + 2 with a nondynamic mode.
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let c = Matrix::from_rows(&[&[1.0, 1.0]]);
        DescriptorSystem::new(e, a, b, c, Matrix::zeros(1, 1)).unwrap()
    }

    /// G(s) = R + sL realized with an index-2 pencil.
    fn series_rl(r: f64, l: f64) -> DescriptorSystem {
        let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[-l, 0.0]]);
        DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, r)).unwrap()
    }

    #[test]
    fn proper_system_has_no_markov_parameters() {
        let sys = proper_index1();
        let dec = decompose(&sys, &WeierstrassOptions::default()).unwrap();
        assert_eq!(dec.polynomial_degree(), 0);
        assert_eq!(dec.finite_dim, 1);
        assert_eq!(dec.infinite_dim, 1);
        assert_eq!(dec.nilpotent_index, 1);
        // M0 absorbs the nondynamic feedthrough: G(∞) = 0 + (−C2B2) = 2? The
        // algebraic state contributes −(1)(2)·(−1) = +2 ... validate via G.
        let err = validation_error(&sys, &dec, &default_probe_points()).unwrap();
        assert!(err < 1e-8, "decomposition deviates by {err}");
    }

    #[test]
    fn series_rl_yields_m1_equal_to_inductance() {
        let sys = series_rl(2.0, 3.0);
        let dec = decompose(&sys, &WeierstrassOptions::default()).unwrap();
        assert_eq!(dec.finite_dim, 0);
        assert_eq!(dec.infinite_dim, 2);
        assert_eq!(dec.nilpotent_index, 2);
        assert_eq!(dec.polynomial_degree(), 1);
        let m1 = dec.m1(1, 1);
        assert!((m1[(0, 0)] - 3.0).abs() < 1e-9, "M1 = {}", m1[(0, 0)]);
        // M0 = R.
        assert!((dec.proper.d[(0, 0)] - 2.0).abs() < 1e-9);
        let err = validation_error(&sys, &dec, &default_probe_points()).unwrap();
        assert!(err < 1e-8);
    }

    #[test]
    fn regular_system_passes_through() {
        let sys = DescriptorSystem::new(
            Matrix::identity(2),
            Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, -2.0]]),
            Matrix::column(&[0.0, 1.0]),
            Matrix::row_vector(&[1.0, 0.0]),
            Matrix::filled(1, 1, 0.25),
        )
        .unwrap();
        let dec = decompose(&sys, &WeierstrassOptions::default()).unwrap();
        assert_eq!(dec.finite_dim, 2);
        assert_eq!(dec.infinite_dim, 0);
        assert_eq!(dec.nilpotent_index, 0);
        assert_eq!(dec.polynomial_degree(), 0);
        let err = validation_error(&sys, &dec, &default_probe_points()).unwrap();
        assert!(err < 1e-9);
    }

    #[test]
    fn finite_dim_matches_pencil_degree() {
        // Mixed system: one finite mode, one nondynamic, one impulsive pair.
        let e = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
        ]);
        let a = Matrix::diag(&[-2.0, 1.0, 1.0, 1.0]);
        let b = Matrix::from_rows(&[&[1.0], &[0.0], &[1.0], &[0.5]]);
        let c = Matrix::from_rows(&[&[1.0, 1.0, 0.0, 0.5]]);
        let sys = DescriptorSystem::new(e, a, b, c, Matrix::zeros(1, 1)).unwrap();
        let dec = decompose(&sys, &WeierstrassOptions::default()).unwrap();
        assert_eq!(dec.finite_dim, 1);
        assert_eq!(dec.infinite_dim, 3);
        let err = validation_error(&sys, &dec, &default_probe_points()).unwrap();
        assert!(err < 1e-8);
    }

    #[test]
    fn singular_pencil_rejected() {
        let sys = DescriptorSystem::new(
            Matrix::diag(&[1.0, 0.0]),
            Matrix::diag(&[1.0, 0.0]),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        assert!(decompose(&sys, &WeierstrassOptions::default()).is_err());
    }

    #[test]
    fn empty_system_is_trivial() {
        let sys = DescriptorSystem::new(
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 1),
            Matrix::zeros(1, 0),
            Matrix::filled(1, 1, 4.0),
        )
        .unwrap();
        let dec = decompose(&sys, &WeierstrassOptions::default()).unwrap();
        assert_eq!(dec.finite_dim, 0);
        assert_eq!(dec.proper.d[(0, 0)], 4.0);
    }

    #[test]
    fn proper_part_poles_are_original_finite_modes() {
        let sys = proper_index1();
        let dec = decompose(&sys, &WeierstrassOptions::default()).unwrap();
        let poles = dec.proper.poles().unwrap();
        assert_eq!(poles.len(), 1);
        assert!((poles[0].re + 1.0).abs() < 1e-9);
    }
}
