//! Extraction of the stable proper part (paper eqs. (21)–(23)).
//!
//! The input is the restored SHH pencil `(E₃, A₃)` with `E₃` nonsingular and
//! skew-Hamiltonian, `A₃` Hamiltonian, produced by
//! [`crate::reduction::restore_shh`].  Three steps:
//!
//! 1. PVL-reduce `E₃` with an orthogonal-symplectic `Z`:
//!    `Zᵀ E₃ Z = [[E₁₁, Ψ], [0, E₁₁ᵀ]]` and absorb the factor with the
//!    symplectic-adjoint pair `W_L, W_R` so that `Z_L E₃ Z_R = I` and
//!    `A₄₄ = Z_L A₃ Z_R` stays Hamiltonian (eq. (21)).
//! 2. Split the spectrum of `A₄₄` into its stable / antistable halves with an
//!    orthogonal-symplectic `Z₁` (eq. (22)).
//! 3. Decouple the two halves (eq. (23)); the coupling `Y` of
//!    `ÃY + YÃᵀ + Γ = 0` is read off the converged sign iterate, so no
//!    Lyapunov solve runs.  The leading block yields the stable proper part
//!    `G_p(s)` of the original transfer function (up to an unobservable
//!    constant skew-symmetric offset, which does not affect passivity).

use crate::error::PassivityError;
use ds_descriptor::{DescriptorSystem, StateSpace};
use ds_linalg::decomp::lu;
use ds_linalg::{LinalgError, Matrix};
use ds_shh::{pvl, stable_subspace, structure};

/// The regular Hamiltonian realization of the proper Φ-system
/// (intermediate result of eq. (21)).
#[derive(Debug, Clone)]
pub struct RegularizedPhi {
    /// The Hamiltonian state matrix `A₄₄` (with `E₄₄ = I`).
    pub a44: Matrix,
    /// Input matrix after the transformation.
    pub b44: Matrix,
    /// Output matrix after the transformation.
    pub c44: Matrix,
    /// Feedthrough (unchanged, symmetric).
    pub d44: Matrix,
    /// Half dimension `n_p`.
    pub half: usize,
}

/// Result of the full proper-part extraction.
#[derive(Debug, Clone)]
pub struct ProperPart {
    /// The stable proper part `G_p(s) = D_p + C_p (sI − Ã)⁻¹ B_p` with
    /// `D_p = (D_Φ)/2`.  Its Hermitian part on the imaginary axis equals that
    /// of the true proper part of `G(s)`.
    pub state_space: StateSpace,
}

/// Converts the restored SHH pencil into a regular pencil with a Hamiltonian
/// state matrix (paper eq. (21)).
///
/// # Errors
///
/// Propagates PVL / linear-solve failures; returns
/// [`PassivityError::ReductionBreakdown`] when the input is not a nonsingular
/// skew-Hamiltonian / Hamiltonian pair.
pub fn regularize(sys: &DescriptorSystem, rel_tol: f64) -> Result<RegularizedPhi, PassivityError> {
    let order = sys.order();
    if order == 0 {
        return Ok(RegularizedPhi {
            a44: Matrix::zeros(0, 0),
            b44: Matrix::zeros(0, sys.num_inputs()),
            c44: Matrix::zeros(sys.num_outputs(), 0),
            d44: sys.d().clone(),
            half: 0,
        });
    }
    let form = pvl::reduce(sys.e(), rel_tol).map_err(PassivityError::Shh)?;
    let n = form.half;
    let e11 = form.w11();
    let psi = form.psi();

    // Symplectic-adjoint factorization of the PVL form:
    //   T = [[E11, Ψ], [0, E11ᵀ]] = W_L · W_R  with
    //   W_L = [[E11, ½ Ψ E11⁻ᵀ], [0, I]],  W_R = [[I, ½ E11⁻¹ Ψ], [0, E11ᵀ]],
    // so that W_L = J W_Rᵀ Jᵀ and A₄₄ = W_L⁻¹ (Zᵀ A₃ Z) W_R⁻¹ is Hamiltonian.
    let e11_factor = lu::factor(&e11)?;
    if e11_factor.singular {
        return Err(PassivityError::breakdown(
            "the PVL-reduced E11 block is singular; E3 was not nonsingular",
        ));
    }
    let e11_inv = e11_factor.inverse()?;
    let half_e11_inv_psi = e11_inv.matmul(&psi)?.scale(0.5);
    let half_psi_e11_inv_t = psi.matmul(&e11_inv.transpose())?.scale(0.5);

    // W_L⁻¹ = [[E11⁻¹, −E11⁻¹·(½ Ψ E11⁻ᵀ)], [0, I]]
    let wl_inv = Matrix::from_blocks_2x2(
        &e11_inv,
        &e11_inv.matmul(&half_psi_e11_inv_t)?.scale(-1.0),
        &Matrix::zeros(n, n),
        &Matrix::identity(n),
    );
    // W_R⁻¹ = [[I, −(½ E11⁻¹ Ψ) E11⁻ᵀ], [0, E11⁻ᵀ]]
    let wr_inv = Matrix::from_blocks_2x2(
        &Matrix::identity(n),
        &half_e11_inv_psi.matmul(&e11_inv.transpose())?.scale(-1.0),
        &Matrix::zeros(n, n),
        &e11_inv.transpose(),
    );

    let zl = wl_inv.matmul(&form.z.transpose())?;
    let zr = form.z.matmul(&wr_inv)?;

    // Verify Z_L E₃ Z_R = I, in one pass over the product.
    let e_check = zl.matmul(&sys.e().matmul(&zr)?)?;
    let e_residual = e_check
        .as_slice()
        .chunks_exact(order)
        .enumerate()
        .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &v)| (i == j, v)))
        .fold(0.0_f64, |m, (diagonal, v)| {
            m.max((v - if diagonal { 1.0 } else { 0.0 }).abs())
        });
    if e_residual > 1e-6 * sys.scale() {
        return Err(PassivityError::breakdown(format!(
            "regularization failed: Z_L E3 Z_R deviates from identity by {e_residual:.2e}"
        )));
    }

    let a44 = zl.matmul(&sys.a().matmul(&zr)?)?;
    let b44 = zl.matmul(sys.b())?;
    let c44 = sys.c().matmul(&zr)?;
    Ok(RegularizedPhi {
        a44,
        b44,
        c44,
        d44: sys.d().clone(),
        half: n,
    })
}

/// The zero matrix `Z = A₄₄ − B₄₄ R⁻¹ C₄₄` of the regular realization, with
/// `R = D_p + D_pᵀ` for the proper part's `D_p = D₄₄/2` (formed as
/// [`extract_stable_part`] and the positive-real test form them).
///
/// The zeros of `Φ` are its eigenvalues.  `Φ = G_p + G_p~`, so the
/// Hamiltonian matrix the positive-real test builds from the stable part
/// ([`ds_shh::positive_real::hamiltonian_matrix`]) is the zero matrix of
/// another realization of the same function, and similar to `Z`; unlike
/// it, `Z` exists before the split.
///
/// # Errors
///
/// [`LinalgError::Singular`] when `R` is singular.
pub fn zero_matrix(phi: &RegularizedPhi) -> Result<Matrix, LinalgError> {
    let d_half = phi.d44.scale(0.5);
    let r = &d_half + &d_half.transpose();
    let br = phi.b44.matmul(&lu::inverse(&r)?)?;
    Ok(&phi.a44 - &br.matmul(&phi.c44)?)
}

/// Splits the regularized Φ-system into a stable proper part plus its adjoint
/// and returns the stable part (paper eqs. (22)–(23)).
///
/// # Errors
///
/// * [`PassivityError::Shh`] when `A₄₄` has eigenvalues on the imaginary axis
///   (finite poles of `Φ` on the axis — excluded by the paper's stability
///   assumption).
/// * Propagates the other failures of [`stable_subspace::hamiltonian_split`].
pub fn extract_stable_part(
    phi: &RegularizedPhi,
    rel_tol: f64,
) -> Result<ProperPart, PassivityError> {
    let n = phi.half;
    let m_in = phi.b44.cols();
    let m_out = phi.c44.rows();
    let d_half = phi.d44.scale(0.5);
    if n == 0 {
        return Ok(ProperPart {
            state_space: StateSpace::new(
                Matrix::zeros(0, 0),
                Matrix::zeros(0, m_in),
                Matrix::zeros(m_out, 0),
                d_half,
            )?,
        });
    }
    let split =
        stable_subspace::hamiltonian_split(&phi.a44, rel_tol).map_err(PassivityError::Shh)?;
    // Z₁ᵀ A₄₄ Z₁ = [[Ã, Γ], [0, −Ãᵀ]]; decoupling with Z₂ = Z₁ [[I, Y], [0, I]]
    // (Ã Y + Y Ãᵀ + Γ = 0, with Y given by the sign function) leaves the
    // diagonal blocks untouched, so the stable part reads off the split
    // directly and the full 2n × 2n similarity `Z₂⁻¹ A₄₄ Z₂` never needs to
    // be formed:
    //   A₅ = [[Ã, ÃY + YÃᵀ + Γ], [0, −Ãᵀ]]  (the off-diagonal block is 0),
    //   B₅ = [[Uᵀ − Y·(−JU)ᵀ], [(−JU)ᵀ]]·B₄₄,   C₅ = C₄₄·[U, …].
    // B_p needs Y only times the m columns of (−JU)ᵀB₄₄, so Y is not formed.
    let u = &split.stable_basis;
    let nju = structure::jt_mul(u).map_err(PassivityError::Shh)?;
    let ut_b = u.transpose_matmul(&phi.b44)?;
    let y_w = split
        .decouple(&nju.transpose_matmul(&phi.b44)?)
        .map_err(PassivityError::Shh)?;
    let b_stable = &ut_b - &y_w;
    let c_stable = phi.c44.matmul(u)?;
    debug_assert_eq!(c_stable.shape(), (m_out, n));

    Ok(ProperPart {
        state_space: StateSpace::new(split.stable_block, b_stable, c_stable, d_half)?,
    })
}

/// Convenience wrapper: regularizes and extracts the stable proper part in one
/// call.
///
/// # Errors
///
/// See [`regularize`] and [`extract_stable_part`].
pub fn extract_proper_part(
    sys: &DescriptorSystem,
    rel_tol: f64,
) -> Result<ProperPart, PassivityError> {
    let regular = regularize(sys, rel_tol)?;
    extract_stable_part(&regular, rel_tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction;
    use ds_descriptor::transfer;
    use ds_shh::pencil::build_phi;

    /// Runs the full stage-1..3 pipeline on a descriptor system and returns the
    /// restored SHH pencil of the proper Φ-part.
    fn pipeline(sys: &DescriptorSystem) -> DescriptorSystem {
        let phi = build_phi(sys).unwrap();
        let cancelled = reduction::cancel_impulsive_modes(&phi, 1e-10).unwrap();
        let removed = reduction::remove_nondynamic_modes(&cancelled.reduced, 1e-10).unwrap();
        reduction::restore_shh(&removed.reduced).unwrap().system
    }

    fn proper_rc() -> DescriptorSystem {
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5]]);
        let c = Matrix::from_rows(&[&[1.0, 1.0]]);
        DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, 0.25)).unwrap()
    }

    #[test]
    fn regularize_produces_hamiltonian_a44() {
        let restored = pipeline(&proper_rc());
        let regular = regularize(&restored, 1e-10).unwrap();
        assert_eq!(regular.half * 2, restored.order());
        let scale = regular.a44.norm_fro().max(1.0);
        assert!(structure::is_hamiltonian(&regular.a44, 1e-7 * scale).unwrap());
    }

    #[test]
    fn stable_part_of_proper_rc_matches_transfer_function() {
        let sys = proper_rc();
        let restored = pipeline(&sys);
        let proper = extract_proper_part(&restored, 1e-10).unwrap();
        // The decoupling leaves ÃY + YÃᵀ + Γ = 0, Γ = Uᵀ·A₄₄·(−JU).
        let regular = regularize(&restored, 1e-10).unwrap();
        let split = stable_subspace::hamiltonian_split(&regular.a44, 1e-10).unwrap();
        let (u, a) = (&split.stable_basis, &split.stable_block);
        // Y = −½·Uᵀ·sign(A₄₄)·JU (Roberts' identity), formed here only.
        let ju = structure::j_mul(u).unwrap();
        let y = u
            .transpose_matmul(&(&split.sign * &ju))
            .unwrap()
            .scale(-0.5);
        let gamma = u.transpose_matmul(&(&regular.a44 * &structure::jt_mul(u).unwrap()));
        let residual = &(&(a * &y) + &(&y * &a.transpose())) + &gamma.unwrap();
        assert!(residual.norm_max() < 1e-7);
        // B_p from `decouple` against the explicit-Y formula.
        let w = structure::jt_mul(u)
            .unwrap()
            .transpose_matmul(&regular.b44)
            .unwrap();
        let y_w = split.decouple(&w).unwrap();
        assert!(y_w.approx_eq(&(&y * &w), 1e-12 * (&y * &w).norm_max().max(1.0)));
        let ss = &proper.state_space;
        assert_eq!(ss.order(), 1);
        assert!(ss.is_stable(1e-10).unwrap());
        // The Hermitian part of the extracted proper part must equal that of
        // the original G on the imaginary axis (G is proper here).
        for &w in &[0.0, 0.7, 3.0, 50.0] {
            let g = transfer::evaluate_jomega(&sys, w).unwrap();
            let gp = transfer::evaluate_jomega(&ss.to_descriptor(), w).unwrap();
            let herm_g = &g.re + &g.re.transpose();
            let herm_gp = &gp.re + &gp.re.transpose();
            assert!(
                herm_g.approx_eq(&herm_gp, 1e-8),
                "Hermitian parts differ at ω = {w}: {} vs {}",
                herm_g[(0, 0)],
                herm_gp[(0, 0)]
            );
        }
    }

    #[test]
    fn impulsive_system_proper_part_is_the_resistance() {
        // G(s) = 2 + 3s: proper part is the constant 2.
        let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[-3.0, 0.0]]);
        let sys = DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, 2.0)).unwrap();
        let restored = pipeline(&sys);
        assert_eq!(restored.order(), 0);
        let proper = extract_proper_part(&restored, 1e-10).unwrap();
        assert_eq!(proper.state_space.order(), 0);
        // D_p = D_Φ / 2 = (2 + 2)/2 = 2.
        assert!((proper.state_space.d[(0, 0)] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn mixed_system_proper_part_hermitian_match() {
        // G(s) = 0.25 + 1/(s+1) + 0.5 + 1.5 s  (proper part 0.75 + 1/(s+1)).
        let rc = proper_rc();
        let rl = {
            let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
            let a = Matrix::identity(2);
            let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
            let c = Matrix::from_rows(&[&[-1.5, 0.0]]);
            DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, 0.5)).unwrap()
        };
        let sys = rc.parallel_sum(&rl).unwrap();
        let restored = pipeline(&sys);
        let proper = extract_proper_part(&restored, 1e-10).unwrap();
        assert_eq!(proper.state_space.order(), 1);
        for &w in &[0.0, 1.0, 10.0] {
            let g = transfer::evaluate_jomega(&sys, w).unwrap();
            let gp = transfer::evaluate_jomega(&proper.state_space.to_descriptor(), w).unwrap();
            // Re G(jω) (Hermitian part) must agree — the sM1 term is skew on jω.
            assert!(
                (g.re[(0, 0)] - gp.re[(0, 0)]).abs() < 1e-8,
                "Re mismatch at {w}: {} vs {}",
                g.re[(0, 0)],
                gp.re[(0, 0)]
            );
        }
    }

    #[test]
    fn empty_input_handled() {
        let empty = DescriptorSystem::new(
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 1),
            Matrix::zeros(1, 0),
            Matrix::filled(1, 1, 3.0),
        )
        .unwrap();
        let proper = extract_proper_part(&empty, 1e-10).unwrap();
        assert_eq!(proper.state_space.order(), 0);
        assert!((proper.state_space.d[(0, 0)] - 1.5).abs() < 1e-12);
    }
}
