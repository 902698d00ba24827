//! Stable invariant subspaces of Hamiltonian matrices and the
//! orthogonal-symplectic bases built from them (paper eq. (22)).

use crate::error::ShhError;
use crate::structure;
use ds_linalg::sign::{self, SignOptions};
use ds_linalg::{subspace, Matrix};

/// Result of the Hamiltonian spectral split used by the paper's proper-part
/// extraction.
#[derive(Debug, Clone)]
pub struct HamiltonianSplit {
    /// Orthonormal, isotropic basis `U = [X₁; X₂]` (`2n x n`) of the stable
    /// invariant subspace; `Z₁ = [U, −JU]` is orthogonal symplectic.
    pub stable_basis: Matrix,
    /// The stable block `Ã = Uᵀ A₄₄ U` (restriction of the Hamiltonian matrix
    /// to its stable invariant subspace).
    pub stable_block: Matrix,
    /// The converged `sign(A₄₄)`.  Roberts' identity
    /// `Z₁ᵀ sign(A₄₄) Z₁ = [[−I, 2Y], [0, I]]` gives the decoupling matrix
    /// `Y = −½·Uᵀ·sign(A₄₄)·JU`, which solves `Ã Y + Y Ãᵀ + Γ = 0` for the
    /// coupling block `Γ` in `Z₁ᵀ A₄₄ Z₁ = [[Ã, Γ], [0, −Ãᵀ]]`, with no
    /// Lyapunov solve; [`HamiltonianSplit::decouple`] applies it.
    pub sign: Matrix,
}

impl HamiltonianSplit {
    /// `Y·w` for the decoupling matrix `Y` (see [`HamiltonianSplit::sign`])
    /// and an `n × m` block `w`, as `−½·Uᵀ·(sign(A₄₄)·(J·(U·w)))`: thin
    /// products of `O(n²m)` flops, where forming `Y` would take two
    /// `2n × 2n × n` ones.
    ///
    /// # Errors
    ///
    /// [`ShhError::Numerical`] when `w` does not have `n` rows.
    pub fn decouple(&self, w: &Matrix) -> Result<Matrix, ShhError> {
        let u = &self.stable_basis;
        let ju_w = structure::j_mul(&u.matmul(w)?)?;
        Ok(u.transpose_matmul(&self.sign.matmul(&ju_w)?)?.scale(-0.5))
    }
}

/// Computes the stable invariant subspace of a Hamiltonian matrix and the
/// orthogonal-symplectic transformation that block-triangularizes it.
///
/// For a Hamiltonian matrix with no purely imaginary eigenvalues the spectrum
/// splits evenly (`n` stable, `n` antistable) and the stable invariant subspace
/// is isotropic, so `Z₁ = [U, −J U]` is orthogonal symplectic and
/// `Z₁ᵀ A Z₁ = [[Ã, Γ], [0, −Ãᵀ]]` with `Ã` Hurwitz.
///
/// # Errors
///
/// * [`ShhError::BadDimension`] for odd-dimensional input.
/// * [`ShhError::StructureViolation`] when `a` is not Hamiltonian.
/// * [`ShhError::ImaginaryAxisEigenvalues`] when the sign iteration detects
///   eigenvalues on the imaginary axis or the split is uneven.
pub fn hamiltonian_split(a: &Matrix, tol: f64) -> Result<HamiltonianSplit, ShhError> {
    if !a.is_square() || !a.rows().is_multiple_of(2) {
        return Err(ShhError::BadDimension { shape: a.shape() });
    }
    let n = a.rows() / 2;
    let scale = a.norm_fro().max(1.0);
    if !structure::is_hamiltonian(a, tol.max(1e-8) * scale)? {
        return Err(ShhError::structure(
            "hamiltonian_split requires a Hamiltonian matrix",
        ));
    }
    // Byers' structure-preserving Newton iteration: the iterate lives as the
    // symmetric J·Z, so each step inverts through a Bunch–Kaufman LDLᵀ.
    let sign = sign::hamiltonian_sign(a, &SignOptions::default()).map_err(|err| match err {
        ds_linalg::LinalgError::Singular { .. } => ShhError::ImaginaryAxisEigenvalues,
        other => ShhError::Numerical(other),
    })?;
    // trace(sign(A)) = n₊ − n₋ counts the eigenvalues on each side of the
    // imaginary axis, so the dimension check needs no second (antistable)
    // projector factorization.
    let dim = 2 * n;
    let tr = sign.trace();
    let stable_dim_f = (dim as f64 - tr) * 0.5;
    let stable_dim = stable_dim_f.round();
    // NaN traces fail the range check, so a plain `>` is safe here.
    if (stable_dim_f - stable_dim).abs() > 0.1 || !(0.0..=dim as f64).contains(&stable_dim) {
        return Err(ShhError::Numerical(ds_linalg::LinalgError::invalid_input(
            format!(
                "trace of the matrix sign ({tr:.6}) is not consistent with an {dim}-dimensional \
                 spectral split (eigenvalues too close to the imaginary axis)"
            ),
        )));
    }
    let stable_dim = stable_dim as usize;
    // (I − sign)/2 in one pass, with `I − sign`'s entries (`0.0 − s` off the
    // diagonal, so an exact zero keeps its sign).
    let p_stable = Matrix::from_fn(dim, dim, |i, j| {
        (if i == j { 1.0 } else { 0.0 } - sign[(i, j)]) * 0.5
    });
    // The projector has eigenvalues ≈ 0/1, so a generous relative tolerance
    // cleanly separates its range.
    let u = subspace::range_basis(&p_stable, 1e-6).map_err(ShhError::Numerical)?;
    if u.cols() != stable_dim {
        return Err(ShhError::Numerical(ds_linalg::LinalgError::invalid_input(
            format!(
                "stable projector rank {} disagrees with trace-derived dimension {stable_dim} \
                 (eigenvalues too close to the imaginary axis)",
                u.cols()
            ),
        )));
    }
    if stable_dim != n {
        return Err(ShhError::ImaginaryAxisEigenvalues);
    }
    // The range basis is SVD-U columns, orthonormal by construction — no
    // re-orthonormalization pass is needed before the isotropy check
    // (UᵀJU = 0), which holds exactly in theory for the stable Lagrangian
    // subspace of a Hamiltonian matrix.  With U = [U₁; U₂],
    // UᵀJU = U₁ᵀU₂ − U₂ᵀU₁ = X − Xᵀ for X = U₁ᵀU₂, half the flops.
    let x = u
        .block(0, n, 0, n)
        .transpose_matmul(&u.block(n, dim, 0, n))?;
    let isotropy = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .fold(0.0_f64, |m, (i, j)| m.max((x[(i, j)] - x[(j, i)]).abs()));
    if isotropy > 1e-6 * scale.max(1.0) {
        return Err(ShhError::structure(format!(
            "stable subspace is not isotropic (residual {isotropy:.2e}); \
             the matrix may be too far from Hamiltonian structure"
        )));
    }
    // Z1 = [U, −J U] is orthogonal symplectic. Of Z₁ᵀ A Z₁ only Ã = Uᵀ·A·U
    // and the lower-left invariance residual (−JU)ᵀ·A·U are consumed — Γ
    // only through Y, the lower-right block is −Ãᵀ by Hamiltonian
    // structure — so neither Z₁ nor the full (2n)×(2n) congruence is formed.
    let au = a.matmul(&u)?;
    let stable_block = u.transpose_matmul(&au)?;
    let lower_left = structure::j_mul(&u)?.transpose_matmul(&au)?.norm_max();
    if lower_left > 1e-6 * scale {
        return Err(ShhError::structure(format!(
            "stable subspace is not invariant (residual {lower_left:.2e})"
        )));
    }
    Ok(HamiltonianSplit {
        stable_basis: u,
        stable_block,
        sign,
    })
}

/// Checks that `basis` spans an `A`-invariant subspace to within `tol`
/// (relative to the norms involved).  Exposed for diagnostics and tests.
///
/// # Errors
///
/// Propagates subspace computation failures.
pub fn invariance_residual(a: &Matrix, basis: &Matrix) -> Result<f64, ShhError> {
    if basis.cols() == 0 {
        return Ok(0.0);
    }
    let image = a.matmul(basis)?;
    let q = subspace::range_basis(basis, 1e-12)?;
    let residual = &image - &(&q * &q.transpose_matmul(&image)?);
    Ok(residual.norm_fro() / image.norm_fro().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{hamiltonian_from_blocks, is_orthogonal_symplectic};
    use ds_linalg::eigen;

    /// `Z₁ = [U, −JU]`.
    fn z1(split: &HamiltonianSplit) -> Matrix {
        let u = &split.stable_basis;
        Matrix::hstack(&[u, &structure::j_mul(u).unwrap().scale(-1.0)])
    }

    fn stable_hamiltonian(n: usize, seed: usize) -> Matrix {
        // A Hamiltonian matrix built from a Hurwitz A, PSD G and PSD Q has no
        // imaginary-axis eigenvalues when (A, G, Q) is "regular enough"; use a
        // strictly Hurwitz diagonal-dominant A and definite G, Q.
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                -2.0 - (i + seed) as f64 * 0.3
            } else {
                0.1 * (((i * 3 + j * 5 + seed) % 5) as f64 - 2.0)
            }
        });
        let b = Matrix::from_fn(n, n, |i, j| (((i * 7 + j * 3 + seed) % 6) as f64) * 0.2);
        let g = &(&b * &b.transpose()) + &Matrix::identity(n).scale(0.5);
        let c = Matrix::from_fn(n, n, |i, j| (((i + 2 * j + seed) % 4) as f64) * 0.15);
        let q = &(&c.transpose() * &c) + &Matrix::identity(n).scale(0.3);
        hamiltonian_from_blocks(&a, &g.scale(-1.0), &q).unwrap()
    }

    #[test]
    fn split_of_small_hamiltonian() {
        let h = stable_hamiltonian(2, 1);
        let split = hamiltonian_split(&h, 1e-9).unwrap();
        assert_eq!(split.stable_basis.cols(), 2);
        assert!(is_orthogonal_symplectic(&z1(&split), 1e-8).unwrap());
        // Stable block is Hurwitz.
        assert!(eigen::is_hurwitz(&split.stable_block, 1e-10).unwrap());
        // Invariance of the subspace.
        assert!(invariance_residual(&h, &split.stable_basis).unwrap() < 1e-8);
    }

    #[test]
    fn block_triangular_form() {
        let h = stable_hamiltonian(4, 3);
        let split = hamiltonian_split(&h, 1e-9).unwrap();
        let z1 = z1(&split);
        let t = &z1.transpose_matmul(&h).unwrap() * &z1;
        let n = 4;
        // Lower-left block vanishes.
        assert!(t.block(n, 2 * n, 0, n).norm_max() < 1e-7 * h.norm_fro());
        // Lower-right block is −Ãᵀ.
        let lower_right = t.block(n, 2 * n, n, 2 * n);
        assert!(lower_right.approx_eq(
            &split.stable_block.transpose().scale(-1.0),
            1e-6 * h.norm_fro()
        ));
    }

    #[test]
    fn eigenvalues_of_stable_block_are_the_stable_half() {
        let h = stable_hamiltonian(3, 5);
        let split = hamiltonian_split(&h, 1e-9).unwrap();
        let all = eigen::eigenvalues(&h).unwrap();
        let stable_count = all.iter().filter(|z| z.re < 0.0).count();
        assert_eq!(stable_count, 3);
        let block_eigs = eigen::eigenvalues(&split.stable_block).unwrap();
        for z in block_eigs {
            assert!(z.re < 0.0);
            // Each eigenvalue of the block appears in the full spectrum.
            assert!(all
                .iter()
                .any(|w| (w.re - z.re).abs() < 1e-6 && (w.im - z.im).abs() < 1e-6));
        }
    }

    #[test]
    fn decouple_matches_the_explicit_decoupling_matrix() {
        for (n, seed) in [(3, 5), (4, 3)] {
            let h = stable_hamiltonian(n, seed);
            let split = hamiltonian_split(&h, 1e-9).unwrap();
            let u = &split.stable_basis;
            let ju = structure::j_mul(u).unwrap();
            let y = u
                .transpose_matmul(&(&split.sign * &ju))
                .unwrap()
                .scale(-0.5);
            let w = Matrix::from_fn(n, 3, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
            let want = &y * &w;
            let got = split.decouple(&w).unwrap();
            assert!(
                got.approx_eq(&want, 1e-10 * want.norm_max().max(1.0)),
                "n = {n}: Y·w differs by {:.3e}",
                (&got - &want).norm_max()
            );
        }
    }

    #[test]
    fn imaginary_axis_eigenvalues_rejected() {
        // J itself is Hamiltonian with eigenvalues ±i.
        let j = structure::j_matrix(2);
        assert!(matches!(
            hamiltonian_split(&j, 1e-9),
            Err(ShhError::ImaginaryAxisEigenvalues) | Err(ShhError::Numerical(_))
        ));
    }

    #[test]
    fn non_hamiltonian_rejected() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert!(matches!(
            hamiltonian_split(&m, 1e-9),
            Err(ShhError::StructureViolation { .. })
        ));
        assert!(hamiltonian_split(&Matrix::identity(3), 1e-9).is_err());
    }
}
