//! Extraction of the residue matrix `M₁` (paper eqs. (24)–(25)).
//!
//! For a minimal passive descriptor system the impulsive part of `G(s)` is
//! `s·M₁` with `M₁ ⪰ 0`.  `M₁` is recovered from the grade-1/grade-2
//! generalized eigenvector chains of the pencil `(E, A)` at infinity:
//!
//! * right chains: `E v⁽¹⁾ = 0`, `E v⁽²⁾ = A v⁽¹⁾` (controllable directions),
//! * left chains:  `Eᵀ w⁽¹⁾ = 0`, `Eᵀ w⁽²⁾ = Aᵀ w⁽¹⁾` (observable directions),
//!
//! and the deflating projections `Z_R∞ = [V⁽¹⁾, V⁽²⁾]`,
//! `Z_L∞ = [W⁽¹⁾, W⁽²⁾]ᵀ` give `M₁ = −C_∞ A_∞⁺ E_∞ A_∞⁺ B_∞` on the projected
//! quadruple (paper eq. (25)).

use crate::error::PassivityError;
use ds_descriptor::DescriptorSystem;
use ds_linalg::decomp::svd;
use ds_linalg::{pinv, Matrix};

/// Result of the residue extraction.
#[derive(Debug, Clone)]
pub struct ResidueExtraction {
    /// The residue matrix `M₁` (`m x m`, zero when the system is proper).
    pub m1: Matrix,
    /// Number of grade-2 right (controllable) chains found.
    pub right_chains: usize,
    /// Number of grade-2 left (observable) chains found.
    pub left_chains: usize,
}

/// Orthonormal basis of `range(q)⊥` for `q` with orthonormal columns
/// (`n × r`, `r ≤ n`), built one column at a time from the coordinate vector
/// the remaining projector keeps most of, with two Gram–Schmidt passes each.
/// Costs `O(n·r·(n − r))` against the `O(n³)` of an SVD or a full QR, and
/// `ker Eᵀ = range(E)⊥` has as few dimensions as `ker E`.  The SVD of `E`
/// cannot supply this basis: the one-sided Jacobi `U` holds no orthonormal
/// columns for zero singular values.
fn orthonormal_complement(q: &Matrix) -> Matrix {
    let (n, r) = q.shape();
    if r == 0 {
        return Matrix::identity(n);
    }
    let k = n - r;
    let rows = || q.as_slice().chunks_exact(r);
    // keep[i] = ‖(I − QQᵀ − BBᵀ)·eᵢ‖²; the entries sum to the remaining
    // dimension, so the chosen one is at least 1/n and never cancels.
    let mut keep: Vec<f64> = rows()
        .map(|row| 1.0 - row.iter().map(|x| x * x).sum::<f64>())
        .collect();
    let mut basis: Vec<f64> = Vec::with_capacity(k * n);
    let mut coeff = vec![0.0; r];
    for _ in 0..k {
        let pivot = (0..n)
            .max_by(|&i, &j| keep[i].total_cmp(&keep[j]))
            .expect("a nonempty complement has rows");
        let mut v = vec![0.0; n];
        v[pivot] = 1.0;
        for _pass in 0..2 {
            coeff.fill(0.0);
            for (&vi, row) in v.iter().zip(rows()) {
                for (c, &x) in coeff.iter_mut().zip(row) {
                    *c += vi * x;
                }
            }
            for (vi, row) in v.iter_mut().zip(rows()) {
                *vi -= row.iter().zip(&coeff).map(|(x, c)| x * c).sum::<f64>();
            }
            for b in basis.chunks_exact(n) {
                let c: f64 = b.iter().zip(&v).map(|(x, y)| x * y).sum();
                for (vi, &bi) in v.iter_mut().zip(b) {
                    *vi -= c * bi;
                }
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for (vi, ki) in v.iter_mut().zip(keep.iter_mut()) {
            *vi /= norm;
            *ki -= *vi * *vi;
        }
        basis.extend_from_slice(&v);
    }
    Matrix::from_fn(n, k, |i, j| basis[j * n + i])
}

/// Orthonormal basis of the null space of the small square `m`, deciding
/// rank against `threshold` (an absolute singular-value cut).
fn null_basis(m: &Matrix, threshold: f64) -> Result<Matrix, PassivityError> {
    let k = m.cols();
    let d = svd::svd(m)?;
    let rank = d.s.iter().filter(|&&s| s > threshold).count();
    Ok(d.v.block(0, k, rank, k))
}

/// Multiplies row `i` of `m` by `1/s[i]` (`Σ⁻¹·m` on the leading rows).
fn scale_rows_inv(mut m: Matrix, s: &[f64]) -> Matrix {
    let cols = m.cols();
    for (row, &sigma) in m.as_mut_slice().chunks_exact_mut(cols.max(1)).zip(s) {
        for x in row.iter_mut() {
            *x /= sigma;
        }
    }
    m
}

/// Extracts `M₁` from the generalized eigenvector chains of `(E, A)`.
///
/// One SVD of `E = U_r Σ_r V_rᵀ` (numerical rank `r`) yields every subspace
/// the chains need: `ker E` (trailing columns of `V`), `range E = range U_r`,
/// `ker Eᵀ = (range E)⊥`, `range Eᵀ = range V_r`, and the pseudo-inverses
/// `E⁺ = V_r Σ_r⁻¹ U_rᵀ`, `(Eᵀ)⁺ = U_r Σ_r⁻¹ V_rᵀ`.  With `K` and `W`
/// orthonormal bases of `ker E` and `ker Eᵀ`, a right chain start `v = K x`
/// continues when `A v ∈ range E`, i.e. `(I − P_range E)·A·K x = 0`, which is
/// `N x = 0` for the small `N = Wᵀ A K`; a left chain start `w = W y`
/// continues when `Aᵀ w ∈ range Eᵀ`, i.e. `Nᵀ y = 0`.  Each rank decision is
/// made at the scale of the unrestricted operator `[E; (I − P_range E)·A]`
/// (resp. its transpose's counterpart), as the impulse cancellation does.
///
/// Returns a zero matrix for proper systems (no grade-2 chains).  The result
/// is exact when the polynomial part of `G(s)` has degree one; higher-order
/// polynomial parts are the caller's responsibility to detect (they make the
/// system non-passive regardless of `M₁`).
///
/// # Errors
///
/// Propagates numerical failures from the subspace computations.
pub fn extract_m1(
    sys: &DescriptorSystem,
    rel_tol: f64,
) -> Result<ResidueExtraction, PassivityError> {
    let m_out = sys.num_outputs();
    let m_in = sys.num_inputs();
    let n = sys.order();
    let no_chains = |right_chains, left_chains| ResidueExtraction {
        m1: Matrix::zeros(m_out, m_in),
        right_chains,
        left_chains,
    };
    if n == 0 {
        return Ok(no_chains(0, 0));
    }
    let e = sys.e();
    let a = sys.a();

    let e_svd = svd::svd(e)?;
    let r = e_svd.rank(rel_tol);
    if r == n {
        return Ok(no_chains(0, 0));
    }
    let sigma = &e_svd.s[..r];
    let u_r = e_svd.u.block(0, n, 0, r);
    let v_r = e_svd.v.block(0, n, 0, r);
    let kernel = e_svd.v.block(0, n, r, n);
    let cokernel = orthonormal_complement(&u_r);

    // ‖Wᵀ A‖ = ‖(I − P_range E)·A‖ and ‖A K‖ = ‖(I − P_range Eᵀ)·Aᵀ‖ bound
    // the unrestricted operators' scale together with σ₁(E).
    let a_k = a.matmul(&kernel)?;
    let wt_a = cokernel.transpose_matmul(a)?;
    let coupling = wt_a.matmul(&kernel)?;
    let tol = rel_tol.max(f64::EPSILON);
    let sigma_max = e_svd.s[0];
    let v1 = kernel.matmul(&null_basis(
        &coupling,
        tol * sigma_max.max(wt_a.norm_fro()),
    )?)?;
    let w1 = cokernel.matmul(&null_basis(
        &coupling.transpose(),
        tol * sigma_max.max(a_k.norm_fro()),
    )?)?;

    if v1.cols() == 0 || w1.cols() == 0 {
        return Ok(no_chains(v1.cols(), w1.cols()));
    }

    // Grade-2 partners: minimum-norm solutions of E V2 = A V1 and Eᵀ W2 = Aᵀ W1.
    let v2 = v_r.matmul(&scale_rows_inv(
        u_r.transpose_matmul(&a.matmul(&v1)?)?,
        sigma,
    ))?;
    let w2 = u_r.matmul(&scale_rows_inv(
        v_r.transpose_matmul(&a.transpose_matmul(&w1)?)?,
        sigma,
    ))?;

    // Deflating projections (paper eq. (25)).
    let zr = Matrix::hstack(&[&v1, &v2]);
    let zl = Matrix::hstack(&[&w1, &w2]).transpose();
    let e_inf = zl.matmul(&e.matmul(&zr)?)?;
    let a_inf = zl.matmul(&a.matmul(&zr)?)?;
    let b_inf = zl.matmul(sys.b())?;
    let c_inf = sys.c().matmul(&zr)?;

    let a_inf_pinv = pinv::pseudo_inverse(&a_inf, rel_tol)?;
    let inner = a_inf_pinv.matmul(&e_inf.matmul(&a_inf_pinv.matmul(&b_inf)?)?)?;
    let m1 = c_inf.matmul(&inner)?.scale(-1.0);

    Ok(ResidueExtraction {
        m1,
        right_chains: v1.cols(),
        left_chains: w1.cols(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_circuits::random::{random_passive_descriptor, RandomPassiveOptions};
    use ds_circuits::{generators, multiport};
    use ds_descriptor::transfer;
    use ds_linalg::subspace;

    /// Chain starts as the null space of the full stack
    /// `[E; (I − P_range E)·A]`, the form the extraction took before it was
    /// restricted to `ker E`.
    fn stacked_chain_starts(e: &Matrix, a: &Matrix, rel_tol: f64) -> Matrix {
        let n = e.rows();
        if subspace::null_space(e, rel_tol).unwrap().cols() == 0 {
            return Matrix::zeros(n, 0);
        }
        let range = subspace::range_basis(e, rel_tol).unwrap();
        let projector = &Matrix::identity(n) - &(&range * &range.transpose());
        let stacked = Matrix::vstack(&[e, &projector.matmul(a).unwrap()]);
        subspace::null_space(&stacked, rel_tol).unwrap()
    }

    /// `M₁` from the full-stacked chain starts and SVD pseudo-inverses of
    /// `E` and `Eᵀ`: the reference the kernel-restricted extraction must
    /// reproduce.
    fn reference_m1(sys: &DescriptorSystem, rel_tol: f64) -> ResidueExtraction {
        let (e, a) = (sys.e(), sys.a());
        let (et, at) = (e.transpose(), a.transpose());
        let v1 = stacked_chain_starts(e, a, rel_tol);
        let w1 = stacked_chain_starts(&et, &at, rel_tol);
        let mut m1 = Matrix::zeros(sys.num_outputs(), sys.num_inputs());
        if v1.cols() > 0 && w1.cols() > 0 {
            let pinv_e = pinv::pseudo_inverse(e, rel_tol).unwrap();
            let pinv_et = pinv::pseudo_inverse(&et, rel_tol).unwrap();
            let v2 = pinv_e.matmul(&a.matmul(&v1).unwrap()).unwrap();
            let w2 = pinv_et.matmul(&at.matmul(&w1).unwrap()).unwrap();
            let zr = Matrix::hstack(&[&v1, &v2]);
            let zl = Matrix::hstack(&[&w1, &w2]).transpose();
            let e_inf = &(&zl * e) * &zr;
            let a_inf = &(&zl * a) * &zr;
            let a_inf_pinv = pinv::pseudo_inverse(&a_inf, rel_tol).unwrap();
            let b_inf = &zl * sys.b();
            let c_inf = sys.c() * &zr;
            m1 = (&(&(&c_inf * &a_inf_pinv) * &e_inf) * &(&a_inf_pinv * &b_inf)).scale(-1.0);
        }
        ResidueExtraction {
            m1,
            right_chains: v1.cols(),
            left_chains: w1.cols(),
        }
    }

    #[test]
    fn kernel_restricted_chains_match_the_full_stacked_reference() {
        let mut systems: Vec<(String, DescriptorSystem)> = Vec::new();
        for order in [6, 12, 30, 60] {
            let ladder = generators::rlc_ladder_with_impulsive(order).unwrap();
            systems.push((format!("impulsive ladder {order}"), ladder.system));
            let negative = generators::negative_m1_model(order).unwrap();
            systems.push((format!("negative M1 {order}"), negative.system));
        }
        for ports in 1..=3 {
            for impulsive in [false, true] {
                let model = multiport::multiport_rlc_ladder(ports, 3, impulsive).unwrap();
                systems.push((format!("multiport {ports} {impulsive}"), model.system));
            }
        }
        let fixed = [
            ("rc ladder", generators::rc_ladder(6, 1.0, 0.5).unwrap()),
            (
                "rlc ladder",
                generators::rlc_ladder(5, 1.0, 0.2, 1.0).unwrap(),
            ),
            ("rc grid", generators::rc_grid(3, 3).unwrap()),
            (
                "nonpassive ladder",
                generators::nonpassive_ladder(8).unwrap(),
            ),
            (
                "coupled mesh",
                multiport::coupled_inductor_mesh(3, 3, 0.5).unwrap(),
            ),
            ("tline chain", multiport::lossy_tline_chain(4).unwrap()),
        ];
        for (name, model) in fixed {
            systems.push((name.to_string(), model.system));
        }
        for seed in 0..6 {
            let options = RandomPassiveOptions {
                with_impulsive_part: true,
                ports: 1 + (seed as usize % 3),
                ..RandomPassiveOptions::default()
            };
            let sys = random_passive_descriptor(&options, seed).unwrap();
            systems.push((format!("random passive {seed}"), sys));
        }
        systems.push(("series rl".into(), series_rl(2.0, 3.5)));
        systems.push(("proper rc".into(), proper_rc()));

        let mut with_chains = 0;
        for (name, sys) in &systems {
            let fast = extract_m1(sys, 1e-9).unwrap();
            let reference = reference_m1(sys, 1e-9);
            assert_eq!(
                (fast.right_chains, fast.left_chains),
                (reference.right_chains, reference.left_chains),
                "{name}: chain counts differ"
            );
            let scale = reference.m1.norm_max().max(1.0);
            let gap = (&fast.m1 - &reference.m1).norm_max();
            assert!(
                gap <= 1e-10 * scale,
                "{name}: M1 differs from the reference by {gap:.3e} (scale {scale:.3e})"
            );
            with_chains += usize::from(fast.right_chains > 0);
        }
        assert!(with_chains >= 12, "only {with_chains} systems had chains");
    }

    #[test]
    fn complement_is_orthonormal_and_orthogonal() {
        let q = ds_linalg::decomp::qr::factor_thin(&Matrix::from_fn(7, 4, |i, j| {
            ((i * 5 + j * 3) % 7) as f64 - 3.0 + if i == j { 4.0 } else { 0.0 }
        }))
        .q;
        let w = orthonormal_complement(&q);
        assert_eq!(w.shape(), (7, 3));
        assert!(w
            .transpose_matmul(&w)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-14));
        assert!(q.transpose_matmul(&w).unwrap().norm_max() < 1e-14);
        assert_eq!(
            orthonormal_complement(&Matrix::zeros(3, 0)),
            Matrix::identity(3)
        );
    }

    fn series_rl(r: f64, l: f64) -> DescriptorSystem {
        let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[-l, 0.0]]);
        DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, r)).unwrap()
    }

    fn proper_rc() -> DescriptorSystem {
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5]]);
        let c = Matrix::from_rows(&[&[1.0, 1.0]]);
        DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, 0.25)).unwrap()
    }

    #[test]
    fn m1_of_series_rl_is_the_inductance() {
        let extraction = extract_m1(&series_rl(2.0, 3.5), 1e-10).unwrap();
        assert_eq!(extraction.right_chains, 1);
        assert_eq!(extraction.left_chains, 1);
        assert!((extraction.m1[(0, 0)] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn m1_of_proper_system_is_zero() {
        let extraction = extract_m1(&proper_rc(), 1e-10).unwrap();
        assert_eq!(extraction.m1.norm_max(), 0.0);
        assert_eq!(extraction.right_chains, 0);
    }

    #[test]
    fn m1_of_mixed_system_matches_sampling() {
        let sys = proper_rc().parallel_sum(&series_rl(0.5, 2.25)).unwrap();
        let extraction = extract_m1(&sys, 1e-10).unwrap();
        let sampled = transfer::sample_m1(&sys, 1e5).unwrap();
        assert!(
            (extraction.m1[(0, 0)] - sampled[(0, 0)]).abs() < 1e-5,
            "chain-based {} vs sampled {}",
            extraction.m1[(0, 0)],
            sampled[(0, 0)]
        );
        assert!((extraction.m1[(0, 0)] - 2.25).abs() < 1e-8);
    }

    #[test]
    fn m1_of_mimo_system_is_symmetric_psd() {
        // Two decoupled RL branches: M1 = diag(1.5, 0.75).
        let branch1 = series_rl(1.0, 1.5);
        let branch2 = series_rl(0.5, 0.75);
        let e = Matrix::block_diag(&[branch1.e(), branch2.e()]);
        let a = Matrix::block_diag(&[branch1.a(), branch2.a()]);
        let b = Matrix::block_diag(&[branch1.b(), branch2.b()]);
        let c = Matrix::block_diag(&[branch1.c(), branch2.c()]);
        let d = Matrix::diag(&[1.0, 0.5]);
        let sys = DescriptorSystem::new(e, a, b, c, d).unwrap();
        let extraction = extract_m1(&sys, 1e-10).unwrap();
        assert!(extraction.m1.is_symmetric(1e-9));
        assert!((extraction.m1[(0, 0)] - 1.5).abs() < 1e-8);
        assert!((extraction.m1[(1, 1)] - 0.75).abs() < 1e-8);
        assert!(extraction.m1[(0, 1)].abs() < 1e-9);
    }

    #[test]
    fn negative_inductance_gives_indefinite_m1() {
        let extraction = extract_m1(&series_rl(1.0, -2.0), 1e-10).unwrap();
        assert!(extraction.m1[(0, 0)] < 0.0);
    }

    #[test]
    fn regular_system_has_no_chains() {
        let sys = DescriptorSystem::new(
            Matrix::identity(2),
            Matrix::diag(&[-1.0, -2.0]),
            Matrix::column(&[1.0, 1.0]),
            Matrix::row_vector(&[1.0, 1.0]),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        let extraction = extract_m1(&sys, 1e-10).unwrap();
        assert_eq!(extraction.m1.norm_max(), 0.0);
    }

    #[test]
    fn empty_system() {
        let sys = DescriptorSystem::new(
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 2),
            Matrix::zeros(2, 0),
            Matrix::identity(2),
        )
        .unwrap();
        let extraction = extract_m1(&sys, 1e-10).unwrap();
        assert_eq!(extraction.m1.shape(), (2, 2));
        assert_eq!(extraction.m1.norm_max(), 0.0);
    }
}
