//! Singular value decomposition via the one-sided Jacobi method.
//!
//! The one-sided Jacobi algorithm is simple, numerically robust and accurate for
//! the moderate dimensions this workspace handles (a few hundred); it avoids the
//! deflation bookkeeping of bidiagonal QR at the cost of a small constant factor.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Singular value decomposition `A = U Σ Vᵀ`.
///
/// * `u` is `m x k` with `k = min(m, n)`; columns associated with nonzero
///   singular values are orthonormal, columns associated with (numerically)
///   zero singular values are zero vectors.
/// * `s` holds the singular values in non-increasing order.
/// * `v` is `n x n` orthogonal when `m >= n`, and `n x k` (orthonormal columns)
///   when `m < n`; in both cases `A ≈ U diag(s) Vᵀ` on the leading `k` columns.
///
/// For subspace computations use the helpers in [`crate::subspace`], which
/// handle the rank decisions and orientation consistently.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`m x min(m, n)`).
    pub u: Matrix,
    /// Singular values, non-increasing.
    pub s: Vec<f64>,
    /// Right singular vectors.
    pub v: Matrix,
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// Computes the singular value decomposition of `a`.
///
/// # Errors
///
/// Returns [`LinalgError::ConvergenceFailure`] if the Jacobi sweeps fail to
/// converge (does not happen for finite input in practice).
pub fn svd(a: &Matrix) -> Result<Svd, LinalgError> {
    jacobi_svd(a, true)
}

/// Computes only the left factor and the singular values of `a`, skipping the
/// accumulation of `V` when possible.
///
/// The one-sided Jacobi rotations applied to the working matrix never read
/// `V`, so `u` and `s` are bit-for-bit identical to [`svd`]'s — at roughly
/// half the rotation work for square input.  This is the path behind the
/// rank / range-basis decisions in [`crate::subspace`], which never look at
/// `V`.
///
/// # Errors
///
/// Same as [`svd`].
pub fn svd_u_s(a: &Matrix) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let d = jacobi_svd(a, false)?;
    Ok((d.u, d.s))
}

fn jacobi_svd(a: &Matrix, want_v: bool) -> Result<Svd, LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, m.min(n)),
            s: vec![],
            v: Matrix::zeros(n, if m >= n { n } else { m.min(n) }),
        });
    }
    if m < n {
        // Work on the transpose and swap the factors: Aᵀ = U Σ Vᵀ  ⇒  A = V Σ Uᵀ.
        // The wide case needs the transposed problem's V (it becomes this U),
        // so the full decomposition is always requested.
        let t = jacobi_svd(&a.transpose(), true)?;
        return Ok(Svd {
            u: t.v.block(0, m, 0, t.s.len().min(m)),
            s: t.s,
            v: t.u,
        });
    }

    // One-sided Jacobi on the columns of W (m x n, m >= n).  The working
    // matrices are stored TRANSPOSED (`wt` is n x m: row j of `wt` is column j
    // of W) so that every column dot product and rotation runs over two
    // contiguous rows instead of two stride-n walks; the arithmetic per
    // element — and therefore the result, bit for bit — is unchanged.
    let mut wt = a.transpose();
    let mut vt = if want_v {
        Matrix::identity(n)
    } else {
        Matrix::zeros(0, 0)
    };
    let eps = f64::EPSILON;
    // Columns whose norm has dropped below this are treated as exactly zero;
    // without the floor, pairs of negligible columns keep rotating forever.
    let negligible = (eps * a.norm_fro().max(f64::MIN_POSITIVE)).powi(2);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n.saturating_sub(1) {
            for q in (p + 1)..n {
                let wd = wt.as_mut_slice();
                // Rows p and q of the transposed buffer are columns p, q of W.
                let (head, tail) = wd.split_at_mut(q * m);
                let row_p = &mut head[p * m..(p + 1) * m];
                let row_q = &mut tail[..m];
                // Column inner products.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for (&wp, &wq) in row_p.iter().zip(row_q.iter()) {
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if app <= negligible || aqq <= negligible {
                    continue;
                }
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                // The test above sits at the rounding level of the dot product
                // itself, so a pair can stall just above it, where a rotation
                // by an angle below ε only flips last bits back and forth: a
                // sweep that needed no larger rotation ends the iteration.
                if t.abs() > eps {
                    rotated = true;
                }
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate columns p and q of W and V.
                for (xp, xq) in row_p.iter_mut().zip(row_q.iter_mut()) {
                    let wp = *xp;
                    let wq = *xq;
                    *xp = c * wp - s * wq;
                    *xq = s * wp + c * wq;
                }
                if want_v {
                    let vd = vt.as_mut_slice();
                    let (vhead, vtail) = vd.split_at_mut(q * n);
                    let vrow_p = &mut vhead[p * n..(p + 1) * n];
                    let vrow_q = &mut vtail[..n];
                    for (xp, xq) in vrow_p.iter_mut().zip(vrow_q.iter_mut()) {
                        let vp = *xp;
                        let vq = *xq;
                        *xp = c * vp - s * vq;
                        *xq = s * vp + c * vq;
                    }
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::ConvergenceFailure {
            operation: "svd::svd",
            iterations: MAX_SWEEPS,
        });
    }

    // Extract singular values.
    let mut sigma: Vec<f64> = Vec::with_capacity(n);
    for j in 0..n {
        let row = &wt.as_slice()[j * m..(j + 1) * m];
        let mut norm = 0.0;
        for &x in row {
            norm += x * x;
        }
        sigma.push(norm.sqrt());
    }

    // Sort in non-increasing order of singular values and assemble the sorted
    // factors directly from the transposed buffers.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));
    let s_sorted: Vec<f64> = order.iter().map(|&i| sigma[i]).collect();
    let mut u_sorted = Matrix::zeros(m, n);
    for (jj, &src) in order.iter().enumerate() {
        let norm = sigma[src];
        if norm > 0.0 {
            let row = &wt.as_slice()[src * m..(src + 1) * m];
            for (i, &x) in row.iter().enumerate() {
                u_sorted[(i, jj)] = x / norm;
            }
        }
    }
    let v_sorted = if want_v {
        let mut v_sorted = Matrix::zeros(n, n);
        for (jj, &src) in order.iter().enumerate() {
            let row = &vt.as_slice()[src * n..(src + 1) * n];
            for (i, &x) in row.iter().enumerate() {
                v_sorted[(i, jj)] = x;
            }
        }
        v_sorted
    } else {
        Matrix::zeros(n, 0)
    };

    Ok(Svd {
        u: u_sorted,
        s: s_sorted,
        v: v_sorted,
    })
}

/// Numerical rank of a non-increasing singular-value sequence with the same
/// decision rule as [`Svd::rank`].
pub fn rank_from_singular_values(s: &[f64], rel_tol: f64) -> usize {
    if s.is_empty() {
        return 0;
    }
    let smax = s[0];
    if smax == 0.0 {
        return 0;
    }
    let threshold = smax * rel_tol.max(f64::EPSILON);
    s.iter().filter(|&&x| x > threshold).count()
}

impl Svd {
    /// Numerical rank using the tolerance `tol * max(s)` (or an absolute floor
    /// scaled by machine epsilon if all singular values are tiny).
    pub fn rank(&self, rel_tol: f64) -> usize {
        rank_from_singular_values(&self.s, rel_tol)
    }

    /// Reconstructs `U diag(s) Vᵀ` (for testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.s.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.rows() {
                us[(i, j)] *= self.s[j];
            }
        }
        let vk = self.v.block(0, self.v.rows(), 0, k);
        &us * &vk.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rotation_too_small_to_move_the_columns_ends_the_sweeps() {
        // Each 2×2 block stalls one rotation short of the stop test: its
        // columns are orthogonal to within the dot product's rounding, yet
        // |apq| stays at 1.3·ε·‖p‖‖q‖, and rotations by ±1.7e-16 rad flipped
        // the last bits of one column back and forth until the sweep limit.
        let a = Matrix::from_vec(
            4,
            4,
            vec![
                0.0,
                0.0,
                216929.53460802417,
                -602408.1767128783,
                0.0,
                0.0,
                -606843.5613613843,
                216929.53460802414,
                216929.5346080242,
                -602408.1767128783,
                0.0,
                0.0,
                -606843.5613613845,
                216929.53460802417,
                0.0,
                0.0,
            ],
        );
        let d = svd(&a).unwrap();
        assert!(d.reconstruct().approx_eq(&a, 1e-9 * a.norm_max()));
        assert_eq!(d.rank(1e-12), 4);
    }

    fn check_svd(a: &Matrix, tol: f64) -> Svd {
        let d = svd(a).unwrap();
        let recon = d.reconstruct();
        assert!(
            recon.approx_eq(a, tol),
            "reconstruction error {}",
            (&recon - a).norm_max()
        );
        // Non-increasing singular values.
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
        d
    }

    #[test]
    fn svd_of_tall_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[3.0, 0.0], &[0.0, -1.0]]);
        let d = check_svd(&a, 1e-12);
        assert_eq!(d.s.len(), 2);
        assert!((d.s[0] - 10.0_f64.sqrt()).abs() < 1e-12);
        assert!((d.s[1] - 5.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn svd_of_wide_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let d = check_svd(&a, 1e-11);
        assert_eq!(d.s.len(), 2);
        assert_eq!(d.u.shape(), (2, 2));
    }

    #[test]
    fn rank_detection() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[0.0, 0.0, 1.0]]);
        let d = svd(&a).unwrap();
        assert_eq!(d.rank(1e-10), 2);
        let z = svd(&Matrix::zeros(3, 3)).unwrap();
        assert_eq!(z.rank(1e-10), 0);
    }

    #[test]
    fn orthogonality_of_factors() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 5) % 9) as f64 - 4.0);
        let d = check_svd(&a, 1e-11);
        let r = d.rank(1e-12);
        // The leading r columns of U and V are orthonormal.
        let ur = d.u.block(0, 6, 0, r);
        let vr = d.v.block(0, 4, 0, r);
        assert!(ur
            .transpose_matmul(&ur)
            .unwrap()
            .approx_eq(&Matrix::identity(r), 1e-11));
        assert!(vr
            .transpose_matmul(&vr)
            .unwrap()
            .approx_eq(&Matrix::identity(r), 1e-11));
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram_matrix() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 0.0], &[0.0, 1.0]]);
        let d = check_svd(&a, 1e-13);
        assert!((d.s[0] - 2.0).abs() < 1e-13);
        assert!((d.s[1] - 1.0).abs() < 1e-13);
    }

    #[test]
    fn identity_has_unit_singular_values() {
        let d = check_svd(&Matrix::identity(5), 1e-13);
        assert!(d.s.iter().all(|&x| (x - 1.0).abs() < 1e-13));
    }

    #[test]
    fn empty_matrix_is_handled() {
        let d = svd(&Matrix::zeros(0, 3)).unwrap();
        assert!(d.s.is_empty());
        let d2 = svd(&Matrix::zeros(3, 0)).unwrap();
        assert!(d2.s.is_empty());
    }

    #[test]
    fn moderate_size_accuracy() {
        let n = 25;
        let a = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 13) as f64 * 0.3 - 1.7);
        check_svd(&a, 1e-9);
    }

    #[test]
    fn u_only_path_is_bitwise_identical() {
        let assert_paths_agree = |a: &Matrix| {
            let (m, n) = a.shape();
            let full = svd(a).unwrap();
            let (u, s) = svd_u_s(a).unwrap();
            assert_eq!(u.as_slice(), full.u.as_slice(), "U differs at {m}x{n}");
            assert_eq!(s, full.s, "singular values differ at {m}x{n}");
        };
        for &(m, n) in &[(6usize, 4usize), (12, 12), (3, 7), (9, 1)] {
            assert_paths_agree(&Matrix::from_fn(m, n, |i, j| {
                ((i * 11 + j * 5 + m + n) % 17) as f64 * 0.4 - 3.0
            }));
        }
        // Full rank at an order the checks reach: every column pair
        // rotates, over long sweeps.
        let n = crate::decomp::hessenberg::BLOCKED_MIN_DIM;
        assert_paths_agree(&Matrix::from_fn(n + 8, n, |i, j| {
            let v = ((i * 31 + j * 17 + 3) % 23) as f64 / 23.0 - 0.5;
            0.1 * v + if i == j { 2.0 + 0.01 * i as f64 } else { 0.0 }
        }));
    }
}
