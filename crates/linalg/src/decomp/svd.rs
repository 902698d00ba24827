//! Singular value decomposition via the one-sided Jacobi method.
//!
//! The one-sided Jacobi algorithm is simple, numerically robust and accurate for
//! the moderate dimensions this workspace handles (a few hundred); it avoids the
//! deflation bookkeeping of bidiagonal QR at the cost of a small constant factor.
//!
//! Structured input (MNA stamps, the Φ pencil and the bases built from them)
//! is mostly exact zeros, so the sweeps settle a column pair before any
//! arithmetic in two cases where the pair test would pass it over anyway:
//!
//! * **A negligible column.** Each column's squared norm is cached until a
//!   rotation moves that column (a stale norm is recomputed in the same pass
//!   as the pair's inner product), and a pair with a cached norm at or below
//!   the negligible floor is skipped.  The cache holds exactly the sum the
//!   pass would compute.
//! * **Disjoint nonzero patterns.** Each column's nonzero pattern is kept as
//!   a bitset, and both columns of a rotated pair take the union, a superset
//!   of their new patterns.  When two patterns are disjoint, every product
//!   in the pair's inner product has an exact-zero factor, so the sum is
//!   `±0` and the orthogonality test would skip the pair.  That holds only
//!   while every entry is finite (`0·∞` is NaN): patterns are kept only for
//!   all-finite input, and dropped at the first rotation computed from an
//!   overflowed sum.
//!
//! These are the exact special cases of the pair skipping in one-sided
//! Jacobi codes (de Rijk 1989; Demmel & Veselić 1992): every rotation is the
//! one the plain cyclic loop computes, so `U`, `σ` and `V` are bit for bit
//! unchanged, and dense input pays only the pattern test per pair.

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

/// Input whose largest entry lies outside `[2^-SCALE_WINDOW, 2^SCALE_WINDOW]`
/// is rescaled by a power of two before the sweeps: beyond about `1e±77`
/// the pair test's `app·aqq` overflows (every pair passes as orthogonal) or
/// underflows (pairs rotate until the sweep limit).
const SCALE_WINDOW: i32 = 100;

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

/// One-sided Jacobi sweeps over the columns of a working matrix stored
/// transposed (`wt`, with `vt` accumulating `V` the same way when `want_v`),
/// run until no column pair needs a rotation; `false` when the sweep limit
/// is reached first.  Columns whose squared norm is at most `negligible`
/// are treated as exactly zero.
type Sweeps = fn(&mut Matrix, &mut Matrix, bool, f64) -> bool;

fn jacobi_svd(a: &Matrix, want_v: bool) -> Result<Svd, LinalgError> {
    jacobi_svd_with(a, want_v, sweep_until_orthogonal)
}

fn jacobi_svd_with(a: &Matrix, want_v: bool, sweeps: Sweeps) -> Result<Svd, LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, m.min(n)),
            s: vec![],
            v: Matrix::zeros(n, if m >= n { n } else { m.min(n) }),
        });
    }
    let max_abs = a.norm_max();
    if max_abs.is_finite() && max_abs > 0.0 {
        // ⌊log₂ max⌋, clamped so that both powers of two below are finite.
        let exponent = (max_abs.log2().floor() as i32).clamp(-1022, 1023);
        if exponent.abs() > SCALE_WINDOW {
            // Scaling by a power of two is exact (barring entries that fall
            // below the subnormal range, far under ε·max), and so is scaling
            // σ back; U and V do not depend on the scale.
            let mut d = jacobi_svd_with(&a.scale(2f64.powi(-exponent)), want_v, sweeps)?;
            let back = 2f64.powi(exponent);
            d.s.iter_mut().for_each(|s| *s *= back);
            return Ok(d);
        }
    }
    if m < n {
        // Work on the transpose and swap the factors: Aᵀ = U Σ Vᵀ  ⇒  A = V Σ Uᵀ.
        // The wide case needs the transposed problem's V (it becomes this U),
        // so the full decomposition is always requested.
        let t = jacobi_svd_with(&a.transpose(), true, sweeps)?;
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
    // Columns whose norm has dropped below this are treated as exactly zero;
    // without the floor, pairs of negligible columns keep rotating forever.
    let negligible = (f64::EPSILON * a.norm_fro().max(f64::MIN_POSITIVE)).powi(2);
    let converged = sweeps(&mut wt, &mut vt, want_v, negligible);
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

/// The sweeps behind [`svd`] and [`svd_u_s`]: every pair gets the textbook
/// cyclic-by-rows treatment, except that the two exact skips of the module
/// documentation settle a pair before any arithmetic.
fn sweep_until_orthogonal(wt: &mut Matrix, vt: &mut Matrix, want_v: bool, negligible: f64) -> bool {
    let (n, m) = wt.shape();
    let eps = f64::EPSILON;
    // Squared column norms, valid while `fresh`: a column keeps its norm
    // until a rotation moves it.
    let mut norm_sq = vec![0.0; n];
    let mut fresh = vec![false; n];
    // One bit per row and `words` per column: a superset of each column's
    // nonzero pattern, kept only while every entry is finite.
    let words = m.div_ceil(64);
    let mut patterns = if wt.as_slice().iter().all(|x| x.is_finite()) {
        nonzero_patterns(wt, words)
    } else {
        Vec::new()
    };

    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n.saturating_sub(1) {
            for q in (p + 1)..n {
                if !patterns.is_empty()
                    && patterns[p * words..(p + 1) * words]
                        .iter()
                        .zip(&patterns[q * words..(q + 1) * words])
                        .all(|(bp, bq)| bp & bq == 0)
                {
                    continue;
                }
                if (fresh[p] && norm_sq[p] <= negligible) || (fresh[q] && norm_sq[q] <= negligible)
                {
                    continue;
                }
                let wd = wt.as_mut_slice();
                // Rows p and q of the transposed buffer are columns p, q of W.
                let (head, tail) = wd.split_at_mut(q * m);
                let row_p = &mut head[p * m..(p + 1) * m];
                let row_q = &mut tail[..m];
                let (sp, sq, apq) = match (fresh[p], fresh[q]) {
                    (false, false) => pair_sums::<true, true>(row_p, row_q),
                    (false, true) => pair_sums::<true, false>(row_p, row_q),
                    (true, false) => pair_sums::<false, true>(row_p, row_q),
                    (true, true) => pair_sums::<false, false>(row_p, row_q),
                };
                if !fresh[p] {
                    norm_sq[p] = sp;
                }
                if !fresh[q] {
                    norm_sq[q] = sq;
                }
                fresh[p] = true;
                fresh[q] = true;
                let (app, aqq) = (norm_sq[p], norm_sq[q]);
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
                fresh[p] = false;
                fresh[q] = false;
                if !(app.is_finite() && aqq.is_finite() && apq.is_finite()) {
                    // An overflowed sum can rotate entries to ±∞, and 0·∞ is
                    // NaN, not 0: leave every later pair to the arithmetic.
                    patterns.clear();
                } else if !patterns.is_empty() {
                    // Both rotated columns are zero wherever both were.
                    let (head, tail) = patterns.split_at_mut(q * words);
                    for (bp, bq) in head[p * words..].iter_mut().zip(&mut tail[..words]) {
                        *bp |= *bq;
                        *bq = *bp;
                    }
                }
            }
        }
        if !rotated {
            return true;
        }
    }
    false
}

/// Bitsets of the nonzero entries of each row of `wt` (each column of W),
/// `words` 64-bit words per row.
fn nonzero_patterns(wt: &Matrix, words: usize) -> Vec<u64> {
    let mut bits = vec![0u64; wt.rows() * words];
    for (col, row) in bits
        .chunks_exact_mut(words)
        .zip(wt.as_slice().chunks_exact(wt.cols()))
    {
        for (i, &x) in row.iter().enumerate() {
            if x != 0.0 {
                col[i / 64] |= 1 << (i % 64);
            }
        }
    }
    bits
}

/// `(Σ p², Σ q², Σ p·q)` over two columns in one pass, each summed in
/// ascending row order; a squared norm not asked for (`P` or `Q` false)
/// comes back as 0.
#[inline(always)]
fn pair_sums<const P: bool, const Q: bool>(row_p: &[f64], row_q: &[f64]) -> (f64, f64, f64) {
    let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
    for (&wp, &wq) in row_p.iter().zip(row_q) {
        if P {
            app += wp * wp;
        }
        if Q {
            aqq += wq * wq;
        }
        apq += wp * wq;
    }
    (app, aqq, apq)
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

    /// The cyclic pair loop without the skips, as it ran before them: the
    /// reference the skipping sweeps must match bit for bit.
    fn reference_sweeps(wt: &mut Matrix, vt: &mut Matrix, want_v: bool, negligible: f64) -> bool {
        let (n, m) = wt.shape();
        let eps = f64::EPSILON;
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n.saturating_sub(1) {
                for q in (p + 1)..n {
                    let wd = wt.as_mut_slice();
                    let (head, tail) = wd.split_at_mut(q * m);
                    let row_p = &mut head[p * m..(p + 1) * m];
                    let row_q = &mut tail[..m];
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
                    if t.abs() > eps {
                        rotated = true;
                    }
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
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
                return true;
            }
        }
        false
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `svd` and `svd_u_s` against the reference sweeps, compared by bits.
    fn assert_matches_reference(a: &Matrix, case: &str) {
        let full = svd(a);
        let reference = jacobi_svd_with(a, true, reference_sweeps);
        match (&full, &reference) {
            (Ok(d), Ok(r)) => {
                assert_eq!(bits(d.u.as_slice()), bits(r.u.as_slice()), "U: {case}");
                assert_eq!(bits(&d.s), bits(&r.s), "σ: {case}");
                assert_eq!(bits(d.v.as_slice()), bits(r.v.as_slice()), "V: {case}");
            }
            (Err(e), Err(r)) => assert_eq!(e, r, "{case}"),
            _ => panic!("only one path converged: {case}"),
        }
        let u_only = svd_u_s(a);
        let reference = jacobi_svd_with(a, false, reference_sweeps);
        match (&u_only, &reference) {
            (Ok((u, s)), Ok(r)) => {
                assert_eq!(bits(u.as_slice()), bits(r.u.as_slice()), "U (u_s): {case}");
                assert_eq!(bits(s), bits(&r.s), "σ (u_s): {case}");
            }
            (Err(e), Err(r)) => assert_eq!(e, r, "u_s {case}"),
            _ => panic!("only one u_s path converged: {case}"),
        }
    }

    /// SplitMix64, for a reproducible generated sweep.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }
    }

    /// One generated matrix: `kind` picks the nonzero structure, `scale`
    /// the magnitudes (uniform, per-column graded or per-entry across
    /// 1e-150..1e150).
    fn generated(m: usize, n: usize, kind: usize, scale: usize, rng: &mut Stream) -> Matrix {
        let density = [0.01, 0.05, 0.1, 0.3][rng.below(4)];
        let bandwidth = 1 + rng.below(3);
        let block = 1 + rng.below(6);
        let mut a = Matrix::from_fn(m, n, |i, j| {
            let inside = match kind {
                0 => true,
                1 => rng.unit() < density,
                2 => i == j,
                3 => i / block == j / block,
                4 => i.abs_diff(j) <= bandwidth,
                _ => rng.unit() < 0.3,
            };
            if inside {
                rng.unit() - 0.5
            } else {
                0.0
            }
        });
        if kind == 5 {
            // Zero columns.
            for _ in 0..=n / 4 {
                let j = rng.below(n);
                for i in 0..m {
                    a[(i, j)] = 0.0;
                }
            }
        }
        if kind == 6 && n > 1 {
            // Duplicated (and negated) columns.
            for _ in 0..=n / 4 {
                let (src, dst) = (rng.below(n), rng.below(n));
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                for i in 0..m {
                    a[(i, dst)] = sign * a[(i, src)];
                }
            }
        }
        let column_exponent: Vec<i32> = (0..n).map(|_| rng.below(301) as i32 - 150).collect();
        for i in 0..m {
            for j in 0..n {
                let exponent = match scale {
                    0 => 0,
                    1 => -150,
                    2 => 150,
                    3 => column_exponent[j],
                    _ => rng.below(301) as i32 - 150,
                };
                a[(i, j)] *= 10f64.powi(exponent);
            }
        }
        a
    }

    #[test]
    fn skipping_sweeps_match_the_plain_loop_bit_for_bit() {
        let mut rng = Stream(0x5EED);
        let shapes = [
            (1usize, 1usize),
            (5, 1),
            (1, 6),
            (7, 3),
            (3, 7),
            (12, 12),
            (24, 9),
            (9, 24),
            (40, 40),
            (65, 63),
            (63, 65),
        ];
        let mut cases = 0;
        for &(m, n) in &shapes {
            for kind in 0..7 {
                for scale in 0..5 {
                    // Uniformly tiny input (scale 1) is rescaled before the
                    // sweeps on both paths (`SCALE_WINDOW`); it stays on the
                    // small shapes.
                    if scale == 1 && m * n > 300 {
                        continue;
                    }
                    let a = generated(m, n, kind, scale, &mut rng);
                    assert_matches_reference(&a, &format!("{m}x{n} kind {kind} scale {scale}"));
                    cases += 1;
                }
            }
        }
        // Orders the checks reach, one matrix of each structure.
        for &(m, n) in &[(130usize, 130usize), (130, 96), (96, 130)] {
            for kind in 0..7 {
                let a = generated(m, n, kind, 3, &mut rng);
                assert_matches_reference(&a, &format!("{m}x{n} kind {kind}"));
                cases += 1;
            }
        }
        assert_eq!(cases, shapes.len() * 35 - 3 * 7 + 21);
    }

    #[test]
    fn uniformly_extreme_scales_are_rescaled_exactly() {
        let mut rng = Stream(0x5CA1E);
        for &(m, n) in &[(20usize, 20usize), (40, 40), (65, 63), (63, 65)] {
            let a = generated(m, n, 0, 0, &mut rng);
            let unscaled = svd(&a).unwrap();
            for exponent in [-150, -100, 100, 150] {
                let scale = 10f64.powi(exponent);
                let case = format!("{m}x{n} at 1e{exponent}");
                let d = svd(&a.scale(scale)).unwrap_or_else(|e| panic!("{case}: {e}"));
                for (s, s0) in d.s.iter().zip(&unscaled.s) {
                    let relative = (s / scale - s0).abs() / s0;
                    assert!(relative <= 1e-13, "{case}: σ off by {relative:.1e}");
                }
                let k = d.s.len();
                let gram = d.u.transpose_matmul(&d.u).unwrap();
                let drift = (&gram - &Matrix::identity(k)).norm_max();
                assert!(drift <= 1e-13, "{case}: ‖UᵀU − I‖ = {drift:.1e}");
            }
        }
    }

    #[test]
    fn non_finite_input_takes_the_unskipped_path() {
        // Columns 0 and 1 have disjoint patterns, yet NaN·0 is NaN: the plain
        // loop rotates the pair with a NaN angle, which the pattern skip
        // would miss.
        let mut a = Matrix::from_fn(6, 4, |i, j| if i % 4 == j { 1.0 + i as f64 } else { 0.0 });
        a[(0, 0)] = f64::NAN;
        assert_matches_reference(&a, "NaN");
        a[(0, 0)] = f64::INFINITY;
        assert_matches_reference(&a, "∞");
        a[(0, 0)] = 1.0;
        a[(1, 2)] = f64::NEG_INFINITY;
        a[(3, 3)] = f64::NAN;
        assert_matches_reference(&a, "−∞ and NaN");
        let d = svd(&Matrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, 1.0]])).unwrap();
        assert!(
            d.s.iter().all(|x| x.is_nan()),
            "the NaN reached every column"
        );
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
