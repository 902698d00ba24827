//! Householder QR factorization and column orthonormalization.
//!
//! Like the Hessenberg reduction, the full factorization has two kernels: a
//! one-reflector-at-a-time sweep (bit-identical to the historical code) and a
//! compact-WY blocked sweep that aggregates [`hessenberg::PANEL_NB`] reflectors
//! into `I − V·T·Vᵀ` form so the trailing and Q updates run as block products.
//! [`factor_full`] routes matrices with at least
//! [`hessenberg::BLOCKED_MIN_DIM`] rows to the blocked kernel.

use super::hessenberg;
use crate::matrix::Matrix;

/// The result of a Householder QR factorization `A = Q R`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Orthogonal factor. Thin (`m x min(m,n)`) or full (`m x m`) depending on
    /// the constructor used.
    pub q: Matrix,
    /// Upper-triangular (or upper-trapezoidal) factor.
    pub r: Matrix,
}

/// Computes the *full* QR factorization: `q` is `m x m` orthogonal and `r` is
/// `m x n` upper trapezoidal.
pub fn factor_full(a: &Matrix) -> Qr {
    if a.rows() >= hessenberg::BLOCKED_MIN_DIM {
        factor_full_blocked(a)
    } else {
        factor_full_unblocked(a)
    }
}

/// Compact-WY blocked full QR, used by [`factor_full`] for tall matrices and
/// exposed so equivalence tests and benchmarks can run it at any size.
///
/// Panel columns are reduced one reflector at a time (rank-1 updates confined
/// to the panel); the accumulated block reflector `I − V·T·Vᵀ` then hits the
/// trailing columns as `C ← C − V·(Tᵀ·(Vᵀ·C))` and the orthogonal factor as
/// `Q ← Q − (Q·V)·T·Vᵀ`, all with contiguous `nb`-length inner loops.
pub fn factor_full_blocked(a: &Matrix) -> Qr {
    let (m, n) = a.shape();
    let mut r = a.clone();
    let mut q = Matrix::identity(m);
    let kmax = n.min(m.saturating_sub(1));
    let nb = hessenberg::PANEL_NB.max(1);
    let mut panel_v: Vec<f64> = Vec::new();
    let mut panel_t: Vec<f64> = Vec::new();
    let mut panel_z: Vec<f64> = Vec::new();
    let mut hvec: Vec<f64> = vec![0.0; m];
    let mut tdots: Vec<f64> = vec![0.0; nb];
    let mut dots: Vec<f64> = vec![0.0; n.max(1)];
    let mut k0 = 0;
    while k0 < kmax {
        let nbe = nb.min(kmax - k0);
        let vrows = m - k0; // V row r ↔ global row k0 + r
        panel_v.clear();
        panel_v.resize(vrows * nbe, 0.0);
        panel_t.clear();
        panel_t.resize(nbe * nbe, 0.0);
        {
            let rd = r.as_mut_slice();
            for j in 0..nbe {
                let c = k0 + j;
                // Householder vector for column c, rows c..m (same sign
                // convention and skip conditions as the unblocked sweep; a
                // skipped column leaves the zero reflector in V/T column j).
                let mut norm_x = 0.0;
                for i in c..m {
                    norm_x += rd[i * n + c] * rd[i * n + c];
                }
                norm_x = norm_x.sqrt();
                if norm_x == 0.0 {
                    continue;
                }
                let alpha = if rd[c * n + c] >= 0.0 {
                    -norm_x
                } else {
                    norm_x
                };
                let vlen = m - c;
                let v = &mut hvec[..vlen];
                v[0] = rd[c * n + c] - alpha;
                for i in (c + 1)..m {
                    v[i - c] = rd[i * n + c];
                }
                let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
                if vnorm_sq <= f64::MIN_POSITIVE {
                    continue;
                }
                let beta = 2.0 / vnorm_sq;
                let v = &hvec[..vlen];
                for (i, &vi) in v.iter().enumerate() {
                    panel_v[(j + i) * nbe + j] = vi;
                }
                // Apply H_j to the remaining panel columns c..k0+nbe
                // immediately (rows c..m, two-pass); trailing columns wait for
                // the aggregated block update.
                let jhi = k0 + nbe;
                dots[c..jhi].fill(0.0);
                for i in c..m {
                    let vi = v[i - c];
                    let row = &rd[i * n + c..i * n + jhi];
                    for (d, &x) in dots[c..jhi].iter_mut().zip(row.iter()) {
                        *d += vi * x;
                    }
                }
                for i in c..m {
                    let vi = v[i - c];
                    let row = &mut rd[i * n + c..i * n + jhi];
                    for (x, &d) in row.iter_mut().zip(dots[c..jhi].iter()) {
                        *x -= (beta * d) * vi;
                    }
                }
                // T column j: T[0..j, j] = −β_j·T_j·(Vᵀ v_j), T[j][j] = β_j.
                if j > 0 {
                    let w = &mut tdots[..j];
                    w.fill(0.0);
                    for (i, &vi) in v.iter().enumerate() {
                        let vrow = &panel_v[(j + i) * nbe..(j + i) * nbe + j];
                        for (wl, vl) in w.iter_mut().zip(vrow.iter()) {
                            *wl += vl * vi;
                        }
                    }
                    for i2 in 0..j {
                        let mut acc = 0.0;
                        for (l, wl) in w.iter().enumerate().skip(i2) {
                            acc += panel_t[i2 * nbe + l] * wl;
                        }
                        panel_t[i2 * nbe + j] = -beta * acc;
                    }
                }
                panel_t[j * nbe + j] = beta;
            }
            // Aggregated trailing update: the left-applied product is
            // H_nbe···H_1 = (I − V·T·Vᵀ)ᵀ, so C ← C − V·(Tᵀ·(Vᵀ·C)).
            let nc = n - (k0 + nbe);
            if nc > 0 {
                panel_z.clear();
                panel_z.resize(nbe * nc, 0.0);
                for r_i in 0..vrows {
                    let arow = &rd[(k0 + r_i) * n + k0 + nbe..(k0 + r_i + 1) * n];
                    let vrow = &panel_v[r_i * nbe..(r_i + 1) * nbe];
                    for (j, &vl) in vrow.iter().enumerate().take(r_i.min(nbe - 1) + 1) {
                        if vl != 0.0 {
                            let zrow = &mut panel_z[j * nc..(j + 1) * nc];
                            for (zl, &al) in zrow.iter_mut().zip(arow.iter()) {
                                *zl += vl * al;
                            }
                        }
                    }
                }
                // Z ← Tᵀ·Z in place (descending row index only reads
                // originals at indices ≤ the target).
                for idx in (0..nbe).rev() {
                    let tii = panel_t[idx * nbe + idx];
                    {
                        let zrow = &mut panel_z[idx * nc..(idx + 1) * nc];
                        for zl in zrow.iter_mut() {
                            *zl *= tii;
                        }
                    }
                    for l in 0..idx {
                        let tli = panel_t[l * nbe + idx];
                        if tli != 0.0 {
                            let (head, tail) = panel_z.split_at_mut(idx * nc);
                            let src = &head[l * nc..(l + 1) * nc];
                            let dst = &mut tail[..nc];
                            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                                *d += tli * s;
                            }
                        }
                    }
                }
                for r_i in 0..vrows {
                    let vrow = &panel_v[r_i * nbe..(r_i + 1) * nbe];
                    let start = (k0 + r_i) * n + k0 + nbe;
                    for (j, &vl) in vrow.iter().enumerate().take(r_i.min(nbe - 1) + 1) {
                        if vl != 0.0 {
                            let zrow = &panel_z[j * nc..(j + 1) * nc];
                            let arow = &mut rd[start..start + nc];
                            for (al, &zl) in arow.iter_mut().zip(zrow.iter()) {
                                *al -= vl * zl;
                            }
                        }
                    }
                }
            }
        }
        // Q ← Q·(I − V·T·Vᵀ): columns k0..m, all rows.
        {
            panel_z.clear();
            panel_z.resize(m * nbe, 0.0);
            let qv = &mut panel_z;
            let qd = q.as_mut_slice();
            for i in 0..m {
                let qrow = &qd[i * m + k0..(i + 1) * m];
                let qvrow = &mut qv[i * nbe..(i + 1) * nbe];
                for (r_i, &qx) in qrow.iter().enumerate() {
                    if qx != 0.0 {
                        let vrow = &panel_v[r_i * nbe..r_i * nbe + r_i.min(nbe - 1) + 1];
                        for (ql, &vl) in qvrow.iter_mut().zip(vrow.iter()) {
                            *ql += qx * vl;
                        }
                    }
                }
            }
            // QV ← QV·T in place per row (descending target index).
            for i in 0..m {
                let qvrow = &mut qv[i * nbe..(i + 1) * nbe];
                for l in (0..nbe).rev() {
                    let mut acc = 0.0;
                    for mm in 0..=l {
                        acc += qvrow[mm] * panel_t[mm * nbe + l];
                    }
                    qvrow[l] = acc;
                }
            }
            for i in 0..m {
                let mrow = &qv[i * nbe..(i + 1) * nbe];
                let qrow = &mut qd[i * m + k0..(i + 1) * m];
                for (r_i, qx) in qrow.iter_mut().enumerate() {
                    let vrow = &panel_v[r_i * nbe..(r_i + 1) * nbe];
                    let mut acc = 0.0;
                    for (ml, vl) in mrow.iter().zip(vrow.iter()) {
                        acc += ml * vl;
                    }
                    *qx -= acc;
                }
            }
        }
        k0 += nbe;
    }
    finish_qr(q, r)
}

/// One reflector at a time; bit-identical to the historical kernel.
fn factor_full_unblocked(a: &Matrix) -> Qr {
    let (m, n) = a.shape();
    let mut r = a.clone();
    let mut q = Matrix::identity(m);
    let mut v = vec![0.0; m];
    let mut dots = vec![0.0; n];
    for k in 0..n.min(m.saturating_sub(1)) {
        let rd = r.as_mut_slice();
        // Householder vector for column k, rows k..m.
        let mut norm_x = 0.0;
        for i in k..m {
            norm_x += rd[i * n + k] * rd[i * n + k];
        }
        norm_x = norm_x.sqrt();
        if norm_x == 0.0 {
            continue;
        }
        let alpha = if rd[k * n + k] >= 0.0 {
            -norm_x
        } else {
            norm_x
        };
        let vlen = m - k;
        let v = &mut v[..vlen];
        v[0] = rd[k * n + k] - alpha;
        for i in (k + 1)..m {
            v[i - k] = rd[i * n + k];
        }
        let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
        if vnorm_sq <= f64::MIN_POSITIVE {
            continue;
        }
        let beta = 2.0 / vnorm_sq;
        // Apply H = I - beta v vᵀ to R (rows k..m) in the row-major two-pass
        // form: all column dot products first, then the rank-1 update.  Per
        // column the additions happen in the same ascending-row order as the
        // column-at-a-time loop.  Columns j < k carry only self-contained
        // round-off below the diagonal (never read again, wiped at the end),
        // so the sweep starts at column k; both changes leave the returned
        // factors bit-identical.
        let jlo = k.min(n);
        dots[jlo..n].fill(0.0);
        for i in k..m {
            let vi = v[i - k];
            let row = &rd[i * n + jlo..(i + 1) * n];
            for (d, &x) in dots[jlo..n].iter_mut().zip(row.iter()) {
                *d += vi * x;
            }
        }
        for i in k..m {
            let vi = v[i - k];
            let row = &mut rd[i * n + jlo..(i + 1) * n];
            for (x, &d) in row.iter_mut().zip(dots[jlo..n].iter()) {
                *x -= (beta * d) * vi;
            }
        }
        // Accumulate into Q: Q = Q * H (apply H on the right, i.e. to columns k..m of Q).
        let qd = q.as_mut_slice();
        for i in 0..m {
            let row = &mut qd[i * m + k..(i + 1) * m];
            let mut dot = 0.0;
            for (&x, &vj) in row.iter().zip(v.iter()) {
                dot += x * vj;
            }
            let s = beta * dot;
            for (x, &vj) in row.iter_mut().zip(v.iter()) {
                *x -= s * vj;
            }
        }
    }
    finish_qr(q, r)
}

/// Shared postlude of both full-QR kernels: wipe the numerically-negligible
/// strictly lower part of `R` and normalize signs so `R` has a non-negative
/// diagonal (making the factorization unique for full-rank input, and QR of I
/// equal to (I, I)).
fn finish_qr(mut q: Matrix, mut r: Matrix) -> Qr {
    let (m, n) = r.shape();
    for i in 1..m {
        for j in 0..i.min(n) {
            r[(i, j)] = 0.0;
        }
    }
    for k in 0..m.min(n) {
        if r[(k, k)] < 0.0 {
            for j in 0..n {
                r[(k, j)] = -r[(k, j)];
            }
            for i in 0..m {
                q[(i, k)] = -q[(i, k)];
            }
        }
    }
    Qr { q, r }
}

/// Computes the *thin* QR factorization: `q` is `m x min(m,n)` with orthonormal
/// columns and `r` is `min(m,n) x n`.
pub fn factor_thin(a: &Matrix) -> Qr {
    let (m, n) = a.shape();
    let k = m.min(n);
    let full = factor_full(a);
    Qr {
        q: full.q.block(0, m, 0, k),
        r: full.r.block(0, k, 0, n),
    }
}

/// Orthonormalizes the columns of `a` (modified Gram–Schmidt with
/// reorthogonalization), dropping columns that are numerically dependent.
///
/// Returns a matrix with orthonormal columns spanning the column space of `a`.
pub fn orthonormalize_columns(a: &Matrix, tol: f64) -> Matrix {
    let (m, n) = a.shape();
    let scale = a.norm_max().max(1.0);
    // The accepted basis vectors live as contiguous rows of a flat buffer (the
    // transposed basis); the projection loop then runs over slices with no
    // per-step allocation.  Per element the arithmetic matches the former
    // matrix-at-a-time version (`v ← v − q·(qᵀv)`, two passes) exactly.
    let mut basis: Vec<f64> = Vec::new();
    let mut kept = 0usize;
    let mut v = vec![0.0; m];
    for j in 0..n {
        for (i, value) in v.iter_mut().enumerate() {
            *value = a[(i, j)];
        }
        // Two passes of Gram–Schmidt for numerical robustness.
        for _ in 0..2 {
            for q in basis.chunks_exact(m) {
                let mut coeff = 0.0;
                for (&qi, &vi) in q.iter().zip(v.iter()) {
                    coeff += qi * vi;
                }
                for (x, &qi) in v.iter_mut().zip(q.iter()) {
                    *x -= qi * coeff;
                }
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > tol * scale {
            let inv = 1.0 / norm;
            basis.extend(v.iter().map(|&x| x * inv));
            kept += 1;
        }
    }
    let mut out = Matrix::zeros(m, kept);
    for (k, q) in basis.chunks_exact(m).enumerate() {
        for (i, &x) in q.iter().enumerate() {
            out[(i, k)] = x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthogonal(q: &Matrix, tol: f64) {
        let qtq = q.transpose_matmul(q).unwrap();
        assert!(
            qtq.approx_eq(&Matrix::identity(q.cols()), tol),
            "QᵀQ deviates from identity by {}",
            (&qtq - &Matrix::identity(q.cols())).norm_max()
        );
    }

    #[test]
    fn full_qr_reconstructs() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[1.0, -1.0, 2.0],
        ]);
        let qr = factor_full(&a);
        assert_eq!(qr.q.shape(), (4, 4));
        assert_eq!(qr.r.shape(), (4, 3));
        assert_orthogonal(&qr.q, 1e-12);
        let recon = &qr.q * &qr.r;
        assert!(recon.approx_eq(&a, 1e-12));
    }

    #[test]
    fn thin_qr_reconstructs() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]);
        let qr = factor_thin(&a);
        assert_eq!(qr.q.shape(), (3, 2));
        assert_eq!(qr.r.shape(), (2, 2));
        assert_orthogonal(&qr.q, 1e-12);
        assert!((&qr.q * &qr.r).approx_eq(&a, 1e-12));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_fn(5, 4, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64) * 0.1);
        let qr = factor_full(&a);
        for i in 0..5 {
            for j in 0..i.min(4) {
                assert!(qr.r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn orthonormalize_drops_dependent_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 2.0, 1.0]]);
        let q = orthonormalize_columns(&a, 1e-10);
        assert_eq!(q.cols(), 2);
        assert_orthogonal(&q, 1e-12);
    }

    #[test]
    fn orthonormalize_empty_input() {
        let a = Matrix::zeros(3, 0);
        let q = orthonormalize_columns(&a, 1e-10);
        assert_eq!(q.shape(), (3, 0));
        let z = Matrix::zeros(3, 2);
        let qz = orthonormalize_columns(&z, 1e-10);
        assert_eq!(qz.cols(), 0);
    }

    #[test]
    fn qr_of_identity_is_identity() {
        let qr = factor_full(&Matrix::identity(4));
        assert!(qr.q.approx_eq(&Matrix::identity(4), 1e-14));
        assert!(qr.r.approx_eq(&Matrix::identity(4), 1e-14));
    }

    #[test]
    fn blocked_qr_reconstructs_all_shapes() {
        // Square, tall, wide, and sizes straddling a panel boundary.
        for &(m, n) in &[
            (5usize, 5usize),
            (40, 40),
            (50, 33),
            (33, 50),
            (64, 64),
            (70, 3),
        ] {
            let a = Matrix::from_fn(m, n, |i, j| {
                ((i * 13 + j * 7) % 11) as f64 * 0.37 - 1.5 + if i == j { 2.0 } else { 0.0 }
            });
            let qr = factor_full_blocked(&a);
            assert_eq!(qr.q.shape(), (m, m));
            assert_eq!(qr.r.shape(), (m, n));
            assert_orthogonal(&qr.q, 1e-11);
            for i in 1..m {
                for j in 0..i.min(n) {
                    assert_eq!(qr.r[(i, j)], 0.0, "({m},{n}) lower entry ({i},{j})");
                }
            }
            assert!(
                (&qr.q * &qr.r).approx_eq(&a, 1e-10 * a.norm_fro().max(1.0)),
                "({m},{n}) reconstruction failed"
            );
        }
    }

    #[test]
    fn blocked_and_unblocked_qr_agree() {
        // The sign normalization makes the full-rank factorization unique, so
        // the two kernels agree to roundoff (not bitwise).
        for &(m, n) in &[(21usize, 21usize), (45, 30), (30, 45)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                ((i * 3 + j * 11) % 13) as f64 * 0.29 - 1.7 + if i == j { 3.0 } else { 0.0 }
            });
            let blocked = factor_full_blocked(&a);
            let unblocked = factor_full_unblocked(&a);
            assert!(
                blocked
                    .r
                    .approx_eq(&unblocked.r, 1e-10 * a.norm_fro().max(1.0)),
                "({m},{n}) R divergence {}",
                (&blocked.r - &unblocked.r).norm_max()
            );
            assert!(
                blocked.q.approx_eq(&unblocked.q, 1e-10),
                "({m},{n}) Q divergence {}",
                (&blocked.q - &unblocked.q).norm_max()
            );
        }
    }

    #[test]
    fn blocked_qr_handles_rank_deficiency_and_zero_columns() {
        // A zero column inside a panel exercises the zero-reflector path.
        let m = 40;
        let a = Matrix::from_fn(m, 6, |i, j| match j {
            2 => 0.0,
            3 => ((i * 13) % 11) as f64 * 0.37 - 1.5, // duplicate of col 0 pattern
            _ => ((i * 13 + j * 7) % 11) as f64 * 0.37 - 1.5,
        });
        let qr = factor_full_blocked(&a);
        assert_orthogonal(&qr.q, 1e-11);
        assert!((&qr.q * &qr.r).approx_eq(&a, 1e-11 * a.norm_fro().max(1.0)));
    }
}
