//! Orthogonal reduction to upper Hessenberg form.
//!
//! Two kernels share the public entry points: the classic one-reflector-at-a-
//! time sweep, and a compact-WY blocked sweep that aggregates `PANEL_NB`
//! Householder reflectors into `I − V·T·Vᵀ` form so the trailing updates run
//! as small-inner-dimension matrix products over contiguous rows instead of
//! `n` separate rank-1 sweeps.  [`reduce_in`] dispatches on the dimension:
//! below [`BLOCKED_MIN_DIM`] the unblocked sweep runs (bit-identical to the
//! historical kernel), at or above it the blocked sweep takes over.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::workspace::ReflectorScratch;

/// Smallest dimension routed to the compact-WY blocked sweep by [`reduce_in`].
/// Below this the panel bookkeeping costs more than the cache locality wins.
pub const BLOCKED_MIN_DIM: usize = 128;

/// Reflectors aggregated per compact-WY panel.
pub const PANEL_NB: usize = 32;

/// Result of the Hessenberg reduction `Qᵀ A Q = H`.
#[derive(Debug, Clone)]
pub struct Hessenberg {
    /// Orthogonal transformation matrix.
    pub q: Matrix,
    /// Upper Hessenberg matrix (zero below the first subdiagonal).
    pub h: Matrix,
}

/// Reduces a square matrix to upper Hessenberg form by Householder similarity
/// transformations.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input.
pub fn reduce(a: &Matrix) -> Result<Hessenberg, LinalgError> {
    let mut h = a.clone();
    let mut q = Matrix::zeros(0, 0);
    crate::workspace::with_thread_pool(|pool| {
        let ws = pool.get(a.rows());
        reduce_in(&mut h, Some(&mut q), &mut ws.refl)
    })?;
    Ok(Hessenberg { q, h })
}

/// In-place Hessenberg reduction: overwrites `h` with its upper Hessenberg
/// form and, when `q` is provided, overwrites `q` with the accumulated
/// orthogonal factor (`q` is reset to the identity first, so any buffer can be
/// passed).  Passing `q = None` skips all Q updates — the Q-free path used by
/// pure eigenvalue computations.
///
/// `scratch` holds every temporary the kernels need (Householder vector,
/// dot-product accumulators, compact-WY panels); the buffers are resized as
/// needed and can be reused across calls for zero steady-state allocation.
///
/// Dimensions at or above [`BLOCKED_MIN_DIM`] run the compact-WY blocked
/// sweep; smaller ones run the unblocked sweep (bit-identical to the
/// historical kernel).
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input.
pub fn reduce_in(
    h: &mut Matrix,
    q: Option<&mut Matrix>,
    scratch: &mut ReflectorScratch,
) -> Result<(), LinalgError> {
    let blocked = h.rows() >= BLOCKED_MIN_DIM;
    reduce_impl(h, q, scratch, blocked)
}

/// In-place Hessenberg reduction forced through the compact-WY blocked sweep
/// regardless of dimension.  Exposed so equivalence tests and benchmarks can
/// exercise the blocked kernel at sizes [`reduce_in`] would route to the
/// unblocked one; production callers should use [`reduce_in`].
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input.
pub fn reduce_blocked_in(
    h: &mut Matrix,
    q: Option<&mut Matrix>,
    scratch: &mut ReflectorScratch,
) -> Result<(), LinalgError> {
    reduce_impl(h, q, scratch, true)
}

fn reduce_impl(
    h: &mut Matrix,
    q: Option<&mut Matrix>,
    scratch: &mut ReflectorScratch,
    blocked: bool,
) -> Result<(), LinalgError> {
    if !h.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "hessenberg::reduce",
            shape: h.shape(),
        });
    }
    crate::simd::wide(
        #[inline(always)]
        || reduce_body(h, q, scratch, blocked),
    );
    Ok(())
}

/// Body of [`reduce_in`] and [`reduce_blocked_in`] for a square `h`, run
/// through [`crate::simd::wide`].
#[inline(always)]
pub(crate) fn reduce_body(
    h: &mut Matrix,
    mut q: Option<&mut Matrix>,
    scratch: &mut ReflectorScratch,
    blocked: bool,
) {
    let n = h.rows();
    if let Some(q) = q.as_deref_mut() {
        q.set_identity(n);
    }
    if n <= 2 {
        return;
    }
    if blocked {
        blocked_sweep(h, q, scratch, PANEL_NB);
    } else {
        unblocked_sweep(h, q, scratch);
    }
    // Clean the entries that are structurally zero.
    let hd = h.as_mut_slice();
    for i in 2..n {
        for j in 0..(i - 1) {
            hd[i * n + j] = 0.0;
        }
    }
}

/// Calls `emit(r, dot)` for `r in 0..count`, where `dot` is the dot product
/// of `x` with row `r` of `mat`, `mat[r * stride..][..x.len()]`.
///
/// Four rows accumulate side by side, each in ascending order, so every
/// result is bit for bit the one-row-at-a-time loop's while the chain of
/// dependent additions is a quarter as long.
#[inline(always)]
fn row_dots(mat: &[f64], stride: usize, count: usize, x: &[f64], mut emit: impl FnMut(usize, f64)) {
    let len = x.len();
    let mut r = 0;
    while r + 4 <= count {
        let a0 = &mat[r * stride..][..len];
        let a1 = &mat[(r + 1) * stride..][..len];
        let a2 = &mat[(r + 2) * stride..][..len];
        let a3 = &mat[(r + 3) * stride..][..len];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for (l, &xl) in x.iter().enumerate() {
            s0 += a0[l] * xl;
            s1 += a1[l] * xl;
            s2 += a2[l] * xl;
            s3 += a3[l] * xl;
        }
        emit(r, s0);
        emit(r + 1, s1);
        emit(r + 2, s2);
        emit(r + 3, s3);
        r += 4;
    }
    for r in r..count {
        let mut acc = 0.0;
        for (&al, &xl) in mat[r * stride..][..len].iter().zip(x) {
            acc += al * xl;
        }
        emit(r, acc);
    }
}

/// One reflector at a time; every update is a rank-1 sweep applied
/// immediately.  Kept bit-identical to the historical kernel.
#[inline(always)]
fn unblocked_sweep(h: &mut Matrix, mut q: Option<&mut Matrix>, scratch: &mut ReflectorScratch) {
    let n = h.rows();
    let hv = &mut scratch.hv;
    let dots = &mut scratch.dots;
    hv.resize(n, 0.0);
    dots.resize(n, 0.0);
    let hd = h.as_mut_slice();
    for k in 0..(n - 2) {
        // Householder vector annihilating H[k+2.., k].
        let mut norm_x = 0.0;
        for i in (k + 1)..n {
            norm_x += hd[i * n + k] * hd[i * n + k];
        }
        norm_x = norm_x.sqrt();
        if norm_x == 0.0 {
            continue;
        }
        let alpha = if hd[(k + 1) * n + k] >= 0.0 {
            -norm_x
        } else {
            norm_x
        };
        let vlen = n - k - 1;
        let v = &mut hv[..vlen];
        v[0] = hd[(k + 1) * n + k] - alpha;
        for i in (k + 2)..n {
            v[i - k - 1] = hd[i * n + k];
        }
        let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
        if vnorm_sq <= f64::MIN_POSITIVE {
            continue;
        }
        let v = &hv[..vlen];
        let beta = 2.0 / vnorm_sq;
        // H ← P H (rows k+1..n).  Columns j < k are structurally zero below
        // the subdiagonal — they are only ever written by this same update and
        // wiped at the end — so the sweep starts at column k instead of 0.
        // Row-major two-pass form: accumulate all column dot products first,
        // then apply the rank-1 update; per column the additions happen in the
        // same ascending-row order as the textbook column-at-a-time loop.
        dots[k..n].fill(0.0);
        for i in (k + 1)..n {
            let vi = v[i - k - 1];
            let row = &hd[i * n + k..(i + 1) * n];
            for (d, &x) in dots[k..n].iter_mut().zip(row.iter()) {
                *d += vi * x;
            }
        }
        for i in (k + 1)..n {
            let vi = v[i - k - 1];
            let row = &mut hd[i * n + k..(i + 1) * n];
            for (x, &d) in row.iter_mut().zip(dots[k..n].iter()) {
                *x -= (beta * d) * vi;
            }
        }
        // H ← H P (columns k+1..n, all rows).
        for i in 0..n {
            let row = &mut hd[i * n + k + 1..(i + 1) * n];
            let mut dot = 0.0;
            for (&x, &vj) in row.iter().zip(v.iter()) {
                dot += x * vj;
            }
            let s = beta * dot;
            for (x, &vj) in row.iter_mut().zip(v.iter()) {
                *x -= s * vj;
            }
        }
        // Q ← Q P (columns k+1..n, all rows).
        if let Some(q) = q.as_deref_mut() {
            let qd = q.as_mut_slice();
            for i in 0..n {
                let row = &mut qd[i * n + k + 1..(i + 1) * n];
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
    }
}

/// Compact-WY blocked sweep.
///
/// Reflectors `H_j = I − β_j v_j v_jᵀ` for a panel of `nb` columns are
/// accumulated as `H_1 ⋯ H_nb = I − V·T·Vᵀ` (`V` unit-lower-trapezoidal by
/// support, `T` upper triangular with `T[j][j] = β_j`).  During the panel only
/// the panel columns themselves are written: column `c = k0 + j` is formed on
/// demand as `Q_jᵀ (A Q_j) e_c = x − V·Tᵀ·Vᵀ·(x − U·T·(Vᵀe_c))` from the
/// *original* trailing matrix and `U = A·V`, which is valid because the
/// similarity's right half only ever reads original columns to the right of
/// `c` (all of which are still untouched when reflector `j` is formed).  At
/// panel end the trailing matrix gets the aggregated two-sided update
/// `A ← (I − V·Tᵀ·Vᵀ)·A·(I − V·T·Vᵀ)` and `Q ← Q·(I − V·T·Vᵀ)` as three
/// block products whose inner loops run over contiguous `nb`-length rows.
///
/// A column whose below-subdiagonal part is already (numerically) zero gets
/// the zero reflector `v_j = 0, β_j = 0` — column `j` of `V`, `T` and `U`
/// stays zero and the aggregated product is unaffected, mirroring the
/// unblocked `continue`.
///
/// Every dot product over a row of `A`, `U` or `V` runs through
/// [`row_dots`], four rows at a time.
#[inline(always)]
fn blocked_sweep(
    h: &mut Matrix,
    mut q: Option<&mut Matrix>,
    scratch: &mut ReflectorScratch,
    nb: usize,
) {
    let n = h.rows();
    let nb = nb.max(1);
    scratch.col.clear();
    scratch.col.resize(n, 0.0);
    scratch.hv.clear();
    scratch.hv.resize(n, 0.0);
    scratch.dots.clear();
    scratch.dots.resize(nb, 0.0);
    let mut k0 = 0;
    while k0 + 2 < n {
        let nbe = nb.min(n - 2 - k0);
        let vrows = n - k0 - 1; // V row r ↔ global row k0 + 1 + r
        scratch.panel_v.clear();
        scratch.panel_v.resize(vrows * nbe, 0.0);
        scratch.panel_t.clear();
        scratch.panel_t.resize(nbe * nbe, 0.0);
        scratch.panel_u.clear();
        scratch.panel_u.resize(n * nbe, 0.0);

        for j in 0..nbe {
            let c = k0 + j;
            let x = &mut scratch.col[..n];
            {
                let hd = h.as_slice();
                for (i, xi) in x.iter_mut().enumerate() {
                    *xi = hd[i * n + c];
                }
            }
            if j > 0 {
                let v = &scratch.panel_v;
                let t = &scratch.panel_t;
                let u = &scratch.panel_u;
                let tmp = &mut scratch.dots[..j];
                // tmp = T_j · (Vᵀ e_c); row c of V is V row j−1.
                let vrow_c = &v[(j - 1) * nbe..(j - 1) * nbe + j];
                for i in 0..j {
                    let mut acc = 0.0;
                    for l in i..j {
                        acc += t[i * nbe + l] * vrow_c[l];
                    }
                    tmp[i] = acc;
                }
                // Right half: x ← x − U·tmp (all rows).
                row_dots(u, nbe, n, tmp, |i, acc| x[i] -= acc);
                // Left half: x ← x − V·(Tᵀ·(Vᵀ x)) over rows k0+1..n.
                tmp.fill(0.0);
                for r in 0..vrows {
                    let xv = x[k0 + 1 + r];
                    let vrow = &v[r * nbe..r * nbe + j];
                    for (tl, vl) in tmp.iter_mut().zip(vrow.iter()) {
                        *tl += vl * xv;
                    }
                }
                // tmp ← Tᵀ·tmp in place (descending index: entry `idx` only
                // reads originals at indices ≤ idx).
                for idx in (0..j).rev() {
                    let mut acc = 0.0;
                    for (l, tl) in tmp.iter().enumerate().take(idx + 1) {
                        acc += t[l * nbe + idx] * tl;
                    }
                    tmp[idx] = acc;
                }
                row_dots(v, nbe, vrows, tmp, |r, acc| x[k0 + 1 + r] -= acc);
            }
            // Householder vector annihilating x[c+2..]; zero reflector when
            // the tail is already negligible.
            let mut norm_x = 0.0;
            for &xi in &x[(c + 1)..n] {
                norm_x += xi * xi;
            }
            norm_x = norm_x.sqrt();
            let mut beta = 0.0;
            let mut subdiag = x[c + 1];
            let vlen = vrows - j; // v_j support: V rows j..vrows
            if norm_x != 0.0 {
                let alpha = if x[c + 1] >= 0.0 { -norm_x } else { norm_x };
                let vj = &mut scratch.hv[..vlen];
                vj[0] = x[c + 1] - alpha;
                vj[1..].copy_from_slice(&x[(c + 2)..n]);
                let vnorm_sq: f64 = vj.iter().map(|y| y * y).sum();
                if vnorm_sq > f64::MIN_POSITIVE {
                    beta = 2.0 / vnorm_sq;
                    subdiag = alpha;
                    for (r, &vi) in vj.iter().enumerate() {
                        scratch.panel_v[(j + r) * nbe + j] = vi;
                    }
                }
            }
            // Write the finalized column back; rows below the subdiagonal are
            // structurally zero from here on.
            {
                let hd = h.as_mut_slice();
                for (i, &xi) in x.iter().enumerate().take(c + 1) {
                    hd[i * n + c] = xi;
                }
                hd[(c + 1) * n + c] = subdiag;
                for i in (c + 2)..n {
                    hd[i * n + c] = 0.0;
                }
            }
            // T column j: T[0..j, j] = −β_j · T_j · (Vᵀ v_j), T[j][j] = β_j.
            if beta != 0.0 {
                if j > 0 {
                    let w = &mut scratch.dots[..j];
                    w.fill(0.0);
                    {
                        let v = &scratch.panel_v;
                        let vj = &scratch.hv[..vlen];
                        for (r, &vi) in vj.iter().enumerate() {
                            let vrow = &v[(j + r) * nbe..(j + r) * nbe + j];
                            for (wl, vl) in w.iter_mut().zip(vrow.iter()) {
                                *wl += vl * vi;
                            }
                        }
                    }
                    let t = &mut scratch.panel_t;
                    for i in 0..j {
                        let mut acc = 0.0;
                        for (l, wl) in w.iter().enumerate().skip(i) {
                            acc += t[i * nbe + l] * wl;
                        }
                        t[i * nbe + j] = -beta * acc;
                    }
                }
                scratch.panel_t[j * nbe + j] = beta;
                // U column j = A[:, c+1..n]·v_j against the original trailing
                // columns (panel columns > c are not yet written back).
                let vj = &scratch.hv[..vlen];
                let u = &mut scratch.panel_u;
                row_dots(&h.as_slice()[c + 1..], n, n, vj, |i, acc| {
                    u[i * nbe + j] = acc;
                });
            }
        }

        // Aggregated right update on the not-yet-reduced columns:
        // A[:, k0+nbe..] ← A[:, k0+nbe..] − (U·T)·Vᵀ.  U ← U·T happens in
        // place per row (descending target index only reads originals).
        {
            let t = &scratch.panel_t;
            let u = &mut scratch.panel_u;
            for i in 0..n {
                let urow = &mut u[i * nbe..(i + 1) * nbe];
                for l in (0..nbe).rev() {
                    let mut acc = 0.0;
                    for m in 0..=l {
                        acc += urow[m] * t[m * nbe + l];
                    }
                    urow[l] = acc;
                }
            }
            let v = &scratch.panel_v[(nbe - 1) * nbe..];
            let hd = h.as_mut_slice();
            for i in 0..n {
                let hrow = &mut hd[i * n + k0 + nbe..(i + 1) * n];
                row_dots(
                    v,
                    nbe,
                    vrows + 1 - nbe,
                    &u[i * nbe..(i + 1) * nbe],
                    |r, acc| {
                        hrow[r] -= acc;
                    },
                );
            }
        }
        // Aggregated left update: A[k0+1.., k0+nbe..] ← same − V·(Tᵀ·(Vᵀ·A)).
        let ncols_t = n - (k0 + nbe);
        {
            scratch.panel_w.clear();
            scratch.panel_w.resize(nbe * ncols_t, 0.0);
            let z = &mut scratch.panel_w;
            let v = &scratch.panel_v;
            let t = &scratch.panel_t;
            let hd = h.as_mut_slice();
            for r in 0..vrows {
                let arow = &hd[(k0 + 1 + r) * n + k0 + nbe..(k0 + 2 + r) * n];
                let vrow = &v[r * nbe..(r + 1) * nbe];
                for (j, &vl) in vrow.iter().enumerate().take(r.min(nbe - 1) + 1) {
                    if vl != 0.0 {
                        let zrow = &mut z[j * ncols_t..(j + 1) * ncols_t];
                        for (zl, &al) in zrow.iter_mut().zip(arow.iter()) {
                            *zl += vl * al;
                        }
                    }
                }
            }
            // Z ← Tᵀ·Z in place (descending row index).
            for idx in (0..nbe).rev() {
                let tii = t[idx * nbe + idx];
                {
                    let zrow = &mut z[idx * ncols_t..(idx + 1) * ncols_t];
                    for zl in zrow.iter_mut() {
                        *zl *= tii;
                    }
                }
                for l in 0..idx {
                    let tli = t[l * nbe + idx];
                    if tli != 0.0 {
                        let (zl_part, zi_part) = z.split_at_mut(idx * ncols_t);
                        let src = &zl_part[l * ncols_t..(l + 1) * ncols_t];
                        let dst = &mut zi_part[..ncols_t];
                        for (d, &s) in dst.iter_mut().zip(src.iter()) {
                            *d += tli * s;
                        }
                    }
                }
            }
            for r in 0..vrows {
                let vrow = &v[r * nbe..(r + 1) * nbe];
                let row_start = (k0 + 1 + r) * n + k0 + nbe;
                for (j, &vl) in vrow.iter().enumerate().take(r.min(nbe - 1) + 1) {
                    if vl != 0.0 {
                        let zrow = &z[j * ncols_t..(j + 1) * ncols_t];
                        let arow = &mut hd[row_start..row_start + ncols_t];
                        for (al, &zl) in arow.iter_mut().zip(zrow.iter()) {
                            *al -= vl * zl;
                        }
                    }
                }
            }
        }
        // Q ← Q·(I − V·T·Vᵀ): columns k0+1..n, all rows.
        if let Some(q) = q.as_deref_mut() {
            scratch.panel_w.clear();
            scratch.panel_w.resize(n * nbe, 0.0);
            let qv = &mut scratch.panel_w;
            let v = &scratch.panel_v;
            let t = &scratch.panel_t;
            let qd = q.as_mut_slice();
            for i in 0..n {
                let qrow = &qd[i * n + k0 + 1..(i + 1) * n];
                let qvrow = &mut qv[i * nbe..(i + 1) * nbe];
                for (r, &qx) in qrow.iter().enumerate() {
                    if qx != 0.0 {
                        let vrow = &v[r * nbe..r * nbe + r.min(nbe - 1) + 1];
                        for (ql, &vl) in qvrow.iter_mut().zip(vrow.iter()) {
                            *ql += qx * vl;
                        }
                    }
                }
            }
            // QV ← QV·T in place per row.
            for i in 0..n {
                let qvrow = &mut qv[i * nbe..(i + 1) * nbe];
                for l in (0..nbe).rev() {
                    let mut acc = 0.0;
                    for m in 0..=l {
                        acc += qvrow[m] * t[m * nbe + l];
                    }
                    qvrow[l] = acc;
                }
            }
            for i in 0..n {
                let qrow = &mut qd[i * n + k0 + 1..(i + 1) * n];
                row_dots(v, nbe, vrows, &qv[i * nbe..(i + 1) * nbe], |r, acc| {
                    qrow[r] -= acc;
                });
            }
        }
        k0 += nbe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            ((i * 13 + j * 7) % 11) as f64 * 0.37 - 1.5 + if i == j { 2.0 } else { 0.0 }
        })
    }

    /// The one-row-at-a-time loop each of the panel's row products ran
    /// before [`row_dots`] interleaved four rows.
    fn former_row_dots(
        mat: &[f64],
        stride: usize,
        count: usize,
        x: &[f64],
        mut emit: impl FnMut(usize, f64),
    ) {
        for r in 0..count {
            let row = &mat[r * stride..r * stride + x.len()];
            let mut acc = 0.0;
            for (al, xl) in row.iter().zip(x.iter()) {
                acc += al * xl;
            }
            emit(r, acc);
        }
    }

    #[test]
    fn interleaved_row_dots_match_the_former_loop_bit_for_bit() {
        let value = |k: usize, kind: usize| -> f64 {
            let v = ((k * 7919 + kind * 104_729) % 1013) as f64 / 1013.0 - 0.5;
            match (kind, k % 5) {
                (1, 0 | 1) => 0.0,
                (1, 2) => -0.0,
                (2, _) if k % 97 == 13 => f64::INFINITY,
                (2, _) if k % 89 == 7 => f64::NAN,
                _ => v * 10f64.powi((k % 7) as i32 - 3),
            }
        };
        for count in [
            0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 127, 128, 129, 200,
        ] {
            for len in [0usize, 1, 3, 4, 5, 31, 32, 33, 200] {
                for kind in 0..3 {
                    let stride = len + 3;
                    let mat: Vec<f64> = (0..count * stride).map(|k| value(k, kind)).collect();
                    let x: Vec<f64> = (0..len).map(|k| value(k + 50_000, kind)).collect();
                    let (mut fast, mut former) = (vec![1.0; count], vec![1.0; count]);
                    row_dots(&mat, stride, count, &x, |r, d| fast[r] -= d);
                    former_row_dots(&mat, stride, count, &x, |r, d| former[r] -= d);
                    for (r, (a, b)) in fast.iter().zip(&former).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "count {count} len {len} kind {kind} row {r}: {a:e} vs {b:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn similarity_is_preserved() {
        let a = sample(7);
        let hess = reduce(&a).unwrap();
        // Qᵀ A Q = H  ⇔  A = Q H Qᵀ
        let recon = &(&hess.q * &hess.h) * &hess.q.transpose();
        assert!(recon.approx_eq(&a, 1e-11));
    }

    #[test]
    fn q_is_orthogonal() {
        let a = sample(6);
        let hess = reduce(&a).unwrap();
        let qtq = hess.q.transpose_matmul(&hess.q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(6), 1e-12));
    }

    #[test]
    fn result_is_hessenberg() {
        let a = sample(8);
        let hess = reduce(&a).unwrap();
        for i in 2..8 {
            for j in 0..(i - 1) {
                assert_eq!(hess.h[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn small_matrices_pass_through() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let hess = reduce(&a).unwrap();
        assert!(hess.h.approx_eq(&a, 1e-15));
        assert!(hess.q.approx_eq(&Matrix::identity(2), 1e-15));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            reduce(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            reduce_in(&mut Matrix::zeros(2, 3), None, &mut ReflectorScratch::new()),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn q_free_path_produces_identical_h() {
        let a = sample(9);
        let full = reduce(&a).unwrap();
        let mut h = a.clone();
        let mut scratch = ReflectorScratch::new();
        reduce_in(&mut h, None, &mut scratch).unwrap();
        // Skipping the Q accumulation must not change H in any bit.
        assert_eq!(h.as_slice(), full.h.as_slice());
    }

    #[test]
    fn reduce_in_reuses_buffers_across_sizes() {
        let mut scratch = ReflectorScratch::new();
        for &n in &[8usize, 5, 8] {
            let a = sample(n);
            let mut h = a.clone();
            let mut q = Matrix::zeros(0, 0);
            reduce_in(&mut h, Some(&mut q), &mut scratch).unwrap();
            let reference = reduce(&a).unwrap();
            assert_eq!(h.as_slice(), reference.h.as_slice());
            assert_eq!(q.as_slice(), reference.q.as_slice());
        }
    }

    #[test]
    fn blocked_path_is_a_valid_similarity_reduction() {
        let mut scratch = ReflectorScratch::new();
        for &n in &[3usize, 5, 17, 33, 40, 67, 95] {
            let a = sample(n);
            let mut h = a.clone();
            let mut q = Matrix::zeros(0, 0);
            reduce_blocked_in(&mut h, Some(&mut q), &mut scratch).unwrap();
            // H is Hessenberg.
            for i in 2..n {
                for j in 0..(i - 1) {
                    assert_eq!(h[(i, j)], 0.0, "n={n} below-subdiagonal ({i},{j})");
                }
            }
            // Q orthogonal, Q H Qᵀ = A.
            let qtq = q.transpose_matmul(&q).unwrap();
            assert!(qtq.approx_eq(&Matrix::identity(n), 1e-11), "n={n} Q drift");
            let recon = &(&q * &h) * &q.transpose();
            assert!(
                recon.approx_eq(&a, 1e-9 * a.norm_fro().max(1.0)),
                "n={n} similarity residual {}",
                (&recon - &a).norm_max()
            );
        }
    }

    #[test]
    fn blocked_q_free_matches_blocked_full_h() {
        let a = sample(41);
        let mut scratch = ReflectorScratch::new();
        let mut h_full = a.clone();
        let mut q = Matrix::zeros(0, 0);
        reduce_blocked_in(&mut h_full, Some(&mut q), &mut scratch).unwrap();
        let mut h_free = a.clone();
        reduce_blocked_in(&mut h_free, None, &mut scratch).unwrap();
        assert_eq!(h_free.as_slice(), h_full.as_slice());
    }

    #[test]
    fn blocked_handles_zero_reflector_columns() {
        // Upper-triangular input: every column's below-subdiagonal tail is
        // zero, so every reflector is the zero reflector and the sweep must be
        // an exact no-op (matching the unblocked `continue`).
        let n = 37;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                0.0
            } else {
                ((i * 5 + j * 3) % 7) as f64 - 2.0
            }
        });
        let mut h = a.clone();
        let mut q = Matrix::zeros(0, 0);
        reduce_blocked_in(&mut h, Some(&mut q), &mut ReflectorScratch::new()).unwrap();
        assert_eq!(h.as_slice(), a.as_slice());
        assert_eq!(q.as_slice(), Matrix::identity(n).as_slice());
    }

    #[test]
    fn blocked_and_unblocked_agree_on_hessenberg_form() {
        // The two kernels apply the same reflectors in different groupings, so
        // H agrees to roundoff (not bitwise).  The n=34 case zeroes a block of
        // early-column tails so panels mix zero and nonzero reflectors.
        for &n in &[11usize, 29, 34, 50] {
            let mut a = sample(n);
            if n == 34 {
                for j in 0..n / 2 {
                    for i in (j + 1)..n {
                        a[(i, j)] = 0.0;
                    }
                }
            }
            let mut scratch = ReflectorScratch::new();
            let mut h_b = a.clone();
            reduce_blocked_in(&mut h_b, None, &mut scratch).unwrap();
            let mut h_u = a.clone();
            unblocked_sweep(&mut h_u, None, &mut scratch);
            let hd = h_u.as_mut_slice();
            for i in 2..n {
                for j in 0..(i - 1) {
                    hd[i * n + j] = 0.0;
                }
            }
            assert!(
                h_b.approx_eq(&h_u, 1e-9 * a.norm_fro().max(1.0)),
                "n={n} blocked/unblocked divergence {}",
                (&h_b - &h_u).norm_max()
            );
        }
    }
}
