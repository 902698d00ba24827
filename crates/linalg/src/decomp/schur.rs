//! Real Schur decomposition via the Francis implicit double-shift QR iteration.

use crate::decomp::hessenberg;
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Real Schur decomposition `Qᵀ A Q = T` with `Q` orthogonal and `T`
/// quasi-upper-triangular (1x1 and 2x2 blocks on the diagonal; 2x2 blocks carry
/// complex-conjugate eigenvalue pairs or, occasionally, unsplit real pairs).
#[derive(Debug, Clone)]
pub struct RealSchur {
    /// Orthogonal transformation matrix.
    pub q: Matrix,
    /// Quasi-upper-triangular Schur form.
    pub t: Matrix,
}

/// Computes the real Schur decomposition of a square matrix.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input,
/// [`LinalgError::InvalidInput`] for a NaN or infinite entry, and
/// [`LinalgError::ConvergenceFailure`] if the QR iteration does not converge
/// within `60 * n` iterations (extremely unusual for real data thanks to the
/// exceptional-shift strategy).
pub fn real_schur(a: &Matrix) -> Result<RealSchur, LinalgError> {
    let mut t = a.clone();
    let mut q = Matrix::zeros(0, 0);
    crate::workspace::with_thread_pool(|pool| {
        let ws = pool.get(a.rows());
        real_schur_in(&mut t, Some(&mut q), &mut ws.refl)
    })?;
    Ok(RealSchur { q, t })
}

/// In-place real Schur iteration: overwrites `h` with the quasi-triangular
/// factor and, when `q` is provided, overwrites `q` with the accumulated
/// orthogonal factor (any buffer can be passed; it is reset to the identity).
/// `scratch` holds the reusable reflector buffers (see
/// [`hessenberg::reduce_in`]).
///
/// From order [`AED_MIN_DIM`] each iteration on a large active block first
/// deflates aggressively on a trailing window (Braman, Byers and Mathias,
/// SIMAX 2002) and chases that window's eigenvalues as shifts; smaller
/// orders run the classic iteration ([`real_schur_classic_in`]) bit for
/// bit.
///
/// With `q = None` only the eigenvalues are computed (LAPACK's
/// `WANTT = false`): each Francis sweep updates just the active diagonal
/// block, whose reflectors stop at its last column from the left and start
/// at its first row from the right, and a deflation window updates the
/// rows above it from the active block's first row on.  The diagonal 1×1
/// and 2×2 blocks of `h`, and with them the eigenvalues, are bit for bit
/// those of the full decomposition; the entries above them are not the
/// full `T`'s.
///
/// # Errors
///
/// Same as [`real_schur`]; non-finite input is refused before `h` or `q` is
/// touched.
pub fn real_schur_in(
    h: &mut Matrix,
    q: Option<&mut Matrix>,
    scratch: &mut crate::workspace::ReflectorScratch,
) -> Result<(), LinalgError> {
    if !h.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "schur::real_schur",
            shape: h.shape(),
        });
    }
    crate::simd::wide(
        #[inline(always)]
        || real_schur_body(h, q, scratch, true),
    )
}

/// [`real_schur_in`] without aggressive early deflation at any order: the
/// classic Francis iteration, the reference the deflation windows are
/// tested against.
///
/// # Errors
///
/// Same as [`real_schur_in`].
pub fn real_schur_classic_in(
    h: &mut Matrix,
    q: Option<&mut Matrix>,
    scratch: &mut crate::workspace::ReflectorScratch,
) -> Result<(), LinalgError> {
    if !h.is_square() {
        return Err(LinalgError::NotSquare {
            operation: "schur::real_schur",
            shape: h.shape(),
        });
    }
    crate::simd::wide(
        #[inline(always)]
        || real_schur_body(h, q, scratch, false),
    )
}

/// Body of [`real_schur_in`] for a square `h`, run through
/// [`crate::simd::wide`]; `aggressive` opens deflation windows from order
/// [`AED_MIN_DIM`].
#[inline(always)]
pub(crate) fn real_schur_body(
    h: &mut Matrix,
    mut q: Option<&mut Matrix>,
    scratch: &mut crate::workspace::ReflectorScratch,
    aggressive: bool,
) -> Result<(), LinalgError> {
    // A NaN or infinity keeps every deflation test false, so the iteration
    // would run its whole 60n-sweep budget before failing.
    if h.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::invalid_input(
            "schur::real_schur needs finite entries",
        ));
    }
    let n = h.rows();
    if n == 0 {
        if let Some(q) = q {
            q.resize_uninit(0, 0);
        }
        return Ok(());
    }
    if n == 1 {
        if let Some(q) = q {
            q.set_identity(1);
        }
        return Ok(());
    }
    hessenberg::reduce_in(h, q.as_deref_mut(), scratch)?;
    let window = (aggressive && n >= AED_MIN_DIM).then_some(Window {
        t: &mut scratch.window,
        v: &mut scratch.window_q,
        work: &mut scratch.window_row,
    });
    francis(h, q, window)
}

/// Smallest order whose Francis iteration deflates aggressively
/// ([`hessenberg::BLOCKED_MIN_DIM`]): below it the iteration is the
/// classic one, bit for bit.
pub const AED_MIN_DIM: usize = hessenberg::BLOCKED_MIN_DIM;

/// Rows of the aggressive-early-deflation window.
const AED_WINDOW: usize = 24;

/// Smallest active block the iteration opens a deflation window on.
const AED_MIN_ACTIVE: usize = 3 * AED_WINDOW;

/// Deflations in one window after which the next window opens before any
/// sweep (LAPACK's `NIBBLE`, 14 % of the window, rounded up).
const AED_NIBBLE: usize = 4;

/// Shift pairs `(λ₁ + λ₂, λ₁λ₂)` taken from one window: the sweeps until the
/// next window chase one each, as a small-bulge multishift sweep would.
#[derive(Default)]
struct Shifts {
    pairs: [(f64, f64); 8],
    len: usize,
}

impl Shifts {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn pop(&mut self) -> Option<(f64, f64)> {
        self.len = self.len.checked_sub(1)?;
        Some(self.pairs[self.len])
    }

    /// The eigenvalues of the quasi-triangular `t[..kept][..kept]`, in pairs
    /// from the bottom: each 2×2 block, and consecutive real eigenvalues.
    fn fill(&mut self, t: &Matrix, kept: usize) {
        let mut found = [(0.0, 0.0); 8];
        let mut count = 0;
        let mut real: Option<f64> = None;
        let mut i = kept;
        while i > 0 && count < found.len() {
            if i >= 2 && t[(i - 1, i - 2)] != 0.0 {
                let (a, b) = (t[(i - 2, i - 2)], t[(i - 2, i - 1)]);
                let (c, d) = (t[(i - 1, i - 2)], t[(i - 1, i - 1)]);
                found[count] = (a + d, a * d - b * c);
                count += 1;
                i -= 2;
            } else {
                let lambda = t[(i - 1, i - 1)];
                match real.take() {
                    Some(mu) => {
                        found[count] = (lambda + mu, lambda * mu);
                        count += 1;
                    }
                    None => real = Some(lambda),
                }
                i -= 1;
            }
        }
        // `pop` takes the last pair first: the bottom one.
        for (slot, pair) in self.pairs.iter_mut().zip(found[..count].iter().rev()) {
            *slot = *pair;
        }
        self.len = count;
    }
}

/// The deflation window's buffers: its Schur form, orthogonal factor and a
/// work vector.
struct Window<'a> {
    t: &'a mut Matrix,
    v: &'a mut Matrix,
    work: &'a mut Vec<f64>,
}

/// The Francis double-shift iteration on the upper Hessenberg `h`, with `q`
/// (when given) accumulating the transformations onto what it holds.  With
/// a `window`, each iteration on an active block of at least
/// [`AED_MIN_ACTIVE`] rows first deflates aggressively
/// ([`deflate_window`]) and takes its shifts from the window.
fn francis(
    h: &mut Matrix,
    mut q: Option<&mut Matrix>,
    mut window: Option<Window>,
) -> Result<(), LinalgError> {
    let n = h.rows();
    let norm = h.norm_fro().max(f64::MIN_POSITIVE);
    let eps = f64::EPSILON;

    let mut hi = n - 1; // active block ends at row/column `hi` (inclusive)
    let mut shifts = Shifts::default(); // left by a window for the next sweeps
    let mut total_iter = 0usize;
    let max_iter = 60 * n;
    let mut block_iter = 0usize;

    'outer: loop {
        // Deflate negligible subdiagonal entries.
        for i in 1..=hi {
            let s = h[(i - 1, i - 1)].abs() + h[(i, i)].abs();
            let s = if s == 0.0 { norm } else { s };
            if h[(i, i - 1)].abs() <= eps * s {
                h[(i, i - 1)] = 0.0;
            }
        }
        // Find the active block [lo, hi].
        let mut lo = hi;
        while lo > 0 && h[(lo, lo - 1)] != 0.0 {
            lo -= 1;
        }
        if lo == hi {
            // 1x1 block converged.
            if hi == 0 {
                break 'outer;
            }
            hi -= 1;
            block_iter = 0;
            continue;
        }
        if lo + 1 == hi {
            // 2x2 block converged (complex pair or unsplit real pair).
            if hi <= 1 {
                break 'outer;
            }
            hi -= 2;
            block_iter = 0;
            continue;
        }

        if shifts.is_empty() {
            if let Some(window) = window.as_mut().filter(|_| hi + 1 - lo >= AED_MIN_ACTIVE) {
                if let Some(deflated) =
                    deflate_window(h, q.as_deref_mut(), window, lo, hi, &mut shifts)
                {
                    if deflated > 0 {
                        block_iter = 0;
                        if deflated >= AED_NIBBLE {
                            shifts.clear();
                        }
                        continue;
                    }
                }
            }
        }

        total_iter += 1;
        block_iter += 1;
        if total_iter > max_iter {
            return Err(LinalgError::ConvergenceFailure {
                operation: "schur::real_schur",
                iterations: total_iter,
            });
        }

        // Double-shift from the trailing 2x2 block (or the window's);
        // exceptional shift occasionally to break potential cycles.
        let (s, t) = if block_iter.is_multiple_of(11) {
            let ex = h[(hi, hi - 1)].abs() + h[(hi - 1, hi - 2)].abs();
            (1.5 * ex, 0.5625 * ex * ex)
        } else if let Some(pair) = shifts.pop() {
            pair
        } else {
            let a11 = h[(hi - 1, hi - 1)];
            let a12 = h[(hi - 1, hi)];
            let a21 = h[(hi, hi - 1)];
            let a22 = h[(hi, hi)];
            (a11 + a22, a11 * a22 - a12 * a21)
        };

        // First column of (H - aI)(H - bI) restricted to the active block.
        let h11 = h[(lo, lo)];
        let h12 = h[(lo, lo + 1)];
        let h21 = h[(lo + 1, lo)];
        let h22 = h[(lo + 1, lo + 1)];
        let h32 = h[(lo + 2, lo + 1)];
        let mut x = h11 * h11 + h12 * h21 - s * h11 + t;
        let mut y = h21 * (h11 + h22 - s);
        let mut z = h21 * h32;

        // Without Q only the active block [lo, hi] is updated: the
        // eigenvalues never read the rows above it or the columns right of it.
        let (row_lo, col_end) = if q.is_some() { (0, n) } else { (lo, hi + 1) };

        // Bulge chasing.
        for k in lo..=(hi - 2) {
            let (v, beta) = householder3(x, y, z);
            if beta != 0.0 {
                let col_start = if k > lo { k - 1 } else { lo };
                let hd = h.as_mut_slice();
                // Apply P from the left to rows k..k+2.
                {
                    let (head, tail) = hd.split_at_mut((k + 1) * n);
                    let r0 = &mut head[k * n..];
                    let (r1, r2) = tail.split_at_mut(n);
                    for j in col_start..col_end {
                        let dot = v[0] * r0[j] + v[1] * r1[j] + v[2] * r2[j];
                        let sfac = beta * dot;
                        r0[j] -= sfac * v[0];
                        r1[j] -= sfac * v[1];
                        r2[j] -= sfac * v[2];
                    }
                }
                // Apply P from the right to columns k..k+2.
                let row_end = (k + 3).min(hi);
                for row in hd[row_lo * n..(row_end + 1) * n].chunks_exact_mut(n) {
                    let dot = v[0] * row[k] + v[1] * row[k + 1] + v[2] * row[k + 2];
                    let sfac = beta * dot;
                    row[k] -= sfac * v[0];
                    row[k + 1] -= sfac * v[1];
                    row[k + 2] -= sfac * v[2];
                }
                // Accumulate into Q.
                if let Some(q) = q.as_deref_mut() {
                    for row in q.as_mut_slice().chunks_exact_mut(n) {
                        let dot = v[0] * row[k] + v[1] * row[k + 1] + v[2] * row[k + 2];
                        let sfac = beta * dot;
                        row[k] -= sfac * v[0];
                        row[k + 1] -= sfac * v[1];
                        row[k + 2] -= sfac * v[2];
                    }
                }
            }
            x = h[(k + 1, k)];
            y = h[(k + 2, k)];
            if k + 3 <= hi {
                z = h[(k + 3, k)];
            } else {
                z = 0.0;
            }
        }

        // Final 2x1 reflector.
        let (v, beta) = householder2(x, y);
        if beta != 0.0 {
            let k = hi - 1;
            let hd = h.as_mut_slice();
            {
                let (head, tail) = hd.split_at_mut((k + 1) * n);
                let r0 = &mut head[k * n..];
                let r1 = &mut tail[..n];
                for j in (hi - 2)..col_end {
                    let dot = v[0] * r0[j] + v[1] * r1[j];
                    let sfac = beta * dot;
                    r0[j] -= sfac * v[0];
                    r1[j] -= sfac * v[1];
                }
            }
            for row in hd[row_lo * n..(hi + 1) * n].chunks_exact_mut(n) {
                let dot = v[0] * row[k] + v[1] * row[k + 1];
                let sfac = beta * dot;
                row[k] -= sfac * v[0];
                row[k + 1] -= sfac * v[1];
            }
            if let Some(q) = q.as_deref_mut() {
                for row in q.as_mut_slice().chunks_exact_mut(n) {
                    let dot = v[0] * row[k] + v[1] * row[k + 1];
                    let sfac = beta * dot;
                    row[k] -= sfac * v[0];
                    row[k + 1] -= sfac * v[1];
                }
            }
        }
    }

    // Enforce the quasi-triangular sparsity pattern.
    for i in 1..n {
        let s = h[(i - 1, i - 1)].abs() + h[(i, i)].abs();
        let s = if s == 0.0 { norm } else { s };
        if h[(i, i - 1)].abs() <= eps * s {
            h[(i, i - 1)] = 0.0;
        }
    }
    {
        let hd = h.as_mut_slice();
        for i in 2..n {
            for j in 0..(i - 1) {
                hd[i * n + j] = 0.0;
            }
        }
    }
    Ok(())
}

/// Aggressive early deflation (K. Braman, R. Byers and R. Mathias,
/// "The multishift QR algorithm. Part II: Aggressive early deflation",
/// SIMAX 23, 2002) on the trailing [`AED_WINDOW`] rows of the active block
/// `[lo, hi]`.
///
/// The window's real Schur form `Vᵀ·T·V = S` turns the one subdiagonal
/// entry `s` left of it into the spike `s·V[0][..]`.  Trailing blocks of
/// `S` whose spike entries are negligible (LAPACK `dlaqr3`'s test) deflate
/// at once, without reordering: the scan stops at the first block that
/// does not.  If any deflated, the spike's rest is reflected onto its first
/// entry, the undeflated part of `S` is reduced back to Hessenberg form, and
/// `V` is applied to the rows above the window (from the active block's
/// first row without `q`, as the sweeps do), to the columns right of it and
/// to `q`; otherwise `h` is left as it was.
///
/// Returns the rows deflated, with `shifts` refilled from the undeflated
/// eigenvalues, or `None` when the window's own iteration does not
/// converge.
fn deflate_window(
    h: &mut Matrix,
    q: Option<&mut Matrix>,
    w: &mut Window,
    lo: usize,
    hi: usize,
    shifts: &mut Shifts,
) -> Option<usize> {
    let n = h.rows();
    let nw = AED_WINDOW;
    let top = hi + 1 - nw;
    let spike = h[(top, top - 1)];
    let (t, v) = (&mut *w.t, &mut *w.v);
    t.resize_uninit(nw, nw);
    for i in 0..nw {
        for j in 0..nw {
            t[(i, j)] = if i > j + 1 {
                0.0
            } else {
                h[(top + i, top + j)]
            };
        }
    }
    v.set_identity(nw);
    francis(t, Some(v), None).ok()?;
    let eps = f64::EPSILON;
    let small = f64::MIN_POSITIVE * (nw as f64 / eps);
    let mut kept = nw;
    while kept > 0 {
        let two = kept >= 2 && t[(kept - 1, kept - 2)] != 0.0;
        let tip = (spike * v[(0, kept - 1)]).abs();
        let (tip, scale) = if two {
            let off = t[(kept - 1, kept - 2)].abs().sqrt() * t[(kept - 2, kept - 1)].abs().sqrt();
            (
                tip.max((spike * v[(0, kept - 2)]).abs()),
                t[(kept - 1, kept - 1)].abs() + off,
            )
        } else {
            (tip, t[(kept - 1, kept - 1)].abs())
        };
        let scale = if scale == 0.0 { spike.abs() } else { scale };
        if tip > small.max(eps * scale) {
            break;
        }
        kept -= if two { 2 } else { 1 };
    }
    shifts.fill(t, kept);
    if kept == nw {
        return Some(0);
    }
    let work = &mut *w.work;
    work.clear();
    work.resize(nw * (n + 2), 0.0);
    let (x, rest) = work.split_at_mut(nw);
    let (dots, rest) = rest.split_at_mut(nw);
    // The undeflated spike [s·V[0][0], …, s·V[0][kept−1]] → β·e₁.
    let mut beta = spike * v[(0, 0)];
    if kept > 1 {
        for (xi, j) in x.iter_mut().zip(0..kept) {
            *xi = spike * v[(0, j)];
        }
        let (coef, alpha) = reflector(&mut x[..kept]);
        beta = alpha;
        reflect_rows(t, &x[..kept], coef, 0, 0, nw, dots);
        reflect_cols(t, &x[..kept], coef, 0, kept);
        reflect_cols(v, &x[..kept], coef, 0, nw);
        // Back to Hessenberg form, column by column.
        for j in 0..kept.saturating_sub(2) {
            let m = kept - j - 1;
            for (xi, i) in x.iter_mut().zip(j + 1..kept) {
                *xi = t[(i, j)];
            }
            let (coef, alpha) = reflector(&mut x[..m]);
            reflect_rows(t, &x[..m], coef, j + 1, j, nw, dots);
            reflect_cols(t, &x[..m], coef, j + 1, kept);
            reflect_cols(v, &x[..m], coef, j + 1, nw);
            t[(j + 1, j)] = alpha;
            for i in (j + 2)..kept {
                t[(i, j)] = 0.0;
            }
        }
    }
    for i in 0..nw {
        for j in 0..nw {
            h[(top + i, top + j)] = t[(i, j)];
        }
        h[(top + i, top - 1)] = 0.0;
    }
    h[(top, top - 1)] = beta;
    // H[rows above, window] ← H·V, Vᵀ·H[window, columns right], Q·V.
    let row_lo = if q.is_some() { 0 } else { lo };
    let vd = v.as_slice();
    let times_v = |row: &mut [f64], out: &mut [f64]| {
        out.fill(0.0);
        for (&c, vi) in row.iter().zip(vd.chunks_exact(nw)) {
            for (o, &vij) in out.iter_mut().zip(vi) {
                *o += c * vij;
            }
        }
        row.copy_from_slice(out);
    };
    let (out, rest) = rest.split_at_mut(nw);
    for r in row_lo..top {
        times_v(&mut h.as_mut_slice()[r * n + top..r * n + top + nw], out);
    }
    if let Some(q) = q {
        for r in 0..n {
            times_v(&mut q.as_mut_slice()[r * n + top..r * n + top + nw], out);
        }
        let width = n - hi - 1;
        let right = &mut rest[..nw * width];
        right.fill(0.0);
        let hd = h.as_slice();
        for (i, vi) in vd.chunks_exact(nw).enumerate() {
            let src = &hd[(top + i) * n + hi + 1..(top + i + 1) * n];
            for (j, &vij) in vi.iter().enumerate() {
                for (o, &x) in right[j * width..(j + 1) * width].iter_mut().zip(src) {
                    *o += vij * x;
                }
            }
        }
        if width > 0 {
            for (j, row) in right.chunks_exact(width).enumerate() {
                h.as_mut_slice()[(top + j) * n + hi + 1..(top + j + 1) * n].copy_from_slice(row);
            }
        }
    }
    Some(nw - kept)
}

/// A Householder vector for `x`, in place: returns `(coef, α)` with
/// `(I − coef·x xᵀ)·x₀ = α·e₁` for the input `x₀` (`coef = 0` when `x₀` is
/// already a multiple of `e₁`).
fn reflector(x: &mut [f64]) -> (f64, f64) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm == 0.0 || x[1..].iter().all(|&v| v == 0.0) {
        return (0.0, x[0]);
    }
    let alpha = if x[0] >= 0.0 { -norm } else { norm };
    x[0] -= alpha;
    let vtv = x.iter().map(|v| v * v).sum::<f64>();
    (2.0 / vtv, alpha)
}

/// `(I − coef·x xᵀ)` from the left on rows `r0..r0 + x.len()` of `t`,
/// columns `c0..c1`.
fn reflect_rows(
    t: &mut Matrix,
    x: &[f64],
    coef: f64,
    r0: usize,
    c0: usize,
    c1: usize,
    dots: &mut [f64],
) {
    if coef == 0.0 {
        return;
    }
    let dots = &mut dots[c0..c1];
    dots.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        for (d, c) in dots.iter_mut().zip(c0..c1) {
            *d += xi * t[(r0 + i, c)];
        }
    }
    for (i, &xi) in x.iter().enumerate() {
        for (d, c) in dots.iter().zip(c0..c1) {
            t[(r0 + i, c)] -= coef * d * xi;
        }
    }
}

/// `(I − coef·x xᵀ)` from the right on columns `c0..c0 + x.len()` of rows
/// `0..rows` of `t`.
fn reflect_cols(t: &mut Matrix, x: &[f64], coef: f64, c0: usize, rows: usize) {
    if coef == 0.0 {
        return;
    }
    for r in 0..rows {
        let dot: f64 = x
            .iter()
            .enumerate()
            .map(|(i, &xi)| xi * t[(r, c0 + i)])
            .sum();
        for (i, &xi) in x.iter().enumerate() {
            t[(r, c0 + i)] -= coef * dot * xi;
        }
    }
}

/// Householder reflector for a 3-vector: returns `(v, beta)` such that
/// `(I - beta v vᵀ) [x, y, z]ᵀ = [±‖·‖, 0, 0]ᵀ`.
fn householder3(x: f64, y: f64, z: f64) -> ([f64; 3], f64) {
    let norm = (x * x + y * y + z * z).sqrt();
    if norm == 0.0 {
        return ([0.0; 3], 0.0);
    }
    let alpha = if x >= 0.0 { -norm } else { norm };
    let v0 = x - alpha;
    let v = [v0, y, z];
    let vnorm_sq = v0 * v0 + y * y + z * z;
    if vnorm_sq <= f64::MIN_POSITIVE {
        return ([0.0; 3], 0.0);
    }
    (v, 2.0 / vnorm_sq)
}

/// Householder reflector for a 2-vector.
fn householder2(x: f64, y: f64) -> ([f64; 2], f64) {
    let norm = (x * x + y * y).sqrt();
    if norm == 0.0 {
        return ([0.0; 2], 0.0);
    }
    let alpha = if x >= 0.0 { -norm } else { norm };
    let v0 = x - alpha;
    let v = [v0, y];
    let vnorm_sq = v0 * v0 + y * y;
    if vnorm_sq <= f64::MIN_POSITIVE {
        return ([0.0; 2], 0.0);
    }
    (v, 2.0 / vnorm_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen;

    fn check_schur(a: &Matrix, tol: f64) -> RealSchur {
        let s = real_schur(a).unwrap();
        let n = a.rows();
        // Orthogonality
        let qtq = s.q.transpose_matmul(&s.q).unwrap();
        assert!(
            qtq.approx_eq(&Matrix::identity(n), tol),
            "Q not orthogonal: {}",
            (&qtq - &Matrix::identity(n)).norm_max()
        );
        // Similarity
        let recon = &(&s.q * &s.t) * &s.q.transpose();
        assert!(
            recon.approx_eq(a, tol * a.norm_fro().max(1.0)),
            "similarity violated by {}",
            (&recon - a).norm_max()
        );
        // Quasi-triangular: zero below first subdiagonal
        for i in 2..n {
            for j in 0..(i - 1) {
                assert_eq!(s.t[(i, j)], 0.0);
            }
        }
        s
    }

    #[test]
    fn schur_of_symmetric_matrix_is_diagonalish() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let s = check_schur(&a, 1e-10);
        let evals = eigen::eigenvalues_from_schur(&s.t);
        let mut re: Vec<f64> = evals.iter().map(|z| z.re).collect();
        re.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Known eigenvalues of this tridiagonal matrix
        let sum: f64 = re.iter().sum();
        assert!((sum - 9.0).abs() < 1e-9);
        assert!(evals.iter().all(|z| z.im.abs() < 1e-9));
    }

    #[test]
    fn schur_of_rotationlike_matrix_has_complex_pair() {
        let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let s = check_schur(&a, 1e-12);
        let evals = eigen::eigenvalues_from_schur(&s.t);
        assert_eq!(evals.len(), 2);
        assert!(evals.iter().all(|z| z.re.abs() < 1e-12));
        assert!(evals.iter().any(|z| (z.im - 1.0).abs() < 1e-12));
        assert!(evals.iter().any(|z| (z.im + 1.0).abs() < 1e-12));
    }

    #[test]
    fn schur_of_defective_jordan_block() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 2.0, 1.0], &[0.0, 0.0, 2.0]]);
        let s = check_schur(&a, 1e-9);
        let evals = eigen::eigenvalues_from_schur(&s.t);
        for z in evals {
            assert!((z.re - 2.0).abs() < 1e-5, "eigenvalue {z:?}");
            assert!(z.im.abs() < 1e-5);
        }
    }

    #[test]
    fn schur_of_moderate_random_matrix() {
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17 + 3) % 23) as f64 / 23.0 - 0.5;
            v + if i == j { 0.3 } else { 0.0 }
        });
        let s = check_schur(&a, 1e-8);
        // Eigenvalue sum equals trace.
        let evals = eigen::eigenvalues_from_schur(&s.t);
        let sum_re: f64 = evals.iter().map(|z| z.re).sum();
        let sum_im: f64 = evals.iter().map(|z| z.im).sum();
        assert!((sum_re - a.trace()).abs() < 1e-7);
        assert!(sum_im.abs() < 1e-7);
    }

    #[test]
    fn deflation_windows_keep_an_orthogonal_similarity() {
        // From `AED_MIN_DIM` the windows' `V` also reaches the columns right
        // of them and `Q`.
        let n = AED_MIN_DIM + 22;
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 37 + j * 11 + 5) % 29) as f64 / 29.0 - 0.5;
            v + if i == j { 0.02 * i as f64 } else { 0.0 }
        });
        let s = check_schur(&a, 1e-10);
        let evals = eigen::eigenvalues_from_schur(&s.t);
        let sum_re: f64 = evals.iter().map(|z| z.re).sum();
        assert!((sum_re - a.trace()).abs() < 1e-8);
    }

    #[test]
    fn trivial_sizes() {
        let s0 = real_schur(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(s0.t.shape(), (0, 0));
        let s1 = real_schur(&Matrix::filled(1, 1, 5.0)).unwrap();
        assert_eq!(s1.t[(0, 0)], 5.0);
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            real_schur(&Matrix::zeros(3, 2)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn non_finite_input_fails_at_once_and_leaves_h_untouched() {
        // One NaN keeps every deflation test false, so without the entry
        // check the iteration would run its 60n-sweep budget, seconds at
        // this order.
        let n = 394;
        let mut a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 * 0.1 - 0.8);
        a[(n / 3, n / 5)] = f64::NAN;
        let mut scratch = crate::workspace::ReflectorScratch::new();
        for with_q in [true, false] {
            let mut h = a.clone();
            let mut q = Matrix::zeros(0, 0);
            let result = real_schur_in(&mut h, with_q.then_some(&mut q), &mut scratch);
            assert!(
                matches!(result, Err(LinalgError::InvalidInput { .. })),
                "q {with_q}: {result:?}"
            );
            assert!(
                h.as_slice()
                    .iter()
                    .zip(a.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "q {with_q}: h changed"
            );
            assert!(q.is_empty(), "q {with_q}: q changed");
        }
    }
}
