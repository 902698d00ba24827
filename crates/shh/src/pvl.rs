//! Paige/Van Loan (PVL) block-triangularization of skew-Hamiltonian matrices.
//!
//! Every skew-Hamiltonian matrix `W` can be reduced by an orthogonal-symplectic
//! similarity `Z` to
//!
//! ```text
//! Zᵀ W Z = [[ W₁₁, Ψ ],
//!           [  0 , W₁₁ᵀ]]        with Ψ skew-symmetric, W₁₁ upper Hessenberg.
//! ```
//!
//! This is the dense O(n³) equivalent of the isotropic Arnoldi process the
//! paper cites from Mehrmann & Watkins [17]; the passivity flow only needs the
//! block-triangular shape (eq. (21)), the Hessenberg structure of `W₁₁` comes
//! for free.

use crate::error::ShhError;
use crate::structure;
use ds_linalg::Matrix;

/// Result of the PVL reduction.
#[derive(Debug, Clone)]
pub struct PvlForm {
    /// Orthogonal symplectic transformation matrix `Z` (`2n x 2n`).
    pub z: Matrix,
    /// The reduced matrix `Zᵀ W Z` in PVL form.
    pub reduced: Matrix,
    /// Half dimension `n`.
    pub half: usize,
}

impl PvlForm {
    /// The upper-left block `W₁₁` (upper Hessenberg).
    pub fn w11(&self) -> Matrix {
        self.reduced.block(0, self.half, 0, self.half)
    }

    /// The upper-right block `Ψ` (skew-symmetric).
    pub fn psi(&self) -> Matrix {
        self.reduced.block(0, self.half, self.half, 2 * self.half)
    }

    /// Frobenius norm of the (2,1) block, which should be numerically zero.
    pub fn lower_left_residual(&self) -> f64 {
        self.reduced
            .block(self.half, 2 * self.half, 0, self.half)
            .norm_fro()
    }
}

/// Scratch for the reflector applications, hoisted so the O(n) reflectors
/// of one reduction allocate nothing per step.
#[derive(Default)]
struct Scratch {
    dots_top: Vec<f64>,
    dots_bot: Vec<f64>,
    /// Indices of the nonzero entries of the reflector vector.
    nonzeros: Vec<usize>,
}

/// How [`reduce`] applies a symplectic Householder reflector.
type ApplyReflector = fn(&mut Matrix, &mut Matrix, usize, usize, &[f64], f64, &mut Scratch);

/// Applies a symplectic Householder similarity `diag(P, P)` where
/// `P = I − β v vᵀ` acts on the index range `lo..n` of each half.
///
/// Only the nonzero entries of `v` are visited: on finite `W` and `Z` a zero
/// entry adds `±0` to every dot product and subtracts `±0` from every
/// updated entry, so skipping it leaves every result unchanged up to the
/// sign of an exact zero.  The many reflectors with a single nonzero entry
/// (sign flips of a column that is already collapsed) cost O(n), not O(n²).
fn apply_symplectic_householder(
    w: &mut Matrix,
    z: &mut Matrix,
    n: usize,
    lo: usize,
    v: &[f64],
    beta: f64,
    scratch: &mut Scratch,
) {
    if beta == 0.0 {
        return;
    }
    let dim = 2 * n;
    let Scratch {
        dots_top,
        dots_bot,
        nonzeros,
    } = scratch;
    nonzeros.clear();
    nonzeros.extend((0..v.len()).filter(|&k| v[k] != 0.0));
    // Left multiplication: rows (lo..lo+len) and (n+lo..n+lo+len).  Row-major
    // two-pass form: accumulate every column's dot product while streaming the
    // affected rows, then apply the rank-1 update the same way.  Per column
    // the additions happen in the same ascending-`k` order as the former
    // column-at-a-time loop, so the result is bit-identical.
    dots_top.clear();
    dots_top.resize(dim, 0.0);
    dots_bot.clear();
    dots_bot.resize(dim, 0.0);
    {
        let wd = w.as_mut_slice();
        for &k in nonzeros.iter() {
            let vk = v[k];
            let row_top = &wd[(lo + k) * dim..(lo + k + 1) * dim];
            for (d, &x) in dots_top.iter_mut().zip(row_top.iter()) {
                *d += vk * x;
            }
        }
        for &k in nonzeros.iter() {
            let vk = v[k];
            let row_bot = &wd[(n + lo + k) * dim..(n + lo + k + 1) * dim];
            for (d, &x) in dots_bot.iter_mut().zip(row_bot.iter()) {
                *d += vk * x;
            }
        }
        for &k in nonzeros.iter() {
            let vk = v[k];
            let row_top = &mut wd[(lo + k) * dim..(lo + k + 1) * dim];
            for (x, &d) in row_top.iter_mut().zip(dots_top.iter()) {
                *x -= (beta * d) * vk;
            }
        }
        for &k in nonzeros.iter() {
            let vk = v[k];
            let row_bot = &mut wd[(n + lo + k) * dim..(n + lo + k + 1) * dim];
            for (x, &d) in row_bot.iter_mut().zip(dots_bot.iter()) {
                *x -= (beta * d) * vk;
            }
        }
    }
    // Right multiplication: columns (lo..lo+len) and (n+lo..n+lo+len) of W
    // and Z; both column ranges are contiguous within each row.
    let apply_right = |mat: &mut Matrix| {
        let md = mat.as_mut_slice();
        for row in md.chunks_exact_mut(dim) {
            let mut dot_top = 0.0;
            let mut dot_bot = 0.0;
            for &k in nonzeros.iter() {
                dot_top += row[lo + k] * v[k];
                dot_bot += row[n + lo + k] * v[k];
            }
            let st = beta * dot_top;
            let sb = beta * dot_bot;
            for &k in nonzeros.iter() {
                row[lo + k] -= st * v[k];
                row[n + lo + k] -= sb * v[k];
            }
        }
    };
    apply_right(w);
    apply_right(z);
}

/// Applies a symplectic Givens similarity in the `(i, n+i)` plane with cosine
/// `c` and sine `s`.
fn apply_symplectic_givens(w: &mut Matrix, z: &mut Matrix, n: usize, i: usize, c: f64, s: f64) {
    let dim = 2 * n;
    let (it, ib) = (i, n + i);
    // Left: W ← Gᵀ W with G[it,it]=c, G[it,ib]=s, G[ib,it]=−s, G[ib,ib]=c.
    for col in 0..dim {
        let top = w[(it, col)];
        let bot = w[(ib, col)];
        w[(it, col)] = c * top - s * bot;
        w[(ib, col)] = s * top + c * bot;
    }
    // Right: W ← W G, Z ← Z G.
    for row in 0..dim {
        let top = w[(row, it)];
        let bot = w[(row, ib)];
        w[(row, it)] = c * top - s * bot;
        w[(row, ib)] = s * top + c * bot;
    }
    for row in 0..dim {
        let top = z[(row, it)];
        let bot = z[(row, ib)];
        z[(row, it)] = c * top - s * bot;
        z[(row, ib)] = s * top + c * bot;
    }
}

/// Householder vector and scaling for a column slice, mapping it onto `±‖·‖ e₁`.
fn householder(column: &[f64]) -> (Vec<f64>, f64) {
    let norm: f64 = column.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm == 0.0 {
        return (vec![0.0; column.len()], 0.0);
    }
    let alpha = if column[0] >= 0.0 { -norm } else { norm };
    let mut v = column.to_vec();
    v[0] -= alpha;
    let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
    if vnorm_sq <= f64::MIN_POSITIVE {
        return (vec![0.0; column.len()], 0.0);
    }
    (v, 2.0 / vnorm_sq)
}

/// Reduces a skew-Hamiltonian matrix to PVL form by an orthogonal-symplectic
/// similarity transformation.
///
/// # Errors
///
/// * [`ShhError::BadDimension`] for odd-dimensional or rectangular input.
/// * [`ShhError::StructureViolation`] when `w` is not (numerically)
///   skew-Hamiltonian.
pub fn reduce(w: &Matrix, tol: f64) -> Result<PvlForm, ShhError> {
    reduce_with(w, tol, apply_symplectic_householder)
}

fn reduce_with(w: &Matrix, tol: f64, apply: ApplyReflector) -> Result<PvlForm, ShhError> {
    if !w.is_square() || !w.rows().is_multiple_of(2) {
        return Err(ShhError::BadDimension { shape: w.shape() });
    }
    let n = w.rows() / 2;
    let scale = w.norm_fro().max(1.0);
    if !structure::is_skew_hamiltonian(w, tol.max(1e-8) * scale)? {
        return Err(ShhError::structure(
            "pvl::reduce requires a skew-Hamiltonian matrix",
        ));
    }
    let mut work = w.clone();
    let mut z = Matrix::identity(2 * n);
    let mut scratch = Scratch::default();

    for j in 0..n.saturating_sub(1) {
        // Entries of the lower-left block in column j live in rows n+j+1 .. 2n.
        // (1) Householder on rows j+1..n of both halves to collapse
        //     Q(j+2.., j) onto Q(j+1, j).
        if n - (j + 1) > 1 {
            let col: Vec<f64> = ((j + 1)..n).map(|i| work[(n + i, j)]).collect();
            let (v, beta) = householder(&col);
            apply(&mut work, &mut z, n, j + 1, &v, beta, &mut scratch);
        }
        // (2) Symplectic Givens in the (j+1, n+j+1) plane to rotate Q(j+1, j)
        //     into A(j+1, j).
        {
            let a_entry = work[(j + 1, j)];
            let q_entry = work[(n + j + 1, j)];
            let r = a_entry.hypot(q_entry);
            if r > 0.0 && q_entry.abs() > f64::EPSILON * scale {
                let c = a_entry / r;
                let s = -q_entry / r;
                apply_symplectic_givens(&mut work, &mut z, n, j + 1, c, s);
            }
        }
        // (3) Householder on rows j+1..n of both halves to collapse
        //     A(j+2.., j) onto A(j+1, j), producing the Hessenberg shape.
        if n - (j + 1) > 1 {
            let col: Vec<f64> = ((j + 1)..n).map(|i| work[(i, j)]).collect();
            let (v, beta) = householder(&col);
            apply(&mut work, &mut z, n, j + 1, &v, beta, &mut scratch);
        }
    }

    // Clean the structurally-zero lower-left block.
    let cleanup = f64::EPSILON * scale * (4 * n) as f64;
    for i in n..2 * n {
        for j in 0..n {
            if work[(i, j)].abs() <= cleanup * 100.0 {
                work[(i, j)] = 0.0;
            }
        }
    }
    Ok(PvlForm {
        z,
        reduced: work,
        half: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{is_orthogonal_symplectic, skew_hamiltonian_from_blocks};

    fn sample_skew_hamiltonian(n: usize, seed: usize) -> Matrix {
        let a = Matrix::from_fn(n, n, |i, j| {
            (((i * 7 + j * 13 + seed * 3) % 17) as f64) * 0.21 - 1.6
        });
        let g = Matrix::from_fn(n, n, |i, j| {
            (((i * 5 + j * 11 + seed) % 13) as f64) * 0.3 - 1.9
        });
        let q = Matrix::from_fn(n, n, |i, j| {
            (((i * 3 + j * 7 + seed * 5) % 11) as f64) * 0.17 - 0.8
        });
        skew_hamiltonian_from_blocks(&a, &g, &q).unwrap()
    }

    fn check_reduction(w: &Matrix) -> PvlForm {
        let n = w.rows() / 2;
        let form = reduce(w, 1e-10).unwrap();
        // Z orthogonal symplectic.
        assert!(
            is_orthogonal_symplectic(&form.z, 1e-9).unwrap(),
            "Z lost orthogonal-symplectic structure"
        );
        // Similarity preserved.
        let recon = &(&form.z * &form.reduced) * &form.z.transpose();
        assert!(
            recon.approx_eq(w, 1e-8 * w.norm_fro().max(1.0)),
            "similarity violated by {}",
            (&recon - w).norm_max()
        );
        // Lower-left block vanishes.
        assert!(
            form.lower_left_residual() < 1e-8 * w.norm_fro().max(1.0),
            "lower-left residual {}",
            form.lower_left_residual()
        );
        // Result still skew-Hamiltonian: bottom-right equals W11ᵀ.
        let w11 = form.w11();
        let w22 = form.reduced.block(n, 2 * n, n, 2 * n);
        assert!(w22.approx_eq(&w11.transpose(), 1e-8 * w.norm_fro().max(1.0)));
        // Ψ skew-symmetric.
        assert!(form.psi().is_skew_symmetric(1e-8 * w.norm_fro().max(1.0)));
        form
    }

    /// The reflector application as it ran before the zero skip: every entry
    /// of `v`, zero or not.
    fn reference_householder(
        w: &mut Matrix,
        z: &mut Matrix,
        n: usize,
        lo: usize,
        v: &[f64],
        beta: f64,
        scratch: &mut Scratch,
    ) {
        if beta == 0.0 {
            return;
        }
        let dim = 2 * n;
        let Scratch {
            dots_top, dots_bot, ..
        } = scratch;
        dots_top.clear();
        dots_top.resize(dim, 0.0);
        dots_bot.clear();
        dots_bot.resize(dim, 0.0);
        {
            let wd = w.as_mut_slice();
            for (k, &vk) in v.iter().enumerate() {
                let row_top = &wd[(lo + k) * dim..(lo + k + 1) * dim];
                for (d, &x) in dots_top.iter_mut().zip(row_top.iter()) {
                    *d += vk * x;
                }
            }
            for (k, &vk) in v.iter().enumerate() {
                let row_bot = &wd[(n + lo + k) * dim..(n + lo + k + 1) * dim];
                for (d, &x) in dots_bot.iter_mut().zip(row_bot.iter()) {
                    *d += vk * x;
                }
            }
            for (k, &vk) in v.iter().enumerate() {
                let row_top = &mut wd[(lo + k) * dim..(lo + k + 1) * dim];
                for (x, &d) in row_top.iter_mut().zip(dots_top.iter()) {
                    *x -= (beta * d) * vk;
                }
            }
            for (k, &vk) in v.iter().enumerate() {
                let row_bot = &mut wd[(n + lo + k) * dim..(n + lo + k + 1) * dim];
                for (x, &d) in row_bot.iter_mut().zip(dots_bot.iter()) {
                    *x -= (beta * d) * vk;
                }
            }
        }
        let apply_right = |mat: &mut Matrix| {
            let md = mat.as_mut_slice();
            for row in md.chunks_exact_mut(dim) {
                let mut dot_top = 0.0;
                let mut dot_bot = 0.0;
                for (k, &vk) in v.iter().enumerate() {
                    dot_top += row[lo + k] * vk;
                    dot_bot += row[n + lo + k] * vk;
                }
                let st = beta * dot_top;
                let sb = beta * dot_bot;
                for (k, &vk) in v.iter().enumerate() {
                    row[lo + k] -= st * vk;
                    row[n + lo + k] -= sb * vk;
                }
            }
        };
        apply_right(w);
        apply_right(z);
    }

    /// A skew-Hamiltonian matrix whose blocks keep roughly `density` of
    /// their entries (deterministic pattern).
    fn sparse_skew_hamiltonian(n: usize, density: f64, seed: usize) -> Matrix {
        let pick = |i: usize, j: usize, salt: usize| {
            let h = (i * 7919 + j * 104_729 + seed * 1_299_709 + salt) % 1000;
            if (h as f64) < density * 1000.0 {
                (h % 17) as f64 * 0.25 - 2.0
            } else {
                0.0
            }
        };
        let a = Matrix::from_fn(n, n, |i, j| pick(i, j, 1));
        let g = Matrix::from_fn(n, n, |i, j| pick(i, j, 2));
        let q = Matrix::from_fn(n, n, |i, j| pick(i, j, 3));
        skew_hamiltonian_from_blocks(&a, &g, &q).unwrap()
    }

    #[test]
    fn zero_skipping_reflectors_match_the_full_length_reference() {
        let mut inputs: Vec<(String, Matrix)> = Vec::new();
        for (n, seed) in [(3, 1), (8, 2), (20, 3)] {
            inputs.push((format!("dense {n}"), sample_skew_hamiltonian(n, seed)));
        }
        for (n, density) in [(12, 0.05), (30, 0.02), (30, 0.1), (45, 0.3)] {
            inputs.push((
                format!("sparse {n} at {density}"),
                sparse_skew_hamiltonian(n, density, n),
            ));
        }
        // Hessenberg A with zero G and Q: every collapsing reflector has a
        // single nonzero entry and only flips a sign.
        let h = Matrix::from_fn(25, 25, |i, j| {
            if i <= j + 1 {
                ((i * 3 + j * 5) % 7) as f64 - 3.0 + 0.5
            } else {
                0.0
            }
        });
        inputs.push((
            "hessenberg".into(),
            Matrix::block_diag(&[&h, &h.transpose()]),
        ));
        let mut with_q = sparse_skew_hamiltonian(25, 0.04, 7);
        for i in 0..25 {
            for j in 0..25 {
                with_q[(i, j)] = h[(i, j)];
                with_q[(25 + j, 25 + i)] = h[(i, j)];
            }
        }
        inputs.push(("hessenberg with sparse G, Q".into(), with_q));
        for (name, w) in &inputs {
            let fast = reduce(w, 1e-10).unwrap();
            let reference = reduce_with(w, 1e-10, reference_householder).unwrap();
            // `==` on f64: a skipped zero entry may flip the sign of an
            // exact zero, nothing else.
            assert!(fast.z == reference.z, "Z differs: {name}");
            assert!(
                fast.reduced == reference.reduced,
                "PVL form differs: {name}"
            );
        }
    }

    #[test]
    fn reduces_small_skew_hamiltonian() {
        let w = sample_skew_hamiltonian(3, 1);
        check_reduction(&w);
    }

    #[test]
    fn reduces_moderate_skew_hamiltonian() {
        let w = sample_skew_hamiltonian(8, 2);
        let form = check_reduction(&w);
        // W11 is upper Hessenberg.
        let w11 = form.w11();
        for i in 2..8 {
            for j in 0..(i - 1) {
                assert!(
                    w11[(i, j)].abs() < 1e-8 * w.norm_fro(),
                    "W11 not Hessenberg at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn block_diagonal_input_is_already_reduced() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let w = Matrix::block_diag(&[&a, &a.transpose()]);
        let form = check_reduction(&w);
        assert!(form.lower_left_residual() < 1e-12);
    }

    #[test]
    fn identity_passes_through() {
        let form = check_reduction(&Matrix::identity(6));
        assert!(form.w11().approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn one_by_one_half_dimension() {
        let w = skew_hamiltonian_from_blocks(
            &Matrix::filled(1, 1, 3.0),
            &Matrix::zeros(1, 1),
            &Matrix::zeros(1, 1),
        )
        .unwrap();
        let form = check_reduction(&w);
        assert_eq!(form.half, 1);
    }

    #[test]
    fn rejects_non_skew_hamiltonian() {
        let h = crate::structure::hamiltonian_from_blocks(
            &Matrix::identity(2),
            &Matrix::identity(2),
            &Matrix::identity(2),
        )
        .unwrap();
        assert!(matches!(
            reduce(&h, 1e-10),
            Err(ShhError::StructureViolation { .. })
        ));
        assert!(matches!(
            reduce(&Matrix::identity(3), 1e-10),
            Err(ShhError::BadDimension { .. })
        ));
    }

    #[test]
    fn eigenvalues_preserved_by_reduction() {
        let w = sample_skew_hamiltonian(5, 7);
        let form = reduce(&w, 1e-10).unwrap();
        let mut before: Vec<f64> = ds_linalg::eigen::eigenvalues(&w)
            .unwrap()
            .iter()
            .map(|z| z.re)
            .collect();
        let mut after: Vec<f64> = ds_linalg::eigen::eigenvalues(&form.reduced)
            .unwrap()
            .iter()
            .map(|z| z.re)
            .collect();
        before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < 1e-6, "eigenvalue drift {b} vs {a}");
        }
    }
}
