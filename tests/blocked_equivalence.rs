//! Compact-WY blocked kernel conformance: the blocked Hessenberg and QR
//! sweeps must agree with the unblocked ones on everything spectral.
//!
//! Blocking changes the floating-point operation *order* (panel updates land
//! as accumulated `I − V·T·Vᵀ` matmuls instead of rank-1 sweeps), so unlike
//! `tests/schur_equivalence.rs` the agreement demanded here is within
//! tolerance, not bit-for-bit.  At the orders tested (2..60) the production
//! entry points route to the unblocked sweep, so forcing the blocked kernel
//! through its `_blocked` doors gives an exact unblocked-vs-blocked pairing
//! on the same input — including the defective Jordan chains and rotation
//! blocks that stress the downstream QR iteration hardest.

use ds_linalg::decomp::{hessenberg, qr, schur};
use ds_linalg::eigen;
use ds_linalg::workspace::ReflectorScratch;
use ds_linalg::{Complex, Matrix};
use proptest::prelude::*;

/// Sorts eigenvalues by (re, im) for a stable pairing.
fn sorted(mut eigs: Vec<Complex>) -> Vec<Complex> {
    eigs.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap()
            .then(a.im.partial_cmp(&b.im).unwrap())
    });
    eigs
}

/// `eig_tol` is the eigenvalue agreement bound: roundoff-level reordering of
/// the reduction arithmetic perturbs a defective eigenvalue by O(ε^{1/k}) for
/// a length-k Jordan chain, so defective fixtures must pass a chain-aware
/// tolerance while well-separated spectra use a tight one.
fn assert_blocked_paths_agree(a: &Matrix, eig_tol: f64) {
    let n = a.rows();
    let scale = a.norm_fro().max(1.0);
    let tol = 1e-8 * scale;

    // Hessenberg: unblocked (what `reduce_in` picks below BLOCKED_MIN_DIM)
    // against the forced blocked sweep.
    let mut scratch = ReflectorScratch::new();
    let mut h_ref = a.clone();
    let mut q_ref = Matrix::zeros(0, 0);
    hessenberg::reduce_in(&mut h_ref, Some(&mut q_ref), &mut scratch).unwrap();
    let mut h_blk = a.clone();
    let mut q_blk = Matrix::zeros(0, 0);
    hessenberg::reduce_blocked_in(&mut h_blk, Some(&mut q_blk), &mut scratch).unwrap();
    // Both are orthogonal similarity transforms of `a`...
    let residual = &(&(&q_blk * &h_blk) * &q_blk.transpose()) - a;
    assert!(
        residual.norm_max() <= tol,
        "blocked Hessenberg does not reproduce A: residual {:.2e}",
        residual.norm_max()
    );
    // ...so the spectra must match within tolerance.
    let eig_ref = sorted(eigen::eigenvalues(&h_ref).unwrap());
    let eig_blk = sorted(eigen::eigenvalues(&h_blk).unwrap());
    assert_eq!(eig_ref.len(), eig_blk.len());
    for (x, y) in eig_ref.iter().zip(eig_blk.iter()) {
        assert!(
            (x.re - y.re).abs() <= eig_tol * scale && (x.im - y.im).abs() <= eig_tol * scale,
            "eigenvalue drift between unblocked and blocked Hessenberg: \
             ({}, {}) vs ({}, {})",
            x.re,
            x.im,
            y.re,
            y.im
        );
    }

    // QR: both factorizations must reconstruct A with an orthogonal Q and
    // agree on the triangular factor's diagonal magnitudes (the factorization
    // is unique up to column signs).
    let reference = qr::factor_full(a);
    let blocked = qr::factor_full_blocked(a);
    let recon = &blocked.q * &blocked.r;
    assert!(
        (&recon - a).norm_max() <= tol,
        "blocked QR does not reconstruct A"
    );
    let qtq = blocked.q.transpose_matmul(&blocked.q).unwrap();
    assert!(
        (&qtq - &Matrix::identity(n)).norm_max() <= 1e-10,
        "blocked QR lost orthogonality"
    );
    for i in 0..n {
        assert!(
            (reference.r[(i, i)].abs() - blocked.r[(i, i)].abs()).abs() <= tol,
            "R diagonal drift at {i}: {} vs {}",
            reference.r[(i, i)],
            blocked.r[(i, i)]
        );
    }
}

#[test]
fn defective_jordan_blocks() {
    for n in [3usize, 6, 9, 17] {
        // A length-n chain turns an ε-level backward error into an ε^{1/n}
        // eigenvalue shift; give one order of magnitude of slack on top.
        let eig_tol = 10.0 * f64::EPSILON.powf(1.0 / n as f64);
        let mut a = Matrix::identity(n).scale(2.0);
        for i in 0..n - 1 {
            a[(i, i + 1)] = 1.0;
        }
        assert_blocked_paths_agree(&a, eig_tol);
        // A similarity-hidden variant of the same chain.
        let t = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else {
                0.05 * ((i + 2 * j) % 3) as f64
            }
        });
        let t_inv = ds_linalg::decomp::lu::inverse(&t).unwrap();
        let hidden = &(&t * &a) * &t_inv;
        assert_blocked_paths_agree(&hidden, eig_tol);
    }
}

#[test]
fn rotation_like_complex_pairs() {
    let blocks: Vec<Matrix> = (1..8)
        .map(|k| {
            let w = k as f64 * 0.7;
            Matrix::from_rows(&[&[0.1 * k as f64, w], &[-w, 0.1 * k as f64]])
        })
        .collect();
    let refs: Vec<&Matrix> = blocks.iter().collect();
    let a = Matrix::block_diag(&refs);
    assert_blocked_paths_agree(&a, 1e-6);
}

/// The largest distance between the eigenvalues of `a` and `b` after pairing
/// each of `a`'s (sorted) with the nearest unpaired one of `b`.
fn spectral_distance(a: Vec<Complex>, b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut free = b.to_vec();
    let mut worst = 0.0_f64;
    for x in sorted(a) {
        let (at, distance) = free
            .iter()
            .map(|y| (x.re - y.re).hypot(x.im - y.im))
            .enumerate()
            .min_by(|p, q| p.1.total_cmp(&q.1))
            .unwrap();
        free.swap_remove(at);
        worst = worst.max(distance);
    }
    worst
}

/// Eigenvalues through the classic Francis iteration, with no deflation
/// window at any order.
fn classic_eigenvalues(a: &Matrix) -> Vec<Complex> {
    let mut t = a.clone();
    schur::real_schur_classic_in(&mut t, None, &mut ReflectorScratch::new()).unwrap();
    eigen::eigenvalues_from_schur(&t)
}

#[test]
fn aggressive_deflation_agrees_with_the_classic_iteration() {
    // The zero matrix of the order-200 Table-1 ladder (2n_p = 394), where
    // the zeros of Φ are computed, and random matrices from the threshold
    // up.
    let model = ds_circuits::generators::rlc_ladder_with_impulsive(200).unwrap();
    let tol = ds_passivity::fast::FastTestOptions::default().rel_tol;
    let phi = ds_shh::pencil::build_phi(&model.system).unwrap();
    let cancelled = ds_passivity::reduction::cancel_impulsive_modes(&phi, tol).unwrap();
    let removed =
        ds_passivity::reduction::remove_nondynamic_modes(&cancelled.reduced, tol).unwrap();
    let restored = ds_passivity::reduction::restore_shh(&removed.reduced).unwrap();
    let regular = ds_passivity::proper::regularize(&restored.system, tol).unwrap();
    let mut inputs = vec![ds_passivity::proper::zero_matrix(&regular).unwrap()];
    for (n, seed) in [(schur::AED_MIN_DIM, 5u64), (170, 6), (256, 7)] {
        inputs.push(Matrix::from_fn(n, n, |i, j| {
            let base = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed);
            ((base ^ (base >> 31)) % 2001) as f64 / 1000.0 - 1.0
        }));
    }
    for a in &inputs {
        let n = a.rows();
        let distance = spectral_distance(eigen::eigenvalues(a).unwrap(), &classic_eigenvalues(a));
        let bound = 1e-9 * a.norm_fro();
        assert!(
            distance <= bound,
            "n={n}: windowed and classic spectra differ by {distance:.3e} > {bound:.3e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn equivalence_over_random_orders(order in 2usize..61, seed in 0u64..1000) {
        let a = Matrix::from_fn(order, order, |i, j| {
            let base = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed);
            let mixed = base ^ (base >> 33);
            (mixed % 1000) as f64 / 500.0 - 1.0 + if i == j { 0.5 } else { 0.0 }
        });
        // Random matrices can have near-multiple eigenvalues; allow the same
        // clustering slack the proptest in tests/schur_equivalence.rs relies
        // on bit-identity to avoid.
        assert_blocked_paths_agree(&a, 1e-4);
    }
}
