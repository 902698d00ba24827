//! Eigenvalues-only Schur path conformance: `eigen::eigenvalues` (and the
//! pooled `eigen::eigenvalues_in`) run the Francis sweeps without `Q` and
//! update only the active diagonal block, yet must produce exactly the
//! eigenvalues `eigen::eigenvalues_from_schur` reads off the full
//! `real_schur` decomposition's `T`.  The skipped updates never feed back into
//! the diagonal blocks, so the agreement is required to be *bit-for-bit*, in
//! the same order, not merely within tolerance — any drift between the two
//! paths is a bug.

use ds_linalg::decomp::hessenberg::BLOCKED_MIN_DIM;
use ds_linalg::decomp::schur::{real_schur, AED_MIN_DIM};
use ds_linalg::eigen;
use ds_linalg::workspace::WorkspacePool;
use ds_linalg::{Complex, Matrix};
use proptest::prelude::*;

/// The eigenvalues of the full decomposition's `T`.
fn from_full_schur(a: &Matrix) -> Result<Vec<Complex>, ds_linalg::LinalgError> {
    Ok(eigen::eigenvalues_from_schur(&real_schur(a)?.t))
}

fn assert_bitwise_equal(expected: &[Complex], actual: &[Complex]) {
    assert_eq!(expected.len(), actual.len());
    for (x, y) in expected.iter().zip(actual) {
        assert_eq!(
            x.re.to_bits(),
            y.re.to_bits(),
            "re drift: {} vs {}",
            x.re,
            y.re
        );
        assert_eq!(
            x.im.to_bits(),
            y.im.to_bits(),
            "im drift: {} vs {}",
            x.im,
            y.im
        );
    }
}

fn assert_paths_agree(a: &Matrix) {
    let from_full = from_full_schur(a).unwrap();
    assert_bitwise_equal(&from_full, &eigen::eigenvalues(a).unwrap());
    // The explicit-workspace kernel must agree as well (and keep agreeing when
    // the workspace is reused across calls).
    let mut pool = WorkspacePool::new();
    for _ in 0..2 {
        let pooled = eigen::eigenvalues_in(a, pool.get(a.rows())).unwrap();
        assert_bitwise_equal(&from_full, &pooled);
    }
}

#[test]
fn random_like_matrix() {
    for n in [5usize, 13, 24, 40] {
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17 + 3) % 23) as f64 / 23.0 - 0.5;
            v + if i == j { 0.3 } else { 0.0 }
        });
        assert_paths_agree(&a);
    }
    // From `BLOCKED_MIN_DIM` up the Hessenberg reduction runs compact-WY
    // blocked.  There the same pattern repeats too often for the QR
    // iteration to converge, so a graded diagonal separates the eigenvalues.
    let n = BLOCKED_MIN_DIM + 32;
    let a = Matrix::from_fn(n, n, |i, j| {
        let v = ((i * 31 + j * 17 + 3) % 23) as f64 / 23.0 - 0.5;
        0.1 * v + if i == j { 2.0 + 0.01 * i as f64 } else { 0.0 }
    });
    assert_paths_agree(&a);
}

#[test]
fn defective_jordan_blocks() {
    // Jordan blocks are the classic hard case for the QR iteration: repeated
    // eigenvalues with a single chain.
    for n in [3usize, 6, 9] {
        let mut a = Matrix::identity(n).scale(2.0);
        for i in 0..n - 1 {
            a[(i, i + 1)] = 1.0;
        }
        assert_paths_agree(&a);
        // A perturbed, similarity-hidden variant.
        let t = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else {
                0.05 * ((i + 2 * j) % 3) as f64
            }
        });
        let t_inv = ds_linalg::decomp::lu::inverse(&t).unwrap();
        let hidden = &(&t * &a) * &t_inv;
        assert_paths_agree(&hidden);
    }
}

#[test]
fn rotation_like_complex_pairs() {
    // Block-diagonal rotations: all eigenvalues are complex pairs.
    let blocks: Vec<Matrix> = (1..6)
        .map(|k| {
            let w = k as f64 * 0.7;
            Matrix::from_rows(&[&[0.1 * k as f64, w], &[-w, 0.1 * k as f64]])
        })
        .collect();
    let refs: Vec<&Matrix> = blocks.iter().collect();
    let a = Matrix::block_diag(&refs);
    assert_paths_agree(&a);
}

#[test]
fn hamiltonian_shaped_matrix() {
    // The shape the passivity hot path feeds to `eigen::eigenvalues`.
    let n = 10;
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            -1.0 - 0.2 * i as f64
        } else {
            0.1 * (((i * 3 + j * 5) % 5) as f64 - 2.0)
        }
    });
    let g = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 6) as f64 * 0.1);
    let g = &(&g * &g.transpose()) + &Matrix::identity(n).scale(0.4);
    let q = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 4) as f64 * 0.1);
    let q = &(&q.transpose() * &q) + &Matrix::identity(n).scale(0.2);
    let upper = Matrix::hstack(&[&a, &g.scale(-1.0)]);
    let lower = Matrix::hstack(&[&q, &a.transpose().scale(-1.0)]);
    let h = Matrix::vstack(&[&upper, &lower]);
    assert_paths_agree(&h);
}

#[test]
fn aggressive_deflation_windows_keep_the_paths_identical() {
    // From `AED_MIN_DIM` up each iteration first deflates on a trailing
    // window; the eigenvalues-only path updates the rows above the window
    // from the active block's first row only, and must still agree bit for
    // bit.
    for (n, seed) in [(AED_MIN_DIM, 1u64), (AED_MIN_DIM + 1, 2), (200, 3)] {
        let a = Matrix::from_fn(n, n, |i, j| {
            let base = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed);
            let unit = ((base ^ (base >> 29)) % 1_000_003) as f64 / 1_000_003.0;
            unit - 0.5
                + if i == j {
                    0.1 * i as f64 / n as f64
                } else {
                    0.0
                }
        });
        assert_paths_agree(&a);
    }
    // A Hamiltonian of the passivity hot path's shape at 2n = 160.
    let half = 80;
    let a = Matrix::from_fn(half, half, |i, j| {
        if i == j {
            -1.0 - 0.02 * i as f64
        } else {
            0.05 * (((i * 3 + j * 5) % 7) as f64 - 3.0)
        }
    });
    let g = Matrix::from_fn(half, half, |i, j| ((i * 7 + j * 3) % 6) as f64 * 0.02);
    let g = &(&g * &g.transpose()) + &Matrix::identity(half).scale(0.4);
    let q = Matrix::from_fn(half, half, |i, j| ((i + 2 * j) % 4) as f64 * 0.02);
    let q = &(&q.transpose() * &q) + &Matrix::identity(half).scale(0.2);
    let upper = Matrix::hstack(&[&a, &g.scale(-1.0)]);
    let lower = Matrix::hstack(&[&q, &a.transpose().scale(-1.0)]);
    assert_paths_agree(&Matrix::vstack(&[&upper, &lower]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(29))]

    #[test]
    fn equivalence_over_random_orders(order in 2usize..30, seed in 0u64..1000) {
        let a = Matrix::from_fn(order, order, |i, j| {
            let base = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j as u64)
                .wrapping_mul(1442695040888963407)
                .wrapping_add(seed);
            let unit = (base >> 11) as f64 / (1u64 << 53) as f64;
            unit - 0.5 + if i == j { 0.4 } else { 0.0 }
        });
        // Convergence is not guaranteed for adversarial random matrices at the
        // iteration cap, but both paths must agree on success *and* failure.
        match (from_full_schur(&a), eigen::eigenvalues(&a)) {
            (Ok(full), Ok(eigenvalues_only)) => {
                prop_assert_eq!(full.len(), eigenvalues_only.len());
                for (x, y) in full.iter().zip(&eigenvalues_only) {
                    prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
                    prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
            (Err(_), Err(_)) => {}
            (full, eigenvalues_only) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "paths diverged: full = {:?}, eigenvalues only = {:?}",
                    full.map(|_| ()), eigenvalues_only.map(|_| ())
                )));
            }
        }
    }
}
