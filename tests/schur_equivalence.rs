//! Q-free Schur path conformance: `real_schur_t_only` (and the pooled
//! `eigen::eigenvalues` built on it) must produce exactly the eigenvalues of
//! the full `real_schur` decomposition.  The Q updates never feed back into
//! the `T` iterates, so the agreement is required to be *bit-for-bit*, not
//! merely within tolerance — any drift between the two paths is a bug.

use ds_linalg::decomp::hessenberg::BLOCKED_MIN_DIM;
use ds_linalg::decomp::schur::{real_schur, real_schur_t_only};
use ds_linalg::eigen;
use ds_linalg::workspace::WorkspacePool;
use ds_linalg::{Complex, Matrix};
use proptest::prelude::*;

/// Sorts eigenvalues by (re, im) bit patterns for a stable pairing.
fn sorted(mut eigs: Vec<Complex>) -> Vec<Complex> {
    eigs.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap()
            .then(a.im.partial_cmp(&b.im).unwrap())
    });
    eigs
}

fn assert_paths_agree(a: &Matrix) {
    let full = real_schur(a).unwrap();
    let t_only = real_schur_t_only(a).unwrap();
    assert_eq!(
        t_only.as_slice(),
        full.t.as_slice(),
        "T factors differ between the Q-free and full Schur paths"
    );
    let from_full = sorted(eigen::eigenvalues_from_schur(&full.t));
    let from_t = sorted(eigen::eigenvalues(a).unwrap());
    assert_eq!(from_full.len(), from_t.len());
    for (x, y) in from_full.iter().zip(from_t.iter()) {
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
    // The explicit-workspace kernel must agree as well (and keep agreeing when
    // the workspace is reused across calls).
    let mut pool = WorkspacePool::new();
    for _ in 0..2 {
        let pooled = sorted(eigen::eigenvalues_in(a, pool.get(a.rows())).unwrap());
        for (x, y) in from_full.iter().zip(pooled.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
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
        match (real_schur(&a), real_schur_t_only(&a)) {
            (Ok(full), Ok(t_only)) => {
                prop_assert_eq!(t_only.as_slice(), full.t.as_slice());
            }
            (Err(_), Err(_)) => {}
            (full, t_only) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "paths diverged: full = {:?}, t_only = {:?}",
                    full.map(|_| ()), t_only.map(|_| ())
                )));
            }
        }
    }
}
