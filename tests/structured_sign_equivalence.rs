//! The structured sign path against the general one: the Bunch–Kaufman
//! `LDLᵀ` kernel must invert symmetric indefinite matrices and flag exactly
//! singular ones, Byers' iteration on `J·Z` must reproduce the general
//! Newton sign iteration (same iteration counts to within one, agreeing
//! signs, an exactly symmetric `J·sign(H)`), and on badly scaled decks its
//! singular-iterate decision must follow the LU test it replaced.

use ds_circuits::mna;
use ds_linalg::decomp::{ldlt, lu};
use ds_linalg::sign::{self, SignOptions, SignScaling};
use ds_linalg::workspace::WorkspacePool;
use ds_linalg::{LinalgError, Matrix};
use ds_netlist::parse_deck;
use ds_passivity::report::{NonPassivityReason, PassivityVerdict};
use ds_passivity::{fast, proper, reduction};
use ds_shh::pencil::build_phi;
use ds_shh::structure;
use proptest::prelude::*;

/// SplitMix64 values in `[-1, 1)`, so each case is reproducible from its seed.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn random_symmetric(n: usize, seed: u64, zero_diagonal: bool) -> Matrix {
    let mut next = uniform(seed);
    let mut s = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = if i == j && zero_diagonal { 0.0 } else { next() };
            s[(i, j)] = v;
            s[(j, i)] = v;
        }
    }
    s
}

/// A random Riccati-type Hamiltonian `[[A, −G], [−Q, −Aᵀ]]` with `G, Q ≻ 0`,
/// which keeps its spectrum off the imaginary axis, and `A` shifted left by
/// `shift`.
fn random_hamiltonian(half: usize, seed: u64, shift: f64) -> Matrix {
    let mut next = uniform(seed);
    let a = Matrix::from_fn(half, half, |i, j| next() - if i == j { shift } else { 0.0 });
    let definite = |salt: u64| {
        let b = random_symmetric(half, seed ^ salt, false);
        &(&b * &b.transpose()).scale(0.3) + &Matrix::identity(half).scale(0.1)
    };
    structure::hamiltonian_from_blocks(
        &a,
        &definite(0x5151).scale(-1.0),
        &definite(0xA3A3).scale(-1.0),
    )
    .unwrap()
}

fn inverse(s: &Matrix) -> Result<Matrix, LinalgError> {
    let f = ldlt::factor(s)?;
    let mut x = Matrix::zeros(0, 0);
    let mut scratch = Matrix::zeros(0, 0);
    f.inverse_into(&mut x, &mut scratch)?;
    Ok(x)
}

/// `‖S·S⁻¹ − I‖max` against the backward-stable bound `c·n·ε·‖S‖_F·‖S⁻¹‖_F`.
fn assert_inverts(s: &Matrix, what: &str) {
    let n = s.rows();
    let x = inverse(s).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(x, x.transpose(), "{what}: inverse is not exactly symmetric");
    let residual = (&(s * &x) - &Matrix::identity(n)).norm_max();
    let bound = 100.0 * n as f64 * f64::EPSILON * s.norm_fro() * x.norm_fro();
    assert!(
        residual <= bound,
        "{what}: ‖S·S⁻¹ − I‖ = {residual:.3e} exceeds {bound:.3e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ldlt_inverts_symmetric_indefinite_matrices(
        seed in 0u64..1_000_000,
        n in 1usize..48,
        zero_diagonal in proptest::bool::ANY,
    ) {
        assert_inverts(&random_symmetric(n, seed, zero_diagonal), "random symmetric");
    }

    #[test]
    fn ldlt_inverts_j_times_a_hamiltonian(seed in 0u64..1_000_000, half in 1usize..24) {
        let h = random_hamiltonian(half, seed, 0.5);
        let jh = structure::j_mul(&h).unwrap().symmetric_part();
        assert_inverts(&jh, "J·H");
    }

    #[test]
    fn exactly_singular_matrices_are_flagged(
        seed in 0u64..1_000_000,
        n in 2usize..40,
        zero_diagonal in proptest::bool::ANY,
    ) {
        // A zero row and column stay exactly zero through every elimination
        // step, wherever pivoting moves them.
        let mut s = random_symmetric(n, seed, zero_diagonal);
        let k = (seed as usize) % n;
        for j in 0..n {
            s[(k, j)] = 0.0;
            s[(j, k)] = 0.0;
        }
        let f = ldlt::factor(&s).unwrap();
        prop_assert!(f.singular, "a zero row/column went unflagged at n = {}", n);
        let refused = matches!(inverse(&s), Err(LinalgError::Singular { .. }));
        prop_assert!(refused, "the inverse of a singular matrix was not refused");
    }
}

/// Runs both sign iterations on `h` with `scaling` and checks they agree.
fn assert_signs_agree(h: &Matrix, scaling: SignScaling, what: &str) {
    let m = h.rows();
    let mut pool = WorkspacePool::new();
    let mut general = Matrix::zeros(0, 0);
    let mut structured = Matrix::zeros(0, 0);
    let options = SignOptions {
        scaling,
        ..SignOptions::default()
    };
    let what = format!("{what}, {scaling:?} scaling");
    let general_its = sign::matrix_sign_into(h, &options, pool.get(m), &mut general)
        .unwrap_or_else(|e| panic!("{what}: general sign failed: {e}"));
    let structured_its = sign::hamiltonian_sign_into(h, &options, pool.get(m), &mut structured)
        .unwrap_or_else(|e| panic!("{what}: structured sign failed: {e}"));
    assert!(
        general_its.abs_diff(structured_its) <= 1,
        "{what}: {general_its} general vs {structured_its} structured iterations"
    );
    let gap = (&general - &structured).norm_max();
    assert!(gap <= 1e-8, "{what}: signs differ by {gap:.3e}");
    let js = structure::j_mul(&structured).unwrap();
    assert_eq!(
        js,
        js.transpose(),
        "{what}: J·sign(H) is not exactly symmetric"
    );
    assert!(
        (&structured * &structured).approx_eq(&Matrix::identity(m), 1e-8),
        "{what}: sign(H)² ≠ I"
    );
}

#[test]
fn structured_sign_matches_general_sign_on_random_hamiltonians() {
    let scalings = [
        SignScaling::Frobenius,
        SignScaling::Determinantal,
        SignScaling::None,
    ];
    for half in 1..=30 {
        for seed in 0..3u64 {
            let h = random_hamiltonian(half, 1000 * half as u64 + seed, 1.5);
            let scaling = scalings[seed as usize];
            assert_signs_agree(&h, scaling, &format!("order {} seed {seed}", 2 * half));
        }
    }
}

#[test]
fn structured_sign_matches_general_sign_on_the_n200_spectrum() {
    // The spectrum of `scaled_newton_beats_unscaled_at_n200`: H = diag(−D, D)
    // with magnitudes 10²..10⁴, rotated by an orthogonal symplectic matrix
    // so that J·H is a full symmetric matrix.
    let half = 100;
    let magnitude = |i: usize| 10f64.powf(2.0 + 2.0 * (i as f64) / ((half - 1) as f64));
    let d = Matrix::from_fn(2 * half, 2 * half, |i, j| match (i == j, i < half) {
        (false, _) => 0.0,
        (true, true) => -magnitude(i),
        (true, false) => magnitude(i - half),
    });
    assert_signs_agree(&d, SignScaling::Frobenius, "n = 200 diagonal");
    let q = ds_linalg::decomp::qr::factor_full(&random_symmetric(half, 7, false)).q;
    let zero = Matrix::zeros(half, half);
    let rotation = Matrix::from_blocks_2x2(&q, &zero, &zero, &q);
    assert!(structure::is_orthogonal_symplectic(&rotation, 1e-10).unwrap());
    let h = &(&rotation.transpose() * &d) * &rotation;
    assert_signs_agree(&h, SignScaling::Frobenius, "n = 200 rotated");
}

/// The impulsive RLC ladder of the daemon's on-chip traffic, frequency
/// scaled by `alpha` (L, C ÷ α) and impedance scaled by `beta` (R, L × β,
/// C ÷ β): neither scaling changes passivity.
fn scaled_ladder(sections: usize, alpha: f64, beta: f64) -> String {
    let (r, l, c) = (beta, beta / alpha, 1.0 / (alpha * beta));
    let mut deck = format!("* scaled ladder\nL1 p j {}\nR2 j 0 {}\n", l, 47.0 * r);
    let mut prev = "j".to_string();
    for k in 1..=sections {
        let node = format!("n{k}");
        deck.push_str(&format!("Ra{k} {prev} {node} {}\n", r));
        deck.push_str(&format!("La{k} {prev} {node} {}\n", 0.55 * l));
        deck.push_str(&format!("Ca{k} {node} 0 {c}\n"));
        deck.push_str(&format!("Rb{k} {node} 0 {}\n", 200.0 * r));
        prev = node;
    }
    deck.push_str(&format!(
        "Rt {prev} t {r}\nCt t 0 {}\nRu t 0 {}\n.port p\n.end\n",
        1.9 * c,
        5.1 * r
    ));
    deck
}

/// The regularized Hamiltonian `A₄₄` the split stage receives for `deck`.
fn a44_of(deck: &str) -> Matrix {
    let sys = mna::stamp(&parse_deck(deck).unwrap().netlist).unwrap();
    let tol = fast::FastTestOptions::default().rel_tol;
    let phi = build_phi(&sys).unwrap();
    let cancelled = reduction::cancel_impulsive_modes(&phi, tol).unwrap();
    let removed = reduction::remove_nondynamic_modes(&cancelled.reduced, tol).unwrap();
    assert!(removed.impulse_free);
    let restored = reduction::restore_shh(&removed.reduced).unwrap();
    proper::regularize(&restored.system, tol).unwrap().a44
}

/// A two-port lossy RLGC line of the daemon's on-chip traffic, frequency
/// scaled by α = 1e9 and impedance scaled by β = 50.
const RLGC_ALPHA_1E9: &str = "* lossy RLGC line
C1 n0 0 1.0639163608345616e-11
G2 n0 0 1.589939925712847e-4
R3 n0 m1 2.2356195041074123e1
L4 m1 n1 4.166038523756267e-8
C5 n1 0 2.397469419139087e-11
G6 n1 0 2.7697241649213657e-4
R7 n1 m2 2.3218694825686363e1
L8 m2 n2 3.949732385373571e-8
C9 n2 0 1.998214912127016e-11
G10 n2 0 2.2330775729889496e-4
R11 n2 m3 2.3822150642939995e1
L12 m3 n3 3.8210274295794054e-8
C13 n3 0 2.129599260204092e-11
G14 n3 0 2.2489864277728118e-4
R15 n3 m4 2.3797092066438836e1
L16 m4 n4 3.380848056434394e-8
C17 n4 0 1.99645917995704e-11
G18 n4 0 2.652899398075741e-4
.port n0
.port n4
.end
";

#[test]
fn flagged_ldlt_pivots_are_confirmed_by_the_lu_test_on_badly_scaled_decks() {
    // Both decks' first iterate S₀ = J·A₄₄ has a Bunch–Kaufman pivot at or
    // below ε·n·‖S₀‖max.  Trusting that flag would reject both as
    // `unstable_finite_modes`; the LU test on Z₀ = A₄₄ declares only the
    // ladder's iterate singular, as the general iteration always did, and
    // the line's iteration goes on.
    let ladder = scaled_ladder(10, 1e12, 50.0);
    for (deck, lu_singular) in [(ladder.as_str(), true), (RLGC_ALPHA_1E9, false)] {
        let what = deck.lines().next().unwrap_or_default();
        let a44 = a44_of(deck);
        let s0 = structure::j_mul(&a44).unwrap().symmetric_part();
        assert!(
            ldlt::factor(&s0).unwrap().singular,
            "{what}: S₀ has no flagged pivot any more, so the deck no longer pins the rule"
        );
        assert_eq!(lu::factor(&a44).unwrap().singular, lu_singular, "{what}");
        let singular =
            |r: Result<Matrix, LinalgError>| matches!(r, Err(LinalgError::Singular { .. }));
        let options = SignOptions::default();
        assert_eq!(
            singular(sign::hamiltonian_sign(&a44, &options)),
            lu_singular,
            "{what}"
        );
        assert_eq!(
            singular(sign::matrix_sign(&a44, &options)),
            lu_singular,
            "{what}"
        );
        let sys = mna::stamp(&parse_deck(deck).unwrap().netlist).unwrap();
        let report = fast::check_passivity(&sys, &fast::FastTestOptions::default());
        let unstable = matches!(
            report,
            Ok(ref r) if r.verdict == PassivityVerdict::NotPassive {
                reason: NonPassivityReason::UnstableFiniteModes
            }
        );
        assert_eq!(unstable, lu_singular, "{what}: {report:?}");
    }
}
