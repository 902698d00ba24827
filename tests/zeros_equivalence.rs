//! The zeros of `Φ` from its regular realization (eq. (21)) against the
//! Hamiltonian matrix of the stable proper part.
//!
//! `check_passivity` classifies the eigenvalues of the zero matrix
//! `Z = A₄₄ − B₄₄R⁻¹C₄₄` (on a helper thread beside the split once
//! `2n_p ≥ 128` and a core is idle), while `test_positive_real` builds `M`
//! from the proper part the split returns.  `Φ = G_p + G_p~`, so the two
//! are similar: their spectra must match, and `check_passivity` must reach
//! the verdict of the public stages run in sequence, on both sides of the
//! threshold.

use ds_circuits::generators;
use ds_circuits::multiport;
use ds_circuits::random::{
    random_nonpassive_descriptor, random_passive_descriptor, RandomPassiveOptions,
};
use ds_descriptor::DescriptorSystem;
use ds_linalg::decomp::symmetric;
use ds_linalg::{eigen, Complex};
use ds_passivity::error::PassivityError;
use ds_passivity::fast::{check_passivity, FastTestOptions};
use ds_passivity::proper::{self, ProperPart, RegularizedPhi};
use ds_passivity::report::{NonPassivityReason, PassivityVerdict};
use ds_passivity::{reduction, residue};
use ds_shh::pencil::build_phi;
use ds_shh::positive_real::{
    hamiltonian_matrix, test_positive_real, PositiveRealOptions, PositiveRealVerdict,
};
use ds_shh::ShhError;

/// The Hamiltonian dimension from which `check_passivity` overlaps the
/// eigensolve with the split.
const OVERLAP_MIN_DIM: usize = 128;

/// `sections` K-coupled pairs of R–L–C–R sections behind two ports.
fn coupled_pair_deck(sections: usize) -> String {
    let mut deck = String::from("* K-coupled two-port ladders\n");
    let mut ends = ["a0".to_string(), "b0".to_string()];
    for k in 1..=sections {
        let wobble = 1.0 + 0.1 * ((k * 7) % 5) as f64 / 4.0;
        for (side, prefix) in ["a", "b"].into_iter().enumerate() {
            let (x, y) = (format!("{prefix}x{k}"), format!("{prefix}{k}"));
            let end = &ends[side];
            deck.push_str(&format!("R{prefix}s{k} {end} {x} {}\n", 0.5 * wobble));
            deck.push_str(&format!("L{prefix}{k} {x} {y} {}\n", 1.0 / wobble));
            deck.push_str(&format!("C{prefix}{k} {y} 0 {}\n", 0.3 * wobble));
            deck.push_str(&format!("R{prefix}p{k} {y} 0 {}\n", 12.0 / wobble));
            ends[side] = y;
        }
        deck.push_str(&format!(
            "K{k} La{k} Lb{k} {}\n",
            0.35 + 0.1 * (k % 4) as f64
        ));
    }
    deck.push_str(".port a0\n.port b0\n.end\n");
    deck
}

/// A lossy RLGC line of `segments` R–L series and C–G shunt segments
/// between two ports, each behind a series resistor when `terminated`
/// (so `D + Dᵀ ≻ 0` and the Hamiltonian test applies).
fn rlgc_deck(segments: usize, terminated: bool) -> String {
    let mut deck = String::from("* lossy RLGC line\nC0 n0 0 0.5\nG0 n0 0 6.7m\n");
    for k in 1..=segments {
        let wobble = 1.0 + 0.05 * (k % 3) as f64;
        let prev = k - 1;
        deck.push_str(&format!("R{k} n{prev} m{k} {}\n", 0.4 * wobble));
        deck.push_str(&format!("L{k} m{k} n{k} {}\n", 0.7 / wobble));
        deck.push_str(&format!("C{k} n{k} 0 {}\n", wobble));
        deck.push_str(&format!("G{k} n{k} 0 {}\n", 1.3e-2 * wobble));
    }
    if terminated {
        deck.push_str(&format!("RP0 p0 n0 0.2\nRP1 p1 n{segments} 0.3\n"));
        deck.push_str(".port p0\n.port p1\n.end\n");
    } else {
        deck.push_str(&format!(".port n0\n.port n{segments}\n.end\n"));
    }
    deck
}

fn stamped(text: &str) -> DescriptorSystem {
    let deck = ds_netlist::parse_deck(text).unwrap();
    ds_circuits::mna::stamp(&deck.netlist).unwrap()
}

/// The systems both tests run on, named.
fn systems() -> Vec<(String, DescriptorSystem)> {
    let mut out: Vec<(String, DescriptorSystem)> = Vec::new();
    for order in [20, 60, 100, 200] {
        let model = generators::rlc_ladder_with_impulsive(order).unwrap();
        out.push((format!("impulsive ladder o{order}"), model.system));
    }
    out.push((
        "nonpassive ladder o40".into(),
        generators::nonpassive_ladder(40).unwrap().system,
    ));
    for sections in [2, 8, 14] {
        out.push((
            format!("coupled two-port ladders x{sections}"),
            stamped(&coupled_pair_deck(sections)),
        ));
    }
    out.push((
        "coupled inductor mesh 4x4".into(),
        multiport::coupled_inductor_mesh(4, 4, 0.5).unwrap().system,
    ));
    for (segments, terminated) in [(4, false), (18, false), (4, true), (18, true), (48, true)] {
        out.push((
            format!("RLGC line x{segments} terminated={terminated}"),
            stamped(&rlgc_deck(segments, terminated)),
        ));
    }
    out.push((
        "RLGC chain x6".into(),
        multiport::lossy_tline_chain(6).unwrap().system,
    ));
    for (dynamic_states, ports) in [(6, 1), (12, 2), (70, 2)] {
        let options = RandomPassiveOptions {
            dynamic_states,
            ports,
            with_impulsive_part: true,
            ..RandomPassiveOptions::default()
        };
        for seed in 0..3 {
            out.push((
                format!("random passive n{dynamic_states} p{ports} s{seed}"),
                random_passive_descriptor(&options, seed).unwrap(),
            ));
            out.push((
                format!("random nonpassive n{dynamic_states} p{ports} s{seed}"),
                random_nonpassive_descriptor(&options, seed).unwrap(),
            ));
        }
    }
    for (ports, margin, seed) in [(1, 0.5, 2), (1, 0.0, 2), (2, 0.3, 5), (3, 0.0, 7)] {
        let model = multiport::banded_boundary_model(ports, margin, 2.0, seed).unwrap();
        out.push((
            format!("banded boundary p{ports} m{margin} s{seed}"),
            model.system,
        ));
    }
    out
}

/// The regular realization, its stable part and `M`'s verdict.
struct Split {
    regular: RegularizedPhi,
    stable: ProperPart,
    verdict: PositiveRealVerdict,
}

/// Where the public stages, run in sequence, end.
enum Sequence {
    /// Rejected before the positive-real test.
    Rejected(NonPassivityReason),
    /// Split and tested.
    Split(Box<Split>),
}

/// `check_passivity`'s stages through the public API, with the positive-real
/// test on the Hamiltonian matrix of the stable part (no Markov probe).
fn run_stages(sys: &DescriptorSystem) -> Result<Sequence, PassivityError> {
    let options = FastTestOptions::default();
    let tol = options.rel_tol.max(1e-13);
    let phi = build_phi(sys)?;
    let cancelled = reduction::cancel_impulsive_modes(&phi, tol)?;
    let nondynamic = reduction::remove_nondynamic_modes(&cancelled.reduced, tol)?;
    if !nondynamic.impulse_free {
        return Ok(Sequence::Rejected(
            NonPassivityReason::ResidualImpulsiveModes,
        ));
    }
    let m1 = residue::extract_m1(sys, tol)?.m1;
    if cancelled.removed_states > 0 && m1.rows() > 0 {
        let min_eigenvalue = symmetric::min_eigenvalue(&m1.symmetric_part())?;
        if min_eigenvalue < -tol.max(1e-10) * sys.scale() {
            return Ok(Sequence::Rejected(NonPassivityReason::IndefiniteResidue {
                min_eigenvalue,
            }));
        }
    }
    let restored = reduction::restore_shh(&nondynamic.reduced)?;
    let regular = proper::regularize(&restored.system, tol)?;
    let stable = match proper::extract_stable_part(&regular, tol) {
        Ok(stable) => stable,
        Err(PassivityError::Shh(ShhError::ImaginaryAxisEigenvalues)) => {
            return Ok(Sequence::Rejected(NonPassivityReason::UnstableFiniteModes))
        }
        Err(other) => return Err(other),
    };
    let pr_options = PositiveRealOptions {
        assume_stable: true,
        ..options.positive_real
    };
    let verdict = test_positive_real(&stable.state_space, &pr_options)?;
    Ok(Sequence::Split(Box::new(Split {
        regular,
        stable,
        verdict,
    })))
}

/// The largest distance between the eigenvalues of `z` and `m` after
/// pairing each of `z`'s (sorted) with the nearest unpaired one of `m`.
fn spectral_distance(mut z: Vec<Complex>, m: &[Complex]) -> f64 {
    assert_eq!(z.len(), m.len(), "spectra of different sizes");
    z.sort_by(|a, b| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im)));
    let mut free: Vec<Complex> = m.to_vec();
    let mut worst = 0.0_f64;
    for a in z {
        let (at, distance) = free
            .iter()
            .map(|b| (a.re - b.re).hypot(a.im - b.im))
            .enumerate()
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("one eigenvalue left per eigenvalue of z");
        free.swap_remove(at);
        worst = worst.max(distance);
    }
    worst
}

#[test]
fn zero_matrix_and_hamiltonian_share_their_spectrum() {
    let (mut below, mut above) = (0, 0);
    for (name, sys) in systems() {
        let Sequence::Split(split) = run_stages(&sys).unwrap_or_else(|e| panic!("{name}: {e}"))
        else {
            continue;
        };
        let Split {
            regular, stable, ..
        } = *split;
        let ss = &stable.state_space;
        let r = &ss.d + &ss.d.transpose();
        if ss.order() == 0 || symmetric::min_eigenvalue(&r).unwrap() <= 0.0 {
            continue; // no Hamiltonian to compare with
        }
        let m = hamiltonian_matrix(ss).unwrap();
        let z = proper::zero_matrix(&regular).unwrap();
        assert_eq!(z.shape(), m.shape(), "{name}");
        let distance = spectral_distance(
            eigen::eigenvalues(&z).unwrap(),
            &eigen::eigenvalues(&m).unwrap(),
        );
        let bound = 1e-9 * m.norm_fro();
        assert!(
            distance <= bound,
            "{name}: spectra differ by {distance:.3e} > {bound:.3e}"
        );
        if z.rows() >= OVERLAP_MIN_DIM {
            above += 1;
        } else {
            below += 1;
        }
    }
    assert!(
        below >= 10 && above >= 3,
        "{below} Hamiltonians below 2n_p = {OVERLAP_MIN_DIM}, {above} above"
    );
}

#[test]
fn check_passivity_matches_the_public_stages_in_sequence() {
    let (mut below, mut above) = (0, 0);
    for (name, sys) in systems() {
        let report = check_passivity(&sys, &FastTestOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequence = run_stages(&sys).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (regular, verdict) = match sequence {
            Sequence::Rejected(reason) => {
                assert_eq!(
                    report.verdict,
                    PassivityVerdict::NotPassive { reason },
                    "{name}"
                );
                continue;
            }
            Sequence::Split(split) => (split.regular, split.verdict),
        };
        if 2 * regular.half >= OVERLAP_MIN_DIM {
            above += 1;
        } else {
            below += 1;
        }
        match (&report.verdict, verdict) {
            // The Markov probe has no public stage to replay.
            (
                PassivityVerdict::NotPassive {
                    reason: NonPassivityReason::HigherOrderMarkovParameters,
                },
                _,
            ) => {}
            (PassivityVerdict::Passive { .. }, verdict) => {
                assert!(verdict.is_positive_real(), "{name}: {verdict:?}")
            }
            (
                PassivityVerdict::NotPassive {
                    reason:
                        NonPassivityReason::ProperPartNotPositiveReal {
                            witness_frequency,
                            min_eigenvalue,
                        },
                },
                PositiveRealVerdict::NotPositiveReal {
                    witness_frequency: sequence_witness,
                    min_eigenvalue: sequence_min,
                },
            ) => {
                match (witness_frequency, sequence_witness) {
                    (Some(a), Some(b)) => {
                        assert!(
                            (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                            "{name}: {a} vs {b}"
                        )
                    }
                    (a, b) => assert_eq!(*a, b, "{name}"),
                }
                assert!(
                    (min_eigenvalue - sequence_min).abs() <= 1e-6 * sequence_min.abs(),
                    "{name}: {min_eigenvalue} vs {sequence_min}"
                );
            }
            (verdict, sequence) => panic!("{name}: check says {verdict}, stages say {sequence:?}"),
        }
    }
    assert!(
        below >= 10 && above >= 3,
        "{below} checks below 2n_p = {OVERLAP_MIN_DIM}, {above} above"
    );
}
