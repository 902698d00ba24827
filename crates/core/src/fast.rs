//! The proposed fast descriptor-system passivity test (paper Section 3 and
//! Fig. 1).
//!
//! The flow, mirroring the paper's flowchart:
//!
//! 1. form `Φ(s) = G(s) + G~(s)` as an SHH pencil (eq. (10));
//! 2. remove impulse-unobservable and impulse-uncontrollable modes
//!    (eqs. (11)–(17));
//! 3. if the reduced `Φ` is still not impulse-free ⇒ **not passive**;
//! 4. extract `M₁` from the generalized eigenvector chains (eqs. (24)–(25))
//!    and require `M₁ ⪰ 0`; detect Markov parameters of order ≥ 2 ⇒
//!    **not passive**;
//! 5. remove nondynamic modes (eqs. (18)–(19)), restore the SHH structure
//!    (eq. (20));
//! 6. convert to a regular pencil and split off the stable proper part
//!    (eqs. (21)–(23));
//! 7. test positive realness of the proper part (Hamiltonian eigenvalue test).

use crate::error::PassivityError;
use crate::proper;
use crate::reduction;
use crate::report::{NonPassivityReason, PassivityReport, PassivityVerdict, ReductionDiagnostics};
use crate::residue;
use ds_descriptor::{poles, transfer, DescriptorSystem};
use ds_linalg::decomp::symmetric;
use ds_linalg::{Complex, LinalgError, Matrix};
use ds_obs::trace::{self, in_span};
use ds_shh::pencil::build_phi;
use ds_shh::positive_real::{self, HamiltonianSpectrum, PositiveRealOptions, PositiveRealVerdict};
use ds_shh::ShhError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The smallest Hamiltonian dimension `2n_p` whose zeros a helper thread
/// computes while the split runs.  On a 2-vCPU x86-64 host a scoped spawn
/// and join costs ≈40 µs and the helper's cold eigen workspace ≈0.1 ms,
/// against an eigensolve of 5–8 ms at `2n_p = 130` (0.7 ms at 66).
const OVERLAP_MIN_DIM: usize = 128;

/// The cores the process may run on (read once).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Checks and zeros helpers running in this process, whatever thread or
/// caller (daemon worker, sweep worker, API) started them.  `Relaxed`
/// throughout: the count publishes no other data, and a stale read only
/// starts or skips one helper, whose zeros are the same bits either way.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// One check or helper counted in [`IN_FLIGHT`], counted out on drop.
struct InFlight(());

impl InFlight {
    /// Counts a check in.
    fn check() -> InFlight {
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        InFlight(())
    }

    /// Counts a helper in if a core is idle, that is, if fewer checks and
    /// helpers are in flight than the process has cores.
    fn helper() -> Option<InFlight> {
        IN_FLIGHT
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cores()).then_some(n + 1)
            })
            .ok()
            .map(|_| InFlight(()))
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The zeros of `Φ`, as the positive-real stage receives them.
enum Zeros {
    /// Computed on a helper thread beside the split.
    Computed(Result<HamiltonianSpectrum, ShhError>),
    /// The zero matrix, solved only if the Hamiltonian test needs it.
    Deferred(Result<Matrix, LinalgError>),
}

/// The zeros of `Φ` and when their computation started and how long it
/// took, for a span recorded on the thread that waits for them.
fn timed_zeros(
    regular: &proper::RegularizedPhi,
) -> (Result<HamiltonianSpectrum, ShhError>, Instant, Duration) {
    let started = Instant::now();
    let spectrum = proper::zero_matrix(regular)
        .map_err(ShhError::from)
        .and_then(|z| HamiltonianSpectrum::of(&z));
    (spectrum, started, started.elapsed())
}

/// Options for the fast passivity test.
#[derive(Debug, Clone)]
pub struct FastTestOptions {
    /// Relative tolerance for rank decisions and definiteness checks.
    pub rel_tol: f64,
    /// Verify regularity of the pencil `(E, A)` before starting.
    pub check_regularity: bool,
    /// Verify that the finite dynamic modes are stable before starting.
    /// The paper *assumes* stability ("as in the modeling of passive
    /// circuits"); disabling this check reproduces the paper's cost profile
    /// exactly, enabling it adds one Weierstrass-style eigenvalue computation.
    pub check_stability: bool,
    /// Options forwarded to the final positive-realness test.
    pub positive_real: PositiveRealOptions,
    /// Real probe points used by the polynomial-anomaly (Markov ≥ 2) check.
    pub markov_probes: (f64, f64),
}

impl Default for FastTestOptions {
    fn default() -> Self {
        FastTestOptions {
            rel_tol: 1e-9,
            check_regularity: false,
            check_stability: false,
            positive_real: PositiveRealOptions::default(),
            markov_probes: (1.0e4, 3.0e4),
        }
    }
}

impl FastTestOptions {
    /// A stricter configuration that additionally verifies regularity and
    /// stability of the input (at extra O(n³) cost).
    pub fn with_precondition_checks() -> Self {
        FastTestOptions {
            check_regularity: true,
            check_stability: true,
            ..FastTestOptions::default()
        }
    }
}

/// Runs the proposed SHH-based passivity test on a descriptor system.
///
/// Each stage runs under its own [`ds_obs`] span, named as in
/// [`ds_obs::STAGES`], so a traced caller sees where the time went and the
/// stages add up to the whole run.  The eigensolve behind the positive-real
/// test shows as a `zeros` span: under `split` when a helper thread ran it
/// beside the split, otherwise under `pr_test`.  The helper starts when
/// `2n_p ≥ 128` and a core is idle: fewer checks and helpers are in flight
/// in the process than it has cores, so a busy daemon or sweep adds no
/// thread.  Either way the zeros are the same bits.  A panic on the helper
/// resumes on the calling thread.
///
/// # Errors
///
/// Structural failures only (non-square systems, singular pencils, numerical
/// breakdowns); "not passive" is reported through the verdict.
pub fn check_passivity(
    sys: &DescriptorSystem,
    options: &FastTestOptions,
) -> Result<PassivityReport, PassivityError> {
    if !sys.is_square_system() {
        return Err(PassivityError::NotSquareSystem {
            inputs: sys.num_inputs(),
            outputs: sys.num_outputs(),
        });
    }
    let _in_flight = InFlight::check();
    let tol = options.rel_tol.max(1e-13);
    let scale = sys.scale();
    let mut diagnostics = ReductionDiagnostics::default();
    let rejected = |reason, m1: Option<Matrix>, diagnostics: ReductionDiagnostics| {
        let mut report = PassivityReport::new("shh-fast", PassivityVerdict::NotPassive { reason });
        report.m1 = m1;
        report.diagnostics = diagnostics;
        Ok(report)
    };

    if options.check_regularity && !sys.is_regular(tol)? {
        return Err(PassivityError::SingularPencil);
    }
    if options.check_stability && sys.order() > 0 && !poles::is_stable(sys, 0.0)? {
        return rejected(NonPassivityReason::UnstableFiniteModes, None, diagnostics);
    }

    // Stage 0: Φ(s) = G(s) + G~(s) as an SHH pencil.
    let phi = in_span("build_phi", || build_phi(sys)).map_err(PassivityError::Shh)?;
    diagnostics.phi_order = phi.system.order();

    // Stage 1: cancel impulse-unobservable / uncontrollable modes.  Each
    // stage from here on frees the intermediate it consumes inside its own
    // span, so the return path frees nothing the stage spans miss.
    let cancelled = in_span("impulse", || {
        let cancelled = reduction::cancel_impulsive_modes(&phi, tol);
        drop(phi);
        cancelled
    })?;
    diagnostics.unobservable_impulsive_directions = cancelled.unobservable_directions;
    diagnostics.removed_impulse_states = cancelled.removed_states;

    // Stage 1b: remove the nondynamic modes of Φ₁.  A singular A₂₂ block here
    // means Φ₁ is not impulse-free: the original system retained observable and
    // controllable impulsive modes and cannot be passive.
    let nondynamic = in_span("nondynamic", || {
        let nondynamic = reduction::remove_nondynamic_modes(&cancelled.reduced, tol);
        drop(cancelled);
        nondynamic
    })?;
    if !nondynamic.impulse_free {
        return rejected(
            NonPassivityReason::ResidualImpulsiveModes,
            None,
            diagnostics,
        );
    }

    // Stage 2: residue extraction and definiteness check.
    let (m1, m1_sym, min_eig) = in_span("residue", || -> Result<_, PassivityError> {
        let m1 = residue::extract_m1(sys, tol)?.m1;
        let m1_sym = if m1.rows() > 0 {
            m1.symmetric_part()
        } else {
            m1.clone()
        };
        let min_eig = if diagnostics.removed_impulse_states > 0 && m1_sym.rows() > 0 {
            Some(symmetric::min_eigenvalue(&m1_sym)?)
        } else {
            None
        };
        Ok((m1, m1_sym, min_eig))
    })?;
    if let Some(min_eigenvalue) = min_eig.filter(|&e| e < -tol.max(1e-10) * scale) {
        return rejected(
            NonPassivityReason::IndefiniteResidue { min_eigenvalue },
            Some(m1),
            diagnostics,
        );
    }

    // Stage 3: restore the SHH structure of the proper Φ-pencil.
    let removed_nondynamic_states = nondynamic.removed_states;
    let restored = in_span("restore", || {
        let restored = reduction::restore_shh(&nondynamic.reduced);
        drop(nondynamic);
        restored
    })?;
    diagnostics.removed_nondynamic_states = removed_nondynamic_states;
    diagnostics.proper_phi_order = restored.system.order();

    // Bookkeeping of the paper's Section 3.4: among the states removed by the
    // impulse cancellation, the grade-2 tops (impulsive modes) must be matched
    // one-for-one by their grade-1 partners; otherwise Markov parameters of
    // order ≥ 2 are present.
    let rank_e = in_span("rank_e", || sys.rank_e(tol))?;
    let nondynamic_total_phi = 2 * (sys.order() - rank_e);
    let nondynamic_with_impulsive = nondynamic_total_phi.saturating_sub(removed_nondynamic_states);
    diagnostics.nondynamic_removed_with_impulsive = nondynamic_with_impulsive;
    let impulsive_removed = diagnostics
        .removed_impulse_states
        .saturating_sub(nondynamic_with_impulsive);
    diagnostics.markov_bookkeeping_consistent = impulsive_removed == nondynamic_with_impulsive;

    // Stage 4: regularize (eq. (21)) and split off the stable proper part
    // (eqs. (22)–(23)).  The zeros of Φ, which stage 5 classifies, are the
    // eigenvalues of the zero matrix of eq. (21)'s realization and do not
    // depend on the split: on a big enough pencil a helper thread computes
    // them while the split runs; otherwise stage 5 computes them if it needs
    // them.  Either way the zero matrix is formed before the split frees the
    // realization.  (A helper that finds no idle core, or cannot be spawned,
    // leaves the work to stage 5.)
    let regular = in_span("regularize", || {
        let regular = proper::regularize(&restored.system, tol);
        drop(restored);
        regular
    })?;
    let slot = if 2 * regular.half >= OVERLAP_MIN_DIM {
        InFlight::helper()
    } else {
        None
    };
    let split = in_span("split", || {
        let split = std::thread::scope(|scope| {
            let helper = slot.and_then(|slot| {
                std::thread::Builder::new()
                    .name("ds-zeros".to_string())
                    .spawn_scoped(scope, || {
                        let zeros = timed_zeros(&regular);
                        drop(slot);
                        zeros
                    })
                    .ok()
            });
            let stable = proper::extract_stable_part(&regular, tol);
            let zeros = match helper {
                Some(helper) => {
                    let (spectrum, started, elapsed) = helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    trace::record("zeros", started, elapsed);
                    Zeros::Computed(spectrum)
                }
                None => Zeros::Deferred(proper::zero_matrix(&regular)),
            };
            stable.map(|stable| (stable, zeros))
        });
        drop(regular);
        split
    });
    let (stable, zeros) = match split {
        Ok(p) => p,
        Err(PassivityError::Shh(ShhError::ImaginaryAxisEigenvalues)) => {
            // Finite poles of Φ on the imaginary axis violate the paper's
            // standing stability assumption.
            return rejected(
                NonPassivityReason::UnstableFiniteModes,
                Some(m1),
                diagnostics,
            );
        }
        Err(other) => return Err(other),
    };

    // Stage 5: positive realness of the proper part. Its A is the restriction
    // of the Hamiltonian to its stable invariant subspace — Hurwitz by
    // construction — so the tester's stability pre-check (an n × n eigensolve)
    // is skipped.
    let pr_options = positive_real::PositiveRealOptions {
        assume_stable: true,
        ..options.positive_real.clone()
    };
    let pr_verdict = in_span("pr_test", || {
        positive_real::test_positive_real_with(&stable.state_space, &pr_options, || match zeros {
            Zeros::Computed(spectrum) => spectrum,
            Zeros::Deferred(z) => in_span("zeros", || HamiltonianSpectrum::of(&z?)),
        })
    })
    .map_err(PassivityError::Shh)?;

    // Stage 6: polynomial-anomaly check — Markov parameters of order ≥ 2 (or a
    // skew-symmetric M₁) cancel inside Φ and are invisible to the stages above,
    // but they rule out passivity; detect them by comparing G against
    // G_p + s·M₁ at two large real frequencies.
    let anomaly = in_span("markov", || {
        polynomial_anomaly(sys, &stable.state_space, &m1_sym, options)
    })?;

    let verdict = if anomaly {
        PassivityVerdict::NotPassive {
            reason: NonPassivityReason::HigherOrderMarkovParameters,
        }
    } else {
        match pr_verdict {
            PositiveRealVerdict::StrictlyPositiveReal => PassivityVerdict::Passive {
                strictly: m1_sym.norm_max() <= tol * scale,
            },
            PositiveRealVerdict::PositiveReal { .. } => {
                PassivityVerdict::Passive { strictly: false }
            }
            PositiveRealVerdict::NotPositiveReal {
                witness_frequency,
                min_eigenvalue,
            } => PassivityVerdict::NotPassive {
                reason: NonPassivityReason::ProperPartNotPositiveReal {
                    witness_frequency,
                    min_eigenvalue,
                },
            },
        }
    };

    let mut report = PassivityReport::new("shh-fast", verdict);
    report.m1 = Some(m1);
    report.proper_part = Some(stable.state_space);
    report.diagnostics = diagnostics;
    Ok(report)
}

/// Detects polynomial behaviour of `G(s)` beyond `s·M₁` by sampling on the
/// positive real axis.  Returns `true` when an anomaly (⇒ non-passivity) is
/// found.
fn polynomial_anomaly(
    sys: &DescriptorSystem,
    proper_part: &ds_descriptor::StateSpace,
    m1_sym: &Matrix,
    options: &FastTestOptions,
) -> Result<bool, PassivityError> {
    if sys.order() == 0 {
        return Ok(false);
    }
    let (s1, s2) = options.markov_probes;
    let proper_ds = proper_part.to_descriptor();
    let mut skew_samples: Vec<Matrix> = Vec::new();
    for &sigma in &[s1, s2] {
        let g = match transfer::evaluate(sys, Complex::from_real(sigma)) {
            Ok(v) => v,
            Err(ds_descriptor::DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(PassivityError::Descriptor(e)),
        };
        let gp = transfer::evaluate(&proper_ds, Complex::from_real(sigma))
            .map_err(PassivityError::Descriptor)?;
        // Symmetric part must match G_p + σ M₁ (the skew-symmetric constant
        // part of the proper representative is not identifiable from Φ).
        let sym_g = g.re.symmetric_part();
        let sym_model = &gp.re.symmetric_part() + &m1_sym.scale(sigma);
        let reference = sym_g.norm_max().max(1.0);
        if (&sym_g - &sym_model).norm_max() > 1e-5 * reference {
            return Ok(true);
        }
        skew_samples.push(g.re.skew_part());
    }
    // For a passive system the skew-symmetric part of G on the real axis
    // converges to the constant skew(M₀); growth between the two probes
    // indicates skew polynomial terms (e.g. a skew M₂).
    if skew_samples.len() == 2 {
        let drift = (&skew_samples[1] - &skew_samples[0]).norm_max();
        let reference = skew_samples[0].norm_max().max(1.0);
        if drift > 1e-4 * reference.max(m1_sym.norm_max()) {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_circuits::generators;
    use ds_circuits::random::{
        random_nonpassive_descriptor, random_passive_descriptor, RandomPassiveOptions,
    };

    fn opts() -> FastTestOptions {
        FastTestOptions::default()
    }

    fn series_rl(r: f64, l: f64) -> DescriptorSystem {
        let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[-l, 0.0]]);
        DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, r)).unwrap()
    }

    #[test]
    fn passive_rl_impedance_is_passive_with_m1() {
        let report = check_passivity(&series_rl(2.0, 3.0), &opts()).unwrap();
        assert!(report.verdict.is_passive(), "verdict: {}", report.verdict);
        let m1 = report.m1.unwrap();
        assert!((m1[(0, 0)] - 3.0).abs() < 1e-8);
        assert_eq!(report.diagnostics.removed_impulse_states, 2);
    }

    #[test]
    fn negative_inductance_rejected_through_m1() {
        let report = check_passivity(&series_rl(2.0, -3.0), &opts()).unwrap();
        match report.verdict {
            PassivityVerdict::NotPassive {
                reason: NonPassivityReason::IndefiniteResidue { min_eigenvalue },
            } => assert!(min_eigenvalue < 0.0),
            other => panic!("expected IndefiniteResidue, got {other}"),
        }
    }

    #[test]
    fn passive_rc_ladder_is_passive() {
        let model = generators::rc_ladder(5, 1.0, 1.0).unwrap();
        let report = check_passivity(&model.system, &opts()).unwrap();
        assert!(report.verdict.is_passive(), "verdict: {}", report.verdict);
        // Proper system: M1 = 0 and nothing removed in stage 1.
        assert!(report.m1.unwrap().norm_max() < 1e-9);
        assert_eq!(report.diagnostics.removed_impulse_states, 0);
    }

    #[test]
    fn impulsive_rlc_ladder_is_passive() {
        let model = generators::rlc_ladder_with_impulsive(10).unwrap();
        let report = check_passivity(&model.system, &opts()).unwrap();
        assert!(report.verdict.is_passive(), "verdict: {}", report.verdict);
        let m1 = report.m1.unwrap();
        assert!(m1[(0, 0)] > 0.5, "expected the port inductance in M1");
        assert!(report.diagnostics.removed_impulse_states > 0);
        assert!(report.proper_part.is_some());
    }

    #[test]
    fn nonpassive_ladder_detected() {
        let model = generators::nonpassive_ladder(8).unwrap();
        let report = check_passivity(&model.system, &opts()).unwrap();
        assert!(!report.verdict.is_passive(), "verdict: {}", report.verdict);
    }

    #[test]
    fn negative_m1_model_detected() {
        let model = generators::negative_m1_model(8).unwrap();
        let report = check_passivity(&model.system, &opts()).unwrap();
        assert!(!report.verdict.is_passive());
    }

    #[test]
    fn rc_grid_two_port_is_passive() {
        let model = generators::rc_grid(3, 3).unwrap();
        let report = check_passivity(&model.system, &opts()).unwrap();
        assert!(report.verdict.is_passive(), "verdict: {}", report.verdict);
    }

    #[test]
    fn random_passive_descriptors_pass() {
        for seed in 0..4 {
            let sys = random_passive_descriptor(
                &RandomPassiveOptions {
                    with_impulsive_part: seed % 2 == 0,
                    ..RandomPassiveOptions::default()
                },
                seed,
            )
            .unwrap();
            let report = check_passivity(&sys, &opts()).unwrap();
            assert!(
                report.verdict.is_passive(),
                "seed {seed}: {}",
                report.verdict
            );
        }
    }

    #[test]
    fn random_nonpassive_descriptors_fail() {
        let mut detected = 0;
        for seed in 0..4 {
            let sys = random_nonpassive_descriptor(&RandomPassiveOptions::default(), seed).unwrap();
            let report = check_passivity(&sys, &opts()).unwrap();
            if !report.verdict.is_passive() {
                detected += 1;
            }
        }
        assert!(
            detected >= 3,
            "only {detected}/4 non-passive systems detected"
        );
    }

    #[test]
    fn higher_order_markov_detected() {
        // G(s) = s² L (two chained integrators at infinity): not passive.
        // Realization: E = [[0,1,0],[0,0,1],[0,0,0]], A = I, B = e3, C = [l,0,0].
        let e = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]);
        let a = Matrix::identity(3);
        let b = Matrix::column(&[0.0, 0.0, 1.0]);
        let c = Matrix::row_vector(&[-2.0, 0.0, 0.0]);
        let sys = DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, 1.0)).unwrap();
        // Sanity: G(σ) grows quadratically.
        let g1 = transfer::evaluate(&sys, Complex::from_real(10.0)).unwrap();
        let g2 = transfer::evaluate(&sys, Complex::from_real(20.0)).unwrap();
        assert!(g2.re[(0, 0)] / g1.re[(0, 0)] > 3.5);
        let report = check_passivity(&sys, &opts()).unwrap();
        assert!(!report.verdict.is_passive());
    }

    #[test]
    fn unstable_system_rejected_when_checked() {
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[1.0, 0.0]]);
        let sys = DescriptorSystem::new(e, a, b, c, Matrix::filled(1, 1, 1.0)).unwrap();
        let report = check_passivity(&sys, &FastTestOptions::with_precondition_checks()).unwrap();
        assert_eq!(
            report.verdict,
            PassivityVerdict::NotPassive {
                reason: NonPassivityReason::UnstableFiniteModes
            }
        );
    }

    #[test]
    fn non_square_system_is_an_error() {
        let sys = DescriptorSystem::new(
            Matrix::identity(1),
            Matrix::filled(1, 1, -1.0),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::filled(1, 1, 1.0),
            Matrix::from_rows(&[&[0.0, 0.0]]),
        )
        .unwrap();
        assert!(matches!(
            check_passivity(&sys, &opts()),
            Err(PassivityError::NotSquareSystem { .. })
        ));
    }

    #[test]
    fn zeros_run_inline_when_every_core_is_busy() {
        // Holders count themselves in as checks, so with this test's own
        // check the count reaches the core total and no core is idle.
        let holders = cores() - 1;
        let counted = std::sync::Barrier::new(holders + 1);
        let (release, released) = std::sync::mpsc::channel::<()>();
        let released = std::sync::Mutex::new(released);
        let model = generators::rlc_ladder_with_impulsive(100).unwrap();
        let (report, trace) = std::thread::scope(|scope| {
            for _ in 0..holders {
                scope.spawn(|| {
                    let _held = InFlight::check();
                    counted.wait();
                    // Returns once `release` is dropped, on a panic too.
                    let _ = released.lock().unwrap().recv();
                });
            }
            counted.wait();
            trace::begin("busy");
            let report = check_passivity(&model.system, &opts());
            let trace = trace::end().unwrap();
            drop(release);
            (report, trace)
        });
        assert!(report.unwrap().verdict.is_passive());
        let span = |name: &str| trace.spans.iter().find(|s| s.name == name).unwrap();
        let zeros: Vec<_> = trace.spans.iter().filter(|s| s.name == "zeros").collect();
        assert_eq!(zeros.len(), 1, "one eigensolve");
        assert_eq!(zeros[0].parent, Some(span("pr_test").seq));
    }

    #[test]
    fn report_contains_the_proper_part() {
        let model = generators::rlc_ladder(3, 1.0, 0.2, 1.0).unwrap();
        let report = check_passivity(&model.system, &opts()).unwrap();
        assert!(report.verdict.is_passive());
        let proper = report.proper_part.unwrap();
        assert!(proper.is_stable(1e-10).unwrap());
    }
}
