//! Positive-realness tests for proper (regular state-space) systems.
//!
//! The paper's final step tests the extracted proper part with "standard
//! techniques (e.g. [9, 10])": the Hamiltonian-matrix eigenvalue test.  For a
//! stable `G(s) = D + C (sI − A)⁻¹ B` with `R = D + Dᵀ ≻ 0`, the Popov function
//! `Φ(jω) = G(jω) + G(jω)ᴴ` is singular at `ω` exactly when `jω` is an
//! eigenvalue of the Hamiltonian matrix
//!
//! ```text
//! M = [ A − B R⁻¹ C        −B R⁻¹ Bᵀ      ]
//!     [ Cᵀ R⁻¹ C         −(A − B R⁻¹ C)ᵀ ]
//! ```
//!
//! so strict positive realness ⇔ no purely imaginary eigenvalues of `M`.
//! Imaginary-axis eigenvalues are classified by sampling the Popov function in
//! the frequency intervals they delimit (touching ⇒ still positive real,
//! crossing ⇒ not).
//!
//! `M` is the zero matrix of the realization of `G + G~`, so any realization
//! of the same Popov function gives its eigenvalues from a similar matrix:
//! [`test_positive_real_with`] classifies a spectrum its caller supplies
//! (the passivity flow computes it from `Φ`'s regular realization before the
//! proper part exists), and [`test_positive_real`] feeds it `M`'s.

use crate::error::ShhError;
use crate::structure;
use ds_descriptor::system::StateSpace;
use ds_descriptor::transfer;
use ds_linalg::decomp::{lu, symmetric};
use ds_linalg::{eigen, Complex, Matrix};

/// Outcome of a positive-realness test.
#[derive(Debug, Clone, PartialEq)]
pub enum PositiveRealVerdict {
    /// The transfer function is positive real with margin: `Φ(jω) ≻ 0` for all
    /// finite `ω` (no imaginary-axis Hamiltonian eigenvalues).
    StrictlyPositiveReal,
    /// The transfer function is positive real, but `Φ(jω)` touches singularity
    /// at the listed frequencies (non-strict case).
    PositiveReal {
        /// Frequencies (rad/s) where the Popov function is singular.
        boundary_frequencies: Vec<f64>,
    },
    /// The transfer function is not positive real; a witness frequency where
    /// `Φ(jω)` has a negative eigenvalue is provided when available.
    NotPositiveReal {
        /// Frequency (rad/s) at which the Popov function has a negative
        /// eigenvalue; `None` when the violation is at `ω = ∞` (from `D + Dᵀ`).
        witness_frequency: Option<f64>,
        /// The offending (most negative) eigenvalue found.
        min_eigenvalue: f64,
    },
}

impl PositiveRealVerdict {
    /// `true` for both the strict and non-strict positive-real outcomes.
    pub fn is_positive_real(&self) -> bool {
        !matches!(self, PositiveRealVerdict::NotPositiveReal { .. })
    }
}

/// Options for the positive-realness tests.
#[derive(Debug, Clone)]
pub struct PositiveRealOptions {
    /// Relative tolerance for eigenvalue / definiteness decisions.
    pub tolerance: f64,
    /// Frequencies used by the sampling fallback (rad/s); also used to refine
    /// boundary cases of the Hamiltonian test.
    pub sampling_frequencies: Vec<f64>,
    /// Skip the stability pre-check (an `n × n` eigensolve). Set by callers
    /// whose system is Hurwitz by construction — e.g. the passivity flow,
    /// where the proper part comes out of the stable invariant subspace of
    /// the Hamiltonian split. Defaults to `false`.
    pub assume_stable: bool,
}

impl Default for PositiveRealOptions {
    fn default() -> Self {
        let mut freqs = vec![0.0];
        let mut w = 1e-4;
        while w <= 1e6 {
            freqs.push(w);
            w *= 10.0_f64.sqrt();
        }
        PositiveRealOptions {
            tolerance: 1e-8,
            sampling_frequencies: freqs,
            assume_stable: false,
        }
    }
}

/// The eigenvalues the Hamiltonian test classifies, with the Frobenius norm
/// of the matrix they were computed from (it scales the imaginary-axis
/// tolerance).
#[derive(Debug, Clone)]
pub struct HamiltonianSpectrum {
    /// The eigenvalues, in any order.
    pub eigenvalues: Vec<Complex>,
    /// `‖·‖_F` of the matrix that was solved.
    pub norm_fro: f64,
}

impl HamiltonianSpectrum {
    /// The eigenvalues of `m`, with its Frobenius norm.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn of(m: &Matrix) -> Result<Self, ShhError> {
        Ok(HamiltonianSpectrum {
            eigenvalues: eigen::eigenvalues(m)?,
            norm_fro: m.norm_fro(),
        })
    }
}

/// The Hamiltonian matrix `M` of the module documentation, with
/// `R = D + Dᵀ`.
///
/// # Errors
///
/// [`ShhError::Numerical`] when `R` is singular; dimension mismatches.
pub fn hamiltonian_matrix(ss: &StateSpace) -> Result<Matrix, ShhError> {
    let r = &ss.d + &ss.d.transpose();
    let r_inv = lu::inverse(&r)?;
    let br = ss.b.matmul(&r_inv)?;
    let a_tilde = &ss.a - &br.matmul(&ss.c)?;
    let g = br.matmul(&ss.b.transpose())?.scale(-1.0);
    let q = ss.c.transpose_matmul(&r_inv.matmul(&ss.c)?)?;
    structure::hamiltonian_from_blocks(&a_tilde, &g, &q)
}

/// Tests positive realness of a proper state-space system using the
/// Hamiltonian-eigenvalue test, falling back to frequency sampling when
/// `D + Dᵀ` is singular.
///
/// The system is assumed stable (all poles in the open left half-plane), which
/// is guaranteed by the callers in the passivity flow; unstable systems are
/// reported as not positive real.
///
/// # Errors
///
/// Returns [`ShhError::NotSquareSystem`] for non-square systems and propagates
/// numerical failures.
pub fn test_positive_real(
    ss: &StateSpace,
    options: &PositiveRealOptions,
) -> Result<PositiveRealVerdict, ShhError> {
    test_positive_real_with(ss, options, || {
        HamiltonianSpectrum::of(&hamiltonian_matrix(ss)?)
    })
}

/// [`test_positive_real`] with the Hamiltonian eigenvalues taken from
/// `spectrum`, which must return the eigenvalues of a matrix similar to
/// [`hamiltonian_matrix`]`(ss)`.  It is called only when the test reaches
/// the Hamiltonian path (`D + Dᵀ` numerically positive definite), so its
/// errors surface only there.
///
/// # Errors
///
/// Same as [`test_positive_real`], plus whatever `spectrum` returns.
pub fn test_positive_real_with(
    ss: &StateSpace,
    options: &PositiveRealOptions,
    spectrum: impl FnOnce() -> Result<HamiltonianSpectrum, ShhError>,
) -> Result<PositiveRealVerdict, ShhError> {
    if ss.num_inputs() != ss.num_outputs() {
        return Err(ShhError::NotSquareSystem {
            inputs: ss.num_inputs(),
            outputs: ss.num_outputs(),
        });
    }
    let tol = options.tolerance;
    // Stability prerequisite (condition 1 of positive realness for proper parts).
    if !options.assume_stable
        && ss.order() > 0
        && !ss.is_stable(0.0).map_err(ShhError::Descriptor)?
    {
        // A pole in the closed right half-plane rules out positive realness.
        return Ok(PositiveRealVerdict::NotPositiveReal {
            witness_frequency: None,
            min_eigenvalue: f64::NEG_INFINITY,
        });
    }

    let r = &ss.d + &ss.d.transpose();
    let m = r.rows();
    // Check the behaviour at ω = ∞ first: Φ(∞) = D + Dᵀ must be PSD.
    let r_min = if m > 0 {
        symmetric::min_eigenvalue(&r)?
    } else {
        0.0
    };
    let scale = ss.a.norm_fro().max(r.norm_fro()).max(1.0);
    if r_min < -tol * scale {
        return Ok(PositiveRealVerdict::NotPositiveReal {
            witness_frequency: None,
            min_eigenvalue: r_min,
        });
    }
    if ss.order() == 0 {
        // Pure feedthrough.
        return Ok(if r_min > tol * scale {
            PositiveRealVerdict::StrictlyPositiveReal
        } else {
            PositiveRealVerdict::PositiveReal {
                boundary_frequencies: vec![],
            }
        });
    }

    // If R is (numerically) singular the Hamiltonian matrix cannot be formed;
    // fall back to dense frequency sampling.
    if r_min <= tol * scale {
        return sampling_test(ss, options);
    }

    // Hamiltonian-eigenvalue test.
    let spectrum = spectrum()?;
    let axis_tol = tol.max(1e-10) * spectrum.norm_fro.max(1.0);
    let mut boundary: Vec<f64> = spectrum
        .eigenvalues
        .iter()
        .filter(|z| z.re.abs() <= axis_tol)
        .map(|z| z.im.abs())
        .collect();
    boundary.sort_by(f64::total_cmp);
    boundary.dedup_by(|a, b| (*a - *b).abs() <= 1e-6 * (1.0 + b.abs()));

    if boundary.is_empty() {
        return Ok(PositiveRealVerdict::StrictlyPositiveReal);
    }

    // Imaginary-axis eigenvalues exist: classify by sampling the Popov function
    // between (and beyond) the candidate frequencies.
    let mut probes: Vec<f64> = Vec::new();
    probes.push(0.0);
    for window in boundary.windows(2) {
        probes.push(0.5 * (window[0] + window[1]));
    }
    if let (Some(&first), Some(&last)) = (boundary.first(), boundary.last()) {
        probes.push(0.5 * first);
        probes.push(2.0 * last + 1.0);
    }
    probes.extend_from_slice(&options.sampling_frequencies);
    let verdict = evaluate_popov_over(ss, &probes, tol)?;
    Ok(match verdict {
        PopovSweep::AllNonNegative => PositiveRealVerdict::PositiveReal {
            boundary_frequencies: boundary,
        },
        PopovSweep::Negative { frequency, value } => PositiveRealVerdict::NotPositiveReal {
            witness_frequency: Some(frequency),
            min_eigenvalue: value,
        },
    })
}

/// Pure sampling test: checks `Φ(jω) ⪰ 0` on the option's frequency grid.
/// Less rigorous than the Hamiltonian test (it can miss narrow violations) but
/// applicable when `D + Dᵀ` is singular.
///
/// # Errors
///
/// Propagates transfer-function evaluation failures.
pub fn sampling_test(
    ss: &StateSpace,
    options: &PositiveRealOptions,
) -> Result<PositiveRealVerdict, ShhError> {
    match evaluate_popov_over(ss, &options.sampling_frequencies, options.tolerance)? {
        PopovSweep::AllNonNegative => Ok(PositiveRealVerdict::PositiveReal {
            boundary_frequencies: vec![],
        }),
        PopovSweep::Negative { frequency, value } => Ok(PositiveRealVerdict::NotPositiveReal {
            witness_frequency: Some(frequency),
            min_eigenvalue: value,
        }),
    }
}

enum PopovSweep {
    AllNonNegative,
    Negative { frequency: f64, value: f64 },
}

fn evaluate_popov_over(
    ss: &StateSpace,
    frequencies: &[f64],
    tol: f64,
) -> Result<PopovSweep, ShhError> {
    let ds = ss.to_descriptor();
    let scale = ss.a.norm_fro().max(ss.d.norm_fro()).max(1.0);
    let mut worst_freq = 0.0;
    let mut worst_val = f64::INFINITY;
    for &w in frequencies {
        let value = match transfer::evaluate_jomega(&ds, w) {
            Ok(v) => v,
            // A pole exactly on the probe frequency: skip the sample.
            Err(ds_descriptor::DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(ShhError::Descriptor(e)),
        };
        let min_eig = value.popov_min_eigenvalue().map_err(ShhError::Descriptor)?;
        if min_eig < worst_val {
            worst_val = min_eig;
            worst_freq = w;
        }
    }
    if worst_val < -tol * scale {
        Ok(PopovSweep::Negative {
            frequency: worst_freq,
            value: worst_val,
        })
    } else {
        Ok(PopovSweep::AllNonNegative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> PositiveRealOptions {
        PositiveRealOptions::default()
    }

    /// G(s) = (s + 2) / (s + 1): strictly positive real.
    fn spr_system() -> StateSpace {
        StateSpace::new(
            Matrix::filled(1, 1, -1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
        )
        .unwrap()
    }

    /// G(s) = 1 / (s + 1): positive real but D + Dᵀ = 0 (boundary at ω = ∞).
    fn pr_no_feedthrough() -> StateSpace {
        StateSpace::new(
            Matrix::filled(1, 1, -1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::zeros(1, 1),
        )
        .unwrap()
    }

    /// G(s) = (s − 1)/(s + 1) + 1.01: Re G(jω) dips negative near ω = 0... build
    /// a genuinely non-PR example: G(s) = 1/(s+1) − 0.6 has Re G(j0) = 0.4 > 0
    /// but Re G(∞) = −0.6 < 0.
    fn not_pr_system() -> StateSpace {
        StateSpace::new(
            Matrix::filled(1, 1, -1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, -0.6),
        )
        .unwrap()
    }

    /// Non-PR with positive feedthrough: G(s) = 0.1 + 1·(s−5)/(s²+s+1)-ish.
    /// Use G(s) = 0.1 + C(sI−A)⁻¹B with a zero that pushes Re G negative at
    /// moderate frequencies.
    fn not_pr_interior() -> StateSpace {
        // G(s) = 0.1 + (−s + 1)/(s² + 0.6 s + 1).
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, -0.6]]);
        let b = Matrix::column(&[0.0, 1.0]);
        let c = Matrix::row_vector(&[1.0, -1.0]);
        let d = Matrix::filled(1, 1, 0.1);
        StateSpace::new(a, b, c, d).unwrap()
    }

    #[test]
    fn strictly_positive_real_detected() {
        let verdict = test_positive_real(&spr_system(), &opts()).unwrap();
        assert_eq!(verdict, PositiveRealVerdict::StrictlyPositiveReal);
        assert!(verdict.is_positive_real());
    }

    #[test]
    fn positive_real_without_feedthrough_uses_sampling() {
        let verdict = test_positive_real(&pr_no_feedthrough(), &opts()).unwrap();
        assert!(verdict.is_positive_real());
    }

    #[test]
    fn negative_feedthrough_rejected_at_infinity() {
        let verdict = test_positive_real(&not_pr_system(), &opts()).unwrap();
        match verdict {
            PositiveRealVerdict::NotPositiveReal {
                witness_frequency,
                min_eigenvalue,
            } => {
                assert!(witness_frequency.is_none());
                assert!(min_eigenvalue < 0.0);
            }
            other => panic!("expected NotPositiveReal, got {other:?}"),
        }
    }

    #[test]
    fn interior_violation_detected_with_witness() {
        let ss = not_pr_interior();
        // Sanity: Re G at ω = 1 is negative.
        let g = transfer::evaluate_jomega(&ss.to_descriptor(), 1.0).unwrap();
        assert!(g.re[(0, 0)] < 0.0);
        let verdict = test_positive_real(&ss, &opts()).unwrap();
        match verdict {
            PositiveRealVerdict::NotPositiveReal {
                witness_frequency,
                min_eigenvalue,
            } => {
                assert!(min_eigenvalue < 0.0);
                assert!(witness_frequency.is_some());
            }
            other => panic!("expected NotPositiveReal, got {other:?}"),
        }
    }

    #[test]
    fn unstable_system_is_not_positive_real() {
        let ss = StateSpace::new(
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
            Matrix::filled(1, 1, 1.0),
        )
        .unwrap();
        assert!(!test_positive_real(&ss, &opts()).unwrap().is_positive_real());
    }

    #[test]
    fn pure_feedthrough_cases() {
        let static_pr = StateSpace::new(
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 1),
            Matrix::zeros(1, 0),
            Matrix::filled(1, 1, 2.0),
        )
        .unwrap();
        assert_eq!(
            test_positive_real(&static_pr, &opts()).unwrap(),
            PositiveRealVerdict::StrictlyPositiveReal
        );
        let static_npr = StateSpace::new(
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 1),
            Matrix::zeros(1, 0),
            Matrix::filled(1, 1, -0.1),
        )
        .unwrap();
        assert!(!test_positive_real(&static_npr, &opts())
            .unwrap()
            .is_positive_real());
    }

    #[test]
    fn mimo_passive_rc_network() {
        // Two decoupled RC branches with series resistance: admittance matrix
        // Y(s) = diag(0.5 + 1/(s+1), 0.25 + 2/(s+2)) is strictly PR.
        let a = Matrix::diag(&[-1.0, -2.0]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let c = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let d = Matrix::diag(&[0.5, 0.25]);
        let ss = StateSpace::new(a, b, c, d).unwrap();
        assert_eq!(
            test_positive_real(&ss, &opts()).unwrap(),
            PositiveRealVerdict::StrictlyPositiveReal
        );
    }

    #[test]
    fn lossless_integrator_like_system_is_boundary_positive_real() {
        // Exercise the PositiveReal (non-strict) branch with a system whose
        // Popov function vanishes at a finite frequency:
        //   G(s) = (s² + 1)/(s² + s + 1)  ⇒  Re G(jω) = (1 − ω²)² / |·|² ≥ 0,
        // with equality exactly at ω = 1, and G(∞) = 1 so D + Dᵀ = 2 ≻ 0.
        let a = Matrix::from_rows(&[&[-1.0, -1.0], &[1.0, 0.0]]);
        let b = Matrix::column(&[1.0, 0.0]);
        // G(s) = 1 + (−s)/(s² + s + 1)
        let c = Matrix::row_vector(&[-1.0, 0.0]);
        let d = Matrix::filled(1, 1, 1.0);
        let ss = StateSpace::new(a, b, c, d).unwrap();
        let verdict = test_positive_real(&ss, &opts()).unwrap();
        match &verdict {
            PositiveRealVerdict::PositiveReal {
                boundary_frequencies,
            } => {
                assert!(!boundary_frequencies.is_empty());
                assert!(boundary_frequencies.iter().any(|w| (w - 1.0).abs() < 1e-5));
            }
            PositiveRealVerdict::StrictlyPositiveReal => {
                panic!("expected boundary case, got strict")
            }
            other => panic!("expected PositiveReal, got {other:?}"),
        }
        assert!(verdict.is_positive_real());
    }

    #[test]
    fn spectrum_is_requested_only_on_the_hamiltonian_path() {
        let failing =
            || -> Result<HamiltonianSpectrum, ShhError> { Err(ShhError::ImaginaryAxisEigenvalues) };
        // D + Dᵀ = 0: the sampling fallback never asks for the spectrum.
        let sampled = test_positive_real_with(&pr_no_feedthrough(), &opts(), failing);
        assert!(sampled.unwrap().is_positive_real());
        // D + Dᵀ ≻ 0: the spectrum's error surfaces.
        assert!(test_positive_real_with(&spr_system(), &opts(), failing).is_err());
    }

    #[test]
    fn a_similar_matrix_gives_the_same_verdict() {
        // Boundary case at ω = 1 (see the lossless test below), classified
        // from T·M·T⁻¹ with a diagonal T.
        let a = Matrix::from_rows(&[&[-1.0, -1.0], &[1.0, 0.0]]);
        let ss = StateSpace::new(
            a,
            Matrix::column(&[1.0, 0.0]),
            Matrix::row_vector(&[-1.0, 0.0]),
            Matrix::filled(1, 1, 1.0),
        )
        .unwrap();
        let m = hamiltonian_matrix(&ss).unwrap();
        let t = [1.0, 4.0, 0.5, 2.0];
        let similar = Matrix::from_fn(4, 4, |i, j| t[i] * m[(i, j)] / t[j]);
        let verdicts = [
            test_positive_real(&ss, &opts()).unwrap(),
            test_positive_real_with(&ss, &opts(), || HamiltonianSpectrum::of(&similar)).unwrap(),
        ];
        for verdict in verdicts {
            match verdict {
                PositiveRealVerdict::PositiveReal {
                    boundary_frequencies,
                } => assert!(boundary_frequencies.iter().any(|w| (w - 1.0).abs() < 1e-5)),
                other => panic!("expected PositiveReal, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_square_rejected() {
        let ss = StateSpace::new(
            Matrix::filled(1, 1, -1.0),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::filled(1, 1, 1.0),
            Matrix::from_rows(&[&[0.0, 0.0]]),
        )
        .unwrap();
        assert!(test_positive_real(&ss, &opts()).is_err());
    }
}
