//! Verdicts and diagnostics shared by all passivity tests.

use ds_linalg::Matrix;
use std::fmt;

/// Why a system was declared non-passive.
#[derive(Debug, Clone, PartialEq)]
pub enum NonPassivityReason {
    /// `Φ(s) = G(s) + G~(s)` retains observable/controllable impulsive modes
    /// after the cancellation step — impossible for a passive system
    /// (paper Section 3.1).
    ResidualImpulsiveModes,
    /// The bookkeeping check of removed impulsive vs. nondynamic modes failed,
    /// indicating Markov parameters `M_k ≠ 0` for some `k ≥ 2`
    /// (paper Section 3.4).
    HigherOrderMarkovParameters,
    /// The residue matrix `M₁` (coefficient of `s`) is not positive
    /// semidefinite.
    IndefiniteResidue {
        /// Smallest eigenvalue of the symmetrized `M₁`.
        min_eigenvalue: f64,
    },
    /// The finite dynamic modes are not all in the open left half-plane.
    UnstableFiniteModes,
    /// The proper part fails the positive-realness test.
    ProperPartNotPositiveReal {
        /// Frequency of the witnessed violation, when available.
        witness_frequency: Option<f64>,
        /// Most negative eigenvalue of the Popov function found.
        min_eigenvalue: f64,
    },
    /// The LMI baseline could not find a feasible point within its budget.
    LmiInfeasible {
        /// Final cone-violation objective.
        objective: f64,
    },
}

impl fmt::Display for NonPassivityReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonPassivityReason::ResidualImpulsiveModes => {
                write!(f, "G + G~ retains observable/controllable impulsive modes")
            }
            NonPassivityReason::HigherOrderMarkovParameters => {
                write!(f, "Markov parameters of order ≥ 2 are present")
            }
            NonPassivityReason::IndefiniteResidue { min_eigenvalue } => write!(
                f,
                "residue matrix M1 is not positive semidefinite (λ_min = {min_eigenvalue:.3e})"
            ),
            NonPassivityReason::UnstableFiniteModes => {
                write!(f, "finite dynamic modes are not all stable")
            }
            NonPassivityReason::ProperPartNotPositiveReal {
                witness_frequency,
                min_eigenvalue,
            } => match witness_frequency {
                Some(w) => write!(
                    f,
                    "proper part is not positive real (λ_min = {min_eigenvalue:.3e} at ω = {w:.3e})"
                ),
                None => write!(
                    f,
                    "proper part is not positive real (λ_min = {min_eigenvalue:.3e})"
                ),
            },
            NonPassivityReason::LmiInfeasible { objective } => write!(
                f,
                "positive-real LMI is infeasible (final violation {objective:.3e})"
            ),
        }
    }
}

/// The outcome of a passivity test.
#[derive(Debug, Clone, PartialEq)]
pub enum PassivityVerdict {
    /// The system is passive (positive real).
    Passive {
        /// `true` when the certificate additionally guarantees *strict*
        /// positive realness of the proper part.
        strictly: bool,
    },
    /// The system is not passive.
    NotPassive {
        /// Which condition failed.
        reason: NonPassivityReason,
    },
}

impl PassivityVerdict {
    /// `true` for passive outcomes.
    pub fn is_passive(&self) -> bool {
        matches!(self, PassivityVerdict::Passive { .. })
    }
}

impl fmt::Display for PassivityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassivityVerdict::Passive { strictly: true } => write!(f, "passive (strictly)"),
            PassivityVerdict::Passive { strictly: false } => write!(f, "passive"),
            PassivityVerdict::NotPassive { reason } => write!(f, "not passive: {reason}"),
        }
    }
}

/// Structural diagnostics gathered along the proposed test.
#[derive(Debug, Clone, Default)]
pub struct ReductionDiagnostics {
    /// Order `2n` of the Φ-system.
    pub phi_order: usize,
    /// Dimension of the impulse-unobservable subspace `Z₀` found in eq. (11).
    pub unobservable_impulsive_directions: usize,
    /// Total states removed by the impulse-mode cancellation (eq. (17)).
    pub removed_impulse_states: usize,
    /// Nondynamic modes of `Φ` removed by the Schur-complement step (eq. (19)).
    pub removed_nondynamic_states: usize,
    /// Nondynamic modes of `Φ` that were swept up by the impulse-mode removal
    /// (the grade-1 partners of the cancelled grade-2 chains).
    pub nondynamic_removed_with_impulsive: usize,
    /// Order of the final regular proper Φ-system (`2·n_p`).
    pub proper_phi_order: usize,
    /// Whether the paper's bookkeeping identity (removed impulsive modes =
    /// their grade-1 partners) held, i.e. no `M_k`, `k ≥ 2`, was detected.
    pub markov_bookkeeping_consistent: bool,
}

/// The full report of a passivity test.
#[derive(Debug, Clone)]
pub struct PassivityReport {
    /// The verdict.
    pub verdict: PassivityVerdict,
    /// Which method produced the report (`"shh-fast"`, `"weierstrass"`, `"lmi"`).
    pub method: &'static str,
    /// The extracted residue matrix `M₁` (zero when the system is proper), if
    /// the flow reached that stage.
    pub m1: Option<Matrix>,
    /// The extracted stable proper part, if the flow reached that stage
    /// (the paper's "sidetrack" output).
    pub proper_part: Option<ds_descriptor::StateSpace>,
    /// Structural diagnostics (meaningful for the proposed test).
    pub diagnostics: ReductionDiagnostics,
}

impl PassivityReport {
    /// Creates a report with the given verdict and method, empty otherwise.
    pub fn new(method: &'static str, verdict: PassivityVerdict) -> Self {
        PassivityReport {
            verdict,
            method,
            m1: None,
            proper_part: None,
            diagnostics: ReductionDiagnostics::default(),
        }
    }
}

impl fmt::Display for PassivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.method, self.verdict)?;
        if let Some(m1) = &self.m1 {
            writeln!(f, "  M1 norm: {:.3e}", m1.norm_fro())?;
        }
        if let Some(p) = &self.proper_part {
            writeln!(f, "  proper part order: {}", p.order())?;
        }
        write!(
            f,
            "  removed impulsive states: {}, removed nondynamic states: {}",
            self.diagnostics.removed_impulse_states, self.diagnostics.removed_nondynamic_states
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        assert!(PassivityVerdict::Passive { strictly: true }.is_passive());
        assert!(PassivityVerdict::Passive { strictly: false }.is_passive());
        assert!(!PassivityVerdict::NotPassive {
            reason: NonPassivityReason::ResidualImpulsiveModes
        }
        .is_passive());
    }

    #[test]
    fn display_formats() {
        let v = PassivityVerdict::NotPassive {
            reason: NonPassivityReason::IndefiniteResidue {
                min_eigenvalue: -0.5,
            },
        };
        assert!(v.to_string().contains("M1"));
        assert!(PassivityVerdict::Passive { strictly: true }
            .to_string()
            .contains("strictly"));
        let reason = NonPassivityReason::ProperPartNotPositiveReal {
            witness_frequency: Some(2.0),
            min_eigenvalue: -0.1,
        };
        assert!(reason.to_string().contains("ω"));
    }

    #[test]
    fn report_display_mentions_method() {
        let report =
            PassivityReport::new("shh-fast", PassivityVerdict::Passive { strictly: false });
        let text = report.to_string();
        assert!(text.contains("shh-fast"));
        assert!(text.contains("passive"));
    }
}
