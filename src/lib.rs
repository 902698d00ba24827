//! # ds-passivity-suite
//!
//! Umbrella crate for the DAC 2006 descriptor-system passivity-test
//! reproduction: it re-exports the individual crates and hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! The individual pieces live in:
//!
//! * [`linalg`] (`ds-linalg`) — dense linear-algebra kernels,
//! * [`descriptor`] (`ds-descriptor`) — descriptor systems, transforms,
//!   impulse tests, Weierstrass decomposition,
//! * [`shh`] (`ds-shh`) — skew-Hamiltonian/Hamiltonian pencils and
//!   structure-preserving transformations,
//! * [`circuits`] (`ds-circuits`) — RLC/MNA workload generators (single-port
//!   ladders/grids plus the multiport, coupled-mesh, transmission-line and
//!   near-boundary families), with native `K` mutual-inductance couplings,
//! * [`netlist`] (`ds-netlist`) — the SPICE-deck front-end: text parser with
//!   line/column diagnostics, canonical renderer and content hashing,
//! * [`lmi`] (`ds-lmi`) — the LMI positive-realness substrate,
//! * [`passivity`] (`ds-passivity`) — the paper's fast test and the two
//!   baselines,
//! * [`harness`] (`ds-harness`) — the deterministic parallel sweep engine
//!   (scenario matrix × worker pool → JSONL/CSV artifacts + summaries) and
//!   the persistent result store (fingerprint-keyed resume, `--shard i/m`
//!   partitioning, lossless segment merge for 10⁵-scenario ensembles).
//!
//! ```
//! use ds_passivity_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ds_passivity_suite::circuits::generators::rlc_ladder_with_impulsive(10)?;
//! let report = check_passivity(&model.system, &FastTestOptions::default())?;
//! assert!(report.verdict.is_passive());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod pipeline;

pub use error::SuiteError;
pub use pipeline::{
    load_deck_scenarios, CheckOutcome, CheckRequest, CheckSource, PassivityCheck, RepairOutcome,
    REPORT_SCHEMA,
};

pub use ds_circuits as circuits;
pub use ds_descriptor as descriptor;
pub use ds_harness as harness;
pub use ds_linalg as linalg;
pub use ds_lmi as lmi;
pub use ds_netlist as netlist;
pub use ds_passivity as passivity;
pub use ds_shh as shh;

/// The most common imports for users of the suite.
pub mod prelude {
    pub use crate::error::SuiteError;
    pub use crate::pipeline::{
        load_deck_scenarios, CheckOutcome, CheckRequest, CheckSource, PassivityCheck, RepairOutcome,
    };
    pub use ds_descriptor::prelude::*;
    pub use ds_harness::prelude::*;
    pub use ds_linalg::prelude::*;
    pub use ds_passivity::fast::{check_passivity, FastTestOptions};
    pub use ds_passivity::prelude::*;
    pub use ds_shh::krylov::ReduceSpec;
}

/// Runs the proposed test and the Weierstrass baseline on the same system and
/// returns both reports — a convenience used by the examples and integration
/// tests to cross-check results.
///
/// # Errors
///
/// Propagates structural failures from either test.
pub fn cross_check(
    sys: &ds_descriptor::DescriptorSystem,
) -> Result<
    (ds_passivity::PassivityReport, ds_passivity::PassivityReport),
    ds_passivity::PassivityError,
> {
    let fast =
        ds_passivity::fast::check_passivity(sys, &ds_passivity::fast::FastTestOptions::default())?;
    let weierstrass = ds_passivity::weierstrass_test::check_passivity_weierstrass(
        sys,
        &ds_passivity::weierstrass_test::WeierstrassTestOptions::default(),
    )?;
    Ok((fast, weierstrass))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_check_on_a_small_passive_circuit() {
        let model = circuits::generators::rc_ladder(4, 1.0, 1.0).unwrap();
        let (fast, weierstrass) = cross_check(&model.system).unwrap();
        assert!(fast.verdict.is_passive());
        assert!(weierstrass.verdict.is_passive());
    }

    #[test]
    fn cross_check_rejects_a_nonpassive_ladder() {
        let model = circuits::generators::nonpassive_ladder(6).unwrap();
        assert!(!model.expected_passive);
        let (fast, weierstrass) = cross_check(&model.system).unwrap();
        assert!(
            !fast.verdict.is_passive(),
            "fast test accepted: {}",
            fast.verdict
        );
        assert!(
            !weierstrass.verdict.is_passive(),
            "weierstrass baseline accepted: {}",
            weierstrass.verdict
        );
    }

    #[test]
    fn cross_check_rejects_a_violation_at_infinity() {
        // Negative port inductance: the violation sits at ω = ∞ (non-PSD M₁),
        // the case the paper's structured route detects without a frequency
        // sweep.  Both methods must agree on rejection.
        let model = circuits::generators::negative_m1_model(8).unwrap();
        assert!(!model.expected_passive);
        let (fast, weierstrass) = cross_check(&model.system).unwrap();
        assert!(
            !fast.verdict.is_passive(),
            "fast test accepted: {}",
            fast.verdict
        );
        assert!(
            !weierstrass.verdict.is_passive(),
            "weierstrass baseline accepted: {}",
            weierstrass.verdict
        );
    }
}
