//! Reduce-then-verify: the sparse path behind [`FamilyKind::Reduced`].
//!
//! An order-10⁴ RLC netlist never materializes a dense matrix on this path:
//! it is stamped with `ds_circuits::mna::stamp_sparse` and projected by the
//! PRIMA-style block-Krylov congruence of `ds_shh::krylov` down to a dense
//! model of order ≈ [`ReduceSpec::target_order`], which the existing exact
//! passivity methods then verify unchanged.  Congruence preserves passivity
//! for RLC structure, so the reduced verdict is the netlist's verdict.
//!
//! [`FamilyKind::Reduced`]: crate::scenario::FamilyKind::Reduced

use crate::check::BuildError;
use crate::scenario::Scenario;
use ds_circuits::generators::{self, CircuitModel};
use ds_circuits::{mna, Netlist};
use ds_obs::trace::in_span;
use ds_shh::krylov::{self, ReduceSpec};
use std::time::Instant;

/// Diagnostics of one reduction, persisted next to the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionStats {
    /// Achieved reduced order.
    pub reduced_order: usize,
    /// Krylov truncation residual (`0` when the projection is exact).
    pub residual: f64,
    /// Wall-clock nanoseconds of sparse stamp + projection.
    pub reduction_ns: u64,
}

/// Stamps a netlist sparsely (under the `stamp_sparse` span) and reduces it
/// (under the `reduce` span), returning the dense reduced model plus the
/// reduction diagnostics.
///
/// # Errors
///
/// Stamping failures come back as [`BuildError::Circuit`], a failed Krylov
/// projection as [`BuildError::Reduction`] carrying the `ds-shh` error.
pub fn reduce_netlist(
    netlist: &Netlist,
    spec: &ReduceSpec,
) -> Result<(ds_descriptor::DescriptorSystem, ReductionStats), BuildError> {
    let start = Instant::now();
    let mna = in_span("stamp_sparse", || mna::stamp_sparse(netlist))?;
    let reduction = in_span("reduce", || {
        krylov::reduce_prima(&mna.c_matrix(), &mna.g_matrix(), &mna.b_dense(), spec)
    })
    .map_err(BuildError::Reduction)?;
    let stats = ReductionStats {
        reduced_order: reduction.reduced_order,
        residual: reduction.residual,
        reduction_ns: start.elapsed().as_nanos() as u64,
    };
    Ok((reduction.system, stats))
}

/// Builds the model for a [`FamilyKind::Reduced`] scenario: the RLC ladder
/// netlist of `size` sections (odd seeds add disjoint-pair inductive
/// couplings), reduced with the default [`ReduceSpec`].
///
/// # Errors
///
/// Propagates generator/stamping/reduction failures.
///
/// [`FamilyKind::Reduced`]: crate::scenario::FamilyKind::Reduced
pub fn build_reduced(scenario: &Scenario) -> Result<(CircuitModel, ReductionStats), BuildError> {
    let coupled = reduced_is_coupled(scenario.seed);
    let netlist = generators::reduced_ladder_netlist(scenario.size, coupled)?;
    let (system, stats) = reduce_netlist(&netlist, &ReduceSpec::default())?;
    let suffix = if coupled { ",coupled" } else { "" };
    Ok((
        CircuitModel {
            name: format!("reduced_ladder(sections={}{suffix})", scenario.size),
            system,
            // Passive RLC netlist + congruence projection ⇒ passive.
            expected_passive: true,
            has_impulsive_modes: false,
        },
        stats,
    ))
}

/// Whether a `reduced` scenario seed selects the coupled-inductor variant.
pub fn reduced_is_coupled(seed: u64) -> bool {
    !seed.is_multiple_of(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FamilyKind;

    #[test]
    fn reduced_scenario_builds_a_small_passive_model() {
        let scenario = Scenario::new(FamilyKind::Reduced, 100);
        let (model, stats) = build_reduced(&scenario).unwrap();
        // Original order 201 projects to the default target 48.
        assert_eq!(model.system.order(), 48);
        assert_eq!(stats.reduced_order, 48);
        assert!(stats.residual >= 0.0 && stats.residual <= 1.0);
        assert!(stats.reduction_ns > 0);
        assert!(model.expected_passive);
        assert!(model.name.starts_with("reduced_ladder(sections=100"));
    }

    #[test]
    fn odd_seeds_select_the_coupled_variant() {
        let scenario = Scenario::new(FamilyKind::Reduced, 60).with_seed(1);
        let (model, stats) = build_reduced(&scenario).unwrap();
        assert!(model.name.contains("coupled"));
        assert_eq!(stats.reduced_order, 48);
    }

    #[test]
    fn small_sizes_pass_through_exactly() {
        let scenario = Scenario::new(FamilyKind::Reduced, 10);
        let (model, stats) = build_reduced(&scenario).unwrap();
        assert_eq!(model.system.order(), 21);
        assert_eq!(stats.reduced_order, 21);
        assert_eq!(stats.residual, 0.0);
    }
}

#[cfg(test)]
mod perf_smoke {
    use super::*;
    use crate::scenario::{FamilyKind, Scenario};

    #[test]
    #[ignore = "manual perf smoke"]
    fn order_10k_reduces_quickly() {
        let t = Instant::now();
        let scenario = Scenario::new(FamilyKind::Reduced, 5000).with_seed(1);
        let (model, stats) = build_reduced(&scenario).unwrap();
        eprintln!(
            "order 10001 -> {} in {:.3}s (residual {:.3e})",
            stats.reduced_order,
            t.elapsed().as_secs_f64(),
            stats.residual
        );
        assert_eq!(model.system.order(), 48);
    }
}
