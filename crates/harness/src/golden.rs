//! The golden-verdict conformance sweep.
//!
//! [`golden_tasks`] defines a fixed (family, order) matrix; its verdicts and
//! violation-frequency counts are pinned in `tests/golden/verdicts.json` at
//! the workspace root.  [`render_golden`] is the canonical serialization used
//! both by the `regen-golden` binary (to write the fixture) and by the
//! conformance test (to compare against it) — byte-for-byte.
//!
//! The suite runs in two modes.  **Strict** mode compares the rendered
//! document byte-for-byte, pinning the exact serialization.  **Semantic**
//! mode ([`semantic_diff`]) compares cell-by-cell: every discrete field
//! (verdict, strictness, reason slug, violation count, scenario identity)
//! must match exactly, while the witness frequency — a floating-point
//! by-product of an iterative eigensolve — only has to agree within
//! [`SEMANTIC_REL_TOL`].  Semantic mode is what lets a numerically
//! equivalent kernel change (e.g. a blocked Householder reduction) prove it
//! preserved every verdict without demanding bit-identical arithmetic.

use crate::json;
use crate::method::Method;
use crate::scenario::{scenario_matrix, FamilyKind, Scenario, SweepTask};
use crate::sweep::SweepRecord;

/// Fixture schema version; bump when the record layout changes.
/// v2 added the approximate `witness` field to rejection cells.
pub const GOLDEN_VERSION: u32 = 2;

/// Relative tolerance on the witness frequency in [`semantic_diff`]: wide
/// enough to absorb roundoff reordering in the eigensolve, narrow enough
/// that a witness on a different violation band still fails the suite.
pub const SEMANTIC_REL_TOL: f64 = 1e-6;

/// Orders up to which the LMI baseline participates in the golden sweep (it
/// is the expensive method; the conformance suite keeps it to tiny models).
pub const GOLDEN_LMI_MAX_ORDER: usize = 13;

/// The committed example decks pinned by the golden fixture (embedded at
/// compile time, so fixture and corpus cannot drift apart silently).
pub fn golden_deck_scenarios() -> Vec<Scenario> {
    let decks: [(&str, &str); 2] = [
        (
            "coupled_pair",
            include_str!("../../../examples/decks/coupled_pair.cir"),
        ),
        (
            "nonpassive_ladder",
            include_str!("../../../examples/decks/nonpassive_ladder.cir"),
        ),
    ];
    decks
        .into_iter()
        .map(|(name, text)| {
            let deck = ds_netlist::parse_deck(text)
                .unwrap_or_else(|e| panic!("committed deck {name} does not parse: {e}"));
            Scenario::from_deck(name, &deck)
        })
        .collect()
}

/// The scenarios pinned by the golden fixture: every family at small orders.
pub fn golden_scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![
        Scenario::new(FamilyKind::RcLadder, 4),
        Scenario::new(FamilyKind::RcLadder, 8),
        Scenario::new(FamilyKind::RlcLadder, 3),
        Scenario::new(FamilyKind::ImpulsiveLadder, 8),
        Scenario::new(FamilyKind::ImpulsiveLadder, 12),
        Scenario::new(FamilyKind::RcGrid, 3),
        Scenario::new(FamilyKind::MultiportLadder, 2).with_ports(2),
        Scenario::new(FamilyKind::MultiportLadder, 2).with_ports(3),
        Scenario::new(FamilyKind::MultiportLadderImpulsive, 2).with_ports(2),
        Scenario::new(FamilyKind::CoupledMesh, 3),
        Scenario::new(FamilyKind::TlineChain, 3),
        Scenario::new(FamilyKind::PerturbedBoundary, 5).with_seed(1),
        Scenario::new(FamilyKind::PerturbedBoundary, 5)
            .with_ports(2)
            .with_margin(0.25)
            .with_seed(1),
        Scenario::new(FamilyKind::PerturbedBoundary, 6)
            .with_margin(0.5)
            .with_seed(2),
        Scenario::new(FamilyKind::BoundaryBand, 0)
            .with_ports(2)
            .with_seed(1),
        Scenario::new(FamilyKind::BoundaryBand, 0)
            .with_margin(0.5)
            .with_seed(2),
        Scenario::new(FamilyKind::NonpassiveLadder, 8),
        Scenario::new(FamilyKind::NegativeM1, 8),
        Scenario::new(FamilyKind::RandomPassive, 5),
        Scenario::new(FamilyKind::RandomPassive, 6)
            .with_ports(2)
            .with_seed(1),
        Scenario::new(FamilyKind::RandomNonpassive, 5),
        // Reduce-then-verify cells at fixture-friendly original orders: 49
        // (one section past the default target, so the projection truncates)
        // and 199 with the coupled-inductor variant.
        Scenario::new(FamilyKind::Reduced, 24),
        Scenario::new(FamilyKind::Reduced, 99).with_seed(1),
    ];
    scenarios.extend(golden_deck_scenarios());
    scenarios
}

/// Whether a golden scenario participates in the LMI column.  Besides the
/// order gate, the expected-nonpassive cells are kept out (certifying
/// infeasibility makes the first-order solver exhaust its whole iteration
/// budget — several seconds per cell in debug builds, which would dominate
/// the conformance suite) except for one pinned rejection cell; the LMI
/// reject path is additionally covered by `tests/method_agreement.rs`.
fn lmi_in_golden(scenario: &Scenario) -> bool {
    if scenario.order() > GOLDEN_LMI_MAX_ORDER {
        return false;
    }
    match scenario.family {
        FamilyKind::NonpassiveLadder | FamilyKind::NegativeM1 => false,
        FamilyKind::PerturbedBoundary | FamilyKind::BoundaryBand => scenario.margin == 0.0,
        // Same policy for decks: only expected-passive ones join the LMI
        // column (the infeasibility certificate is the slow path).
        FamilyKind::Deck => scenario
            .deck
            .as_ref()
            .is_some_and(|deck| deck.expected_passive),
        _ => true,
    }
}

/// The golden task matrix: proposed + Weierstrass on every scenario, LMI on
/// the small-order subset selected by `lmi_in_golden`.
pub fn golden_tasks() -> Vec<SweepTask> {
    let scenarios = golden_scenarios();
    let mut tasks = scenario_matrix(&scenarios, &[Method::Proposed, Method::Weierstrass]);
    let lmi_scenarios: Vec<Scenario> = scenarios.into_iter().filter(lmi_in_golden).collect();
    tasks.extend(scenario_matrix(&lmi_scenarios, &[Method::Lmi]));
    tasks
}

/// Canonical fixture serialization: a pretty-printed JSON document with one
/// cell per golden task, in task order.
pub fn render_golden(records: &[SweepRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {GOLDEN_VERSION},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, record) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "    {{\"family\": {}, \"scenario\": {}, \"order\": {}, \"ports\": {}, ",
                "\"seed\": {}, \"margin\": {}, \"method\": {}, \"passive\": {}, ",
                "\"strict\": {}, \"reason\": {}, \"violation_count\": {}, ",
                "\"witness\": {}}}{}\n"
            ),
            json::quote(record.family),
            json::quote(&record.scenario),
            record.order,
            record.ports,
            record.seed,
            json::number(record.margin),
            json::quote(record.method),
            json::opt_bool(record.passive),
            record.strict,
            json::quote(&record.reason),
            json::opt_usize(record.violation_count),
            json::opt_number(record.witness_frequency),
            sep,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Whether two optional witness frequencies agree within `rel_tol`
/// (relative to their magnitude, with a floor of `rel_tol` in absolute
/// terms so witnesses at or near ω = 0 compare sanely).
fn witness_close(got: Option<f64>, want: Option<f64>, rel_tol: f64) -> bool {
    match (got, want) {
        (None, None) => true,
        (Some(a), Some(b)) => (a - b).abs() <= rel_tol * a.abs().max(b.abs()).max(1.0),
        _ => false,
    }
}

/// Semantic-equivalence comparison of a golden sweep against the committed
/// fixture text: every discrete field must match exactly; the witness
/// frequency only within `rel_tol` (use [`SEMANTIC_REL_TOL`]).
///
/// Returns the list of human-readable mismatches — empty means the sweep is
/// semantically identical to the fixture even if the serialized bytes drift
/// (e.g. after a floating-point-reordering kernel change).
///
/// # Errors
///
/// A malformed fixture (unparsable JSON, wrong version, missing keys) is
/// reported as a single-entry mismatch list rather than a panic, so the
/// caller's failure message always shows what was compared.
pub fn semantic_diff(records: &[SweepRecord], fixture: &str, rel_tol: f64) -> Vec<String> {
    let value = match json::parse(fixture) {
        Ok(v) => v,
        Err(e) => return vec![format!("fixture does not parse: {e}")],
    };
    if value.get("version").and_then(json::Value::as_f64) != Some(GOLDEN_VERSION as f64) {
        return vec![format!(
            "fixture version is not {GOLDEN_VERSION}: {:?}",
            value.get("version")
        )];
    }
    let Some(cells) = value.get("cells").and_then(json::Value::as_array) else {
        return vec!["fixture has no 'cells' array".to_string()];
    };
    if cells.len() != records.len() {
        return vec![format!(
            "cell count differs: swept {} vs fixture {}",
            records.len(),
            cells.len()
        )];
    }
    let mut mismatches = Vec::new();
    for (i, (record, cell)) in records.iter().zip(cells.iter()).enumerate() {
        let ctx = |field: &str, got: String, want: String| {
            format!(
                "cell {i} ({} / {} / {}): {field} = {got}, fixture has {want}",
                record.family, record.scenario, record.method
            )
        };
        let mut check_str = |field: &str, got: &str| {
            let want = cell.get(field).and_then(json::Value::as_str).unwrap_or("?");
            if got != want {
                mismatches.push(ctx(field, got.to_string(), want.to_string()));
            }
        };
        check_str("family", record.family);
        check_str("scenario", &record.scenario);
        check_str("method", record.method);
        check_str("reason", &record.reason);
        let mut check_num = |field: &str, got: f64| {
            let want = cell.get(field).and_then(json::Value::as_f64);
            if want != Some(got) {
                mismatches.push(ctx(field, format!("{got}"), format!("{want:?}")));
            }
        };
        check_num("order", record.order as f64);
        check_num("ports", record.ports as f64);
        check_num("seed", record.seed as f64);
        check_num("margin", record.margin);
        let passive = cell.get("passive").and_then(json::Value::as_bool);
        if passive != record.passive {
            mismatches.push(ctx(
                "passive",
                format!("{:?}", record.passive),
                format!("{passive:?}"),
            ));
        }
        let strict = cell.get("strict").and_then(json::Value::as_bool);
        if strict != Some(record.strict) {
            mismatches.push(ctx(
                "strict",
                format!("{}", record.strict),
                format!("{strict:?}"),
            ));
        }
        let count = cell.get("violation_count").and_then(json::Value::as_f64);
        if count != record.violation_count.map(|c| c as f64) {
            mismatches.push(ctx(
                "violation_count",
                format!("{:?}", record.violation_count),
                format!("{count:?}"),
            ));
        }
        // The one approximate field: witness frequencies within rel_tol are
        // the same violation, so roundoff-level drift is not a mismatch.
        let witness = cell.get("witness").and_then(json::Value::as_f64);
        if !witness_close(record.witness_frequency, witness, rel_tol) {
            mismatches.push(ctx(
                "witness",
                format!("{:?}", record.witness_frequency),
                format!("{witness:?} (rel tol {rel_tol:e})"),
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_matrix_is_stable_and_small() {
        let tasks = golden_tasks();
        // 25 scenarios × 2 methods + the small-order LMI subset.
        assert!(tasks.len() >= 50, "golden matrix shrank: {}", tasks.len());
        assert!(tasks.len() <= 76, "golden matrix grew: {}", tasks.len());
        assert!(tasks
            .iter()
            .filter(|t| t.method == Method::Lmi)
            .all(|t| t.scenario.order() <= GOLDEN_LMI_MAX_ORDER));
        // Every family is represented.
        for family in [
            "rc_ladder",
            "multiport_ladder",
            "coupled_mesh",
            "tline_chain",
            "perturbed_boundary",
            "boundary_band",
            "deck",
            "random_nonpassive",
            "reduced",
        ] {
            assert!(
                tasks.iter().any(|t| t.scenario.family.name() == family),
                "family {family} missing from the golden matrix"
            );
        }
    }

    #[test]
    fn rendered_fixture_is_valid_json() {
        let result = crate::sweep::run_sweep(&crate::sweep::SweepSpec::new(
            scenario_matrix(
                &[Scenario::new(FamilyKind::RcLadder, 3)],
                &[Method::Proposed],
            ),
            1,
        ));
        let text = render_golden(&result.records);
        let value = crate::json::parse(&text).unwrap();
        assert_eq!(
            value.get("version").unwrap().as_f64(),
            Some(GOLDEN_VERSION as f64)
        );
        assert_eq!(value.get("cells").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn semantic_diff_accepts_roundoff_and_rejects_verdict_drift() {
        let result = crate::sweep::run_sweep(&crate::sweep::SweepSpec::new(
            scenario_matrix(
                &[Scenario::new(FamilyKind::NonpassiveLadder, 8)],
                &[Method::Proposed],
            ),
            1,
        ));
        let fixture = render_golden(&result.records);
        assert!(semantic_diff(&result.records, &fixture, SEMANTIC_REL_TOL).is_empty());

        // Roundoff-level witness drift is not a semantic difference...
        let mut nudged = result.records.clone();
        if let Some(w) = nudged[0].witness_frequency.as_mut() {
            *w *= 1.0 + 1e-9;
        }
        assert!(semantic_diff(&nudged, &fixture, SEMANTIC_REL_TOL).is_empty());
        // ...but a witness on a different band (or appearing from nowhere,
        // when the fixture's violation sits at ω = ∞ with no witness) is.
        let mut moved = result.records.clone();
        moved[0].witness_frequency =
            Some(moved[0].witness_frequency.map_or(123.0, |w| 10.0 * w + 1.0));
        let diffs = semantic_diff(&moved, &fixture, SEMANTIC_REL_TOL);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("witness"), "{diffs:?}");

        // And so is any discrete-field change, e.g. a flipped verdict.
        let mut flipped = result.records.clone();
        flipped[0].passive = Some(true);
        flipped[0].reason = String::new();
        let diffs = semantic_diff(&flipped, &fixture, SEMANTIC_REL_TOL);
        assert!(
            diffs.iter().any(|d| d.contains("passive")),
            "flipped verdict must be reported: {diffs:?}"
        );
    }

    #[test]
    fn witness_close_handles_presence_and_zero() {
        assert!(witness_close(None, None, 1e-6));
        assert!(!witness_close(Some(1.0), None, 1e-6));
        assert!(!witness_close(None, Some(1.0), 1e-6));
        // Absolute floor near zero.
        assert!(witness_close(Some(0.0), Some(1e-9), 1e-6));
        // Large magnitudes compare relatively.
        assert!(witness_close(Some(1e6), Some(1e6 * (1.0 + 1e-8)), 1e-6));
        assert!(!witness_close(Some(1e6), Some(2e6), 1e-6));
    }
}
