//! The unified check pipeline: one request/outcome API for every consumer.
//!
//! Historically each binary re-assembled the pipeline by hand — `ds-netlist`
//! parse → `ds-circuits` stamp → method dispatch → ad-hoc verdict formatting
//! — with per-crate error types glued together stringly.  This module is the
//! one true assembly: a [`PassivityCheck`] builder produces a
//! [`CheckRequest`], and [`CheckRequest::run`] sends every source through the
//! record-producing check the sweep workers run ([`ds_harness::check`]), so
//! each [`CheckOutcome`] is built from that record and its deterministic
//! fields are *identical* to what the sweep engine would emit for the same
//! input.  The `ds-serve` daemon, `ds-sweep`, the bench binaries and the
//! examples all route through here.
//!
//! ```
//! use ds_passivity_suite::prelude::*;
//!
//! # fn main() -> Result<(), ds_passivity_suite::SuiteError> {
//! let outcome = PassivityCheck::deck_text("R1 in 0 50\n.port in\n.end\n")
//!     .method(Method::Proposed)
//!     .run()?;
//! assert_eq!(outcome.passive, Some(true));
//! # Ok(())
//! # }
//! ```

use crate::error::SuiteError;
use ds_circuits::generators::CircuitModel;
use ds_circuits::Netlist;
use ds_descriptor::DescriptorSystem;
use ds_harness::json;
use ds_harness::scenario::Scenario;
use ds_harness::sweep::{verdict_fields, TaskStatus};
use ds_harness::{Method, Subject, SweepRecord, LMI_MAX_ORDER};
use ds_netlist::Deck;
use ds_passivity::enforce::{enforce_passivity, EnforcementOptions, EnforcementOutcome};
use ds_passivity::{PassivityReport, PassivityVerdict};
use ds_shh::krylov::ReduceSpec;

/// Version tag of the serialized verdict report ([`CheckOutcome::report_json`]).
/// `v2` added the `reduced_order`/`residual` fields of the Krylov
/// reduce-then-verify path (`null` for direct checks).
pub const REPORT_SCHEMA: &str = "ds-check-report/v2";

/// What a [`CheckRequest`] checks: a deck in some stage of parsing, or an
/// in-memory model.
#[derive(Debug, Clone)]
pub enum CheckSource {
    /// Raw SPICE deck text (parsed by the pipeline, so parse diagnostics flow
    /// through [`SuiteError::Parse`]).
    DeckText {
        /// Display name; defaults to the canonical content hash in hex.
        name: Option<String>,
        /// The deck text.
        text: String,
    },
    /// An already-parsed deck.
    Deck {
        /// Display name.
        name: String,
        /// The parsed deck.
        deck: Deck,
        /// Its canonical content hash ([`Deck::content_hash`]).
        hash: u64,
    },
    /// An in-memory netlist (ground truth taken as passivity-by-construction).
    Netlist {
        /// Display name.
        name: String,
        /// The netlist to stamp.
        netlist: Netlist,
    },
    /// A generated circuit model with its ground truth.
    Model(Box<CircuitModel>),
    /// A bare descriptor system (no ground truth, so `agrees` stays `None`).
    System {
        /// Display name.
        name: String,
        /// The system to test.
        system: Box<DescriptorSystem>,
    },
}

/// A fully-specified check: source, method, repair flag, optional reduction.
#[derive(Debug, Clone)]
pub struct CheckRequest {
    /// What to check.
    pub source: CheckSource,
    /// Which passivity test to run.
    pub method: Method,
    /// Whether to attempt passivity *enforcement* (`ds-core::enforce`) when
    /// the verdict is non-passive, reporting the perturbation in
    /// [`CheckOutcome::repair`].
    pub repair: bool,
    /// When set, netlist-backed sources (deck text, decks, netlists) are
    /// stamped *sparsely* and projected down by the PRIMA-style block-Krylov
    /// congruence of `ds-shh::krylov` before verification — the order-10⁴
    /// path.  Unsupported for [`CheckSource::Model`] / [`CheckSource::System`]
    /// sources, which carry no netlist to stamp.
    pub reduce: Option<ReduceSpec>,
}

/// Outcome of a passivity-enforcement attempt riding on a check
/// (`repair = true`).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// Whether a perturbation was applied (false when the model was already
    /// passive or the violation is not enforceable).
    pub enforced: bool,
    /// The series resistance added at every port (0 when none).
    pub resistance: f64,
    /// Whether the (possibly perturbed) model is passive.
    pub passive_after: bool,
    /// Stable reason slug when the violation is not enforceable, else empty.
    pub reason: String,
}

impl RepairOutcome {
    /// The outcome for a verdict that is not a rejection: nothing to perturb.
    pub fn unneeded(passive: bool) -> Self {
        RepairOutcome {
            enforced: false,
            resistance: 0.0,
            passive_after: passive,
            reason: String::new(),
        }
    }
}

/// The result of one check: the check's record, the verdict summary copied
/// out of it, and what only the check itself knows (display name, full deck
/// hash, repair outcome, the method's report).  Identity, ground truth and
/// timings — family, key (the record's `seed`), ports, `expected_passive`,
/// `agrees`, `elapsed`, `reduction_ns` — are read from [`Self::record`].
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Display name of the source (not part of the serialized report: the
    /// same canonical deck checked under different file names must produce
    /// byte-identical reports).
    pub name: String,
    /// Full 64-bit canonical content hash, for deck sources.
    pub canonical_hash: Option<u64>,
    /// How the check ended (method errors are recorded, not thrown, matching
    /// the sweep engine).
    pub status: TaskStatus,
    /// MNA/state order of the checked system (the *original* order on the
    /// Krylov path, so the compression is visible).
    pub order: usize,
    /// The verdict (`None` when the method errored).
    pub passive: Option<bool>,
    /// Stable reason slug for non-passive verdicts, or the error text.
    pub reason: String,
    /// Achieved reduced order, when the check ran through the Krylov
    /// reduce-then-verify path.
    pub reduced_order: Option<usize>,
    /// Krylov truncation residual of the reduction (`0` when exact).
    pub residual: Option<f64>,
    /// Enforcement outcome when the request asked for repair.
    pub repair: Option<RepairOutcome>,
    /// The full report of the underlying test (absent when the method
    /// failed structurally and for outcomes reloaded from a store).
    pub report: Option<PassivityReport>,
    /// The record this outcome was built from (the `ds-serve` daemon
    /// persists it in its result store).
    pub record: SweepRecord,
}

impl CheckOutcome {
    /// Builds an outcome from a check's record, or from a persisted one (the
    /// store tier of the `ds-serve` cache): [`CheckOutcome::report_json`] of
    /// either is byte-identical.
    pub fn from_record(record: &SweepRecord) -> CheckOutcome {
        CheckOutcome {
            name: record.scenario.clone(),
            canonical_hash: None,
            status: record.status,
            order: record.order,
            passive: record.passive,
            reason: record.reason.clone(),
            reduced_order: record.reduced_order,
            residual: record.residual,
            repair: None,
            report: None,
            record: record.clone(),
        }
    }

    /// Serializes the deterministic verdict fields as one JSON object — the
    /// response body of the `ds-serve` daemon.  Volatile fields (name,
    /// elapsed time) are excluded so identical checks render byte-identical
    /// reports, whether computed fresh, replayed from cache, or rebuilt from
    /// a persisted record.
    pub fn report_json(&self) -> String {
        let repair = match &self.repair {
            None => "null".to_string(),
            Some(r) => format!(
                "{{\"enforced\":{},\"resistance\":{},\"passive_after\":{},\"reason\":{}}}",
                r.enforced,
                json::number(r.resistance),
                r.passive_after,
                json::quote(&r.reason)
            ),
        };
        format!(
            "{{\"schema\":{},\"family\":{},\"key\":{},\"method\":{},\"status\":{},\"order\":{},\"ports\":{},\"passive\":{},\"strict\":{},\"reason\":{},\"expected_passive\":{},\"agrees\":{},\"reduced_order\":{},\"residual\":{},\"repair\":{}}}",
            json::quote(REPORT_SCHEMA),
            json::quote(self.record.family),
            self.record.seed,
            json::quote(self.record.method),
            json::quote(self.status.name()),
            self.order,
            self.record.ports,
            json::opt_bool(self.passive),
            self.record.strict,
            json::quote(&self.reason),
            json::opt_bool(self.record.expected_passive),
            json::opt_bool(self.record.agrees),
            json::opt_usize(self.reduced_order),
            json::opt_number(self.residual),
            repair
        )
    }
}

/// Builder for a [`CheckRequest`].
#[derive(Debug, Clone)]
pub struct PassivityCheck {
    request: CheckRequest,
}

impl PassivityCheck {
    fn from_source(source: CheckSource) -> Self {
        PassivityCheck {
            request: CheckRequest {
                source,
                method: Method::Proposed,
                repair: false,
                reduce: None,
            },
        }
    }

    /// Checks raw SPICE deck text.
    pub fn deck_text(text: impl Into<String>) -> Self {
        Self::from_source(CheckSource::DeckText {
            name: None,
            text: text.into(),
        })
    }

    /// Checks an already-parsed deck.
    pub fn deck(name: impl Into<String>, deck: Deck) -> Self {
        let hash = deck.content_hash();
        Self::hashed_deck(name, deck, hash)
    }

    /// Checks an already-parsed deck whose canonical content hash
    /// ([`Deck::content_hash`]) the caller has already computed, so the
    /// canonical deck is rendered once per check.
    pub fn hashed_deck(name: impl Into<String>, deck: Deck, hash: u64) -> Self {
        Self::from_source(CheckSource::Deck {
            name: name.into(),
            deck,
            hash,
        })
    }

    /// Checks an in-memory netlist.
    pub fn netlist(name: impl Into<String>, netlist: Netlist) -> Self {
        Self::from_source(CheckSource::Netlist {
            name: name.into(),
            netlist,
        })
    }

    /// Checks a generated circuit model (keeps its ground truth).
    pub fn model(model: CircuitModel) -> Self {
        Self::from_source(CheckSource::Model(Box::new(model)))
    }

    /// Checks a bare descriptor system.
    pub fn system(name: impl Into<String>, system: DescriptorSystem) -> Self {
        Self::from_source(CheckSource::System {
            name: name.into(),
            system: Box::new(system),
        })
    }

    /// Overrides the display name (deck-text sources default to the canonical
    /// content hash).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        match &mut self.request.source {
            CheckSource::DeckText { name: slot, .. } => *slot = Some(name),
            CheckSource::Deck { name: slot, .. }
            | CheckSource::Netlist { name: slot, .. }
            | CheckSource::System { name: slot, .. } => *slot = name,
            CheckSource::Model(model) => model.name = name,
        }
        self
    }

    /// Selects the passivity test (default: the paper's proposed SHH test).
    #[must_use]
    pub fn method(mut self, method: Method) -> Self {
        self.request.method = method;
        self
    }

    /// Enables passivity enforcement on non-passive verdicts.
    #[must_use]
    pub fn repair(mut self, repair: bool) -> Self {
        self.request.repair = repair;
        self
    }

    /// Routes the check through the sparse-stamp + block-Krylov reduction
    /// (only netlist-backed sources; see [`CheckRequest::reduce`]).
    #[must_use]
    pub fn reduce(mut self, spec: ReduceSpec) -> Self {
        self.request.reduce = Some(spec);
        self
    }

    /// Finalizes the request without running it.
    pub fn build(self) -> CheckRequest {
        self.request
    }

    /// Builds and runs the request.
    ///
    /// # Errors
    ///
    /// See [`CheckRequest::run`].
    pub fn run(self) -> Result<CheckOutcome, SuiteError> {
        self.request.run()
    }
}

fn gate_lmi(method: Method, order: usize) -> Result<(), SuiteError> {
    if method == Method::Lmi && order > LMI_MAX_ORDER {
        return Err(SuiteError::Unsupported(format!(
            "the LMI baseline is gated to orders <= {LMI_MAX_ORDER} (requested order {order})"
        )));
    }
    Ok(())
}

fn repair_outcome(system: &DescriptorSystem) -> Result<RepairOutcome, SuiteError> {
    let outcome = match enforce_passivity(system, &EnforcementOptions::default())? {
        EnforcementOutcome::AlreadyPassive { .. } => RepairOutcome::unneeded(true),
        EnforcementOutcome::Enforced { resistance, .. } => RepairOutcome {
            enforced: true,
            resistance,
            ..RepairOutcome::unneeded(true)
        },
        EnforcementOutcome::NotEnforceable { reason } => {
            let (_, _, slug) = verdict_fields(&PassivityVerdict::NotPassive { reason });
            RepairOutcome {
                reason: slug.to_string(),
                ..RepairOutcome::unneeded(false)
            }
        }
    };
    Ok(outcome)
}

impl CheckRequest {
    /// Runs the check.
    ///
    /// # Errors
    ///
    /// Returns [`SuiteError::Parse`] (with line/column) for malformed deck
    /// text, [`SuiteError::Circuit`] for stamping failures (whatever source
    /// carried the netlist), [`SuiteError::Passivity`] for a failed Krylov
    /// projection, and [`SuiteError::Unsupported`] for the LMI baseline
    /// above its practical order limit.  A *structurally failing method* is
    /// not an error: it is recorded in [`CheckOutcome::status`], matching the
    /// sweep engine.
    pub fn run(&self) -> Result<CheckOutcome, SuiteError> {
        let _check_span = ds_obs::trace::span("check");
        let reduce = self.reduce.as_ref();
        match &self.source {
            CheckSource::DeckText { name, text } => {
                let deck = ds_obs::trace::in_span("parse", || ds_netlist::parse_deck(text))?;
                let hash = deck.content_hash();
                let name = name.clone().unwrap_or_else(|| format!("{hash:016x}"));
                self.execute_deck(&name, &deck, hash)
            }
            CheckSource::Deck { name, deck, hash } => self.execute_deck(name, deck, *hash),
            CheckSource::Netlist { name, netlist } => {
                self.execute(Subject::Netlist(name, netlist, reduce))
            }
            CheckSource::Model(model) => {
                self.reject_reduce("model")?;
                self.execute(Subject::Model(model, true))
            }
            CheckSource::System { name, system } => {
                self.reject_reduce("system")?;
                let model = CircuitModel {
                    name: name.clone(),
                    system: system.as_ref().clone(),
                    expected_passive: false,
                    has_impulsive_modes: false,
                };
                self.execute(Subject::Model(&model, false))
            }
        }
    }

    fn reject_reduce(&self, family: &str) -> Result<(), SuiteError> {
        if self.reduce.is_some() {
            return Err(SuiteError::Unsupported(format!(
                "Krylov reduction needs a netlist to stamp sparsely; {family} sources are already dense"
            )));
        }
        Ok(())
    }

    fn execute_deck(&self, name: &str, deck: &Deck, hash: u64) -> Result<CheckOutcome, SuiteError> {
        let mut outcome = self.execute(Subject::Deck(name, deck, hash, self.reduce.as_ref()))?;
        outcome.name = name.to_string();
        outcome.canonical_hash = Some(hash);
        Ok(outcome)
    }

    /// Gates LMI on the order the method runs at, builds the model, runs
    /// the check, and repairs that same model on request.  A dense check is
    /// gated before stamping; the Krylov path knows its order only once
    /// reduced.
    fn execute(&self, subject: Subject<'_>) -> Result<CheckOutcome, SuiteError> {
        if self.reduce.is_none() {
            gate_lmi(self.method, subject.order())?;
        }
        let mut check = subject
            .build(self.method)
            .map_err(|failed| SuiteError::from(failed.1))?;
        if self.reduce.is_some() {
            gate_lmi(self.method, check.model.system.order())?;
        }
        check.run();
        let mut outcome = CheckOutcome::from_record(&check.record);
        outcome.report = check.report;
        if self.repair {
            outcome.repair = Some(match outcome.passive {
                Some(false) => {
                    ds_obs::trace::in_span("repair", || repair_outcome(&check.model.system))?
                }
                passive => RepairOutcome::unneeded(passive == Some(true)),
            });
        }
        Ok(outcome)
    }
}

/// Loads every `*.cir` deck under `dir` as sweep scenarios, with harness
/// errors lifted into [`SuiteError`] — the deck-ingestion entry point shared
/// by `ds-sweep --decks`, the daemon's corpus warm-up, and the load
/// generator.
///
/// # Errors
///
/// Reports I/O failures and the first parse failure (with its file path).
pub fn load_deck_scenarios(dir: &std::path::Path) -> Result<Vec<Scenario>, SuiteError> {
    ds_harness::deck_scenarios_from_dir(dir).map_err(SuiteError::Harness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_circuits::generators;
    use ds_harness::{run_sweep, scenario_matrix, SweepSpec};
    use std::time::Duration;

    const DECK: &str =
        "* divider\nR1 in mid 2\nL1 mid out 0.5\nC1 out 0 1\nR2 out 0 10\n.port in\n.end\n";

    #[test]
    fn deck_text_checks_and_names_default_to_the_hash() {
        let outcome = PassivityCheck::deck_text(DECK).run().unwrap();
        assert_eq!(outcome.record.family, "deck");
        assert_eq!(outcome.status, TaskStatus::Ok);
        assert_eq!(outcome.passive, Some(true));
        assert_eq!(outcome.record.agrees, Some(true));
        let hash = outcome.canonical_hash.unwrap();
        assert_eq!(outcome.name, format!("{hash:016x}"));
        assert_eq!(outcome.record.seed, ds_harness::deck_seed(hash));
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = PassivityCheck::deck_text("R1 in 0 nonsense\n.port in\n.end\n")
            .run()
            .unwrap_err();
        let (line, col) = err.parse_location().expect("parse location");
        assert_eq!(line, 1);
        assert!(col > 1);
    }

    #[test]
    fn deck_outcomes_match_sweep_records_field_for_field() {
        let deck = ds_netlist::parse_deck(DECK).unwrap();
        let scenario = Scenario::from_deck("divider", &deck);
        for method in [Method::Proposed, Method::Weierstrass, Method::Lmi] {
            let tasks = scenario_matrix(std::slice::from_ref(&scenario), &[method]);
            let sweep = run_sweep(&SweepSpec::new(tasks, 1));
            let from_sweep = CheckOutcome::from_record(&sweep.records[0]).report_json();
            let fresh = PassivityCheck::deck("divider", deck.clone())
                .method(method)
                .run()
                .unwrap()
                .report_json();
            assert_eq!(fresh, from_sweep, "{method} diverged from the engine");
        }
    }

    #[test]
    fn report_json_is_deterministic_and_name_free() {
        let a = PassivityCheck::deck_text(DECK).run().unwrap();
        let b = PassivityCheck::deck_text(DECK).name("other").run().unwrap();
        assert_eq!(a.report_json(), b.report_json());
        assert!(a
            .report_json()
            .starts_with("{\"schema\":\"ds-check-report/v2\""));
    }

    #[test]
    fn report_json_is_identical_with_and_without_volatile_timings() {
        let outcome = PassivityCheck::deck_text(DECK).run().unwrap();
        // A traced sweep of the same deck carries the volatile fields; they
        // must be populated, or the exclusion check below would pass
        // vacuously.
        let deck = ds_netlist::parse_deck(DECK).unwrap();
        let tasks = scenario_matrix(
            &[Scenario::from_deck("divider", &deck)],
            &[Method::Proposed],
        );
        let sweep = run_sweep(&SweepSpec {
            trace: true,
            ..SweepSpec::new(tasks, 1)
        });
        let record = sweep.records[0].clone();
        assert!(record.stage_ns.is_some(), "record lost its span tree");
        assert!(record.elapsed > Duration::ZERO);
        let mut stripped = record.clone();
        stripped.stage_ns = None;
        stripped.elapsed = Duration::ZERO;
        stripped.worker = 0;
        assert_eq!(
            CheckOutcome::from_record(&record).report_json(),
            CheckOutcome::from_record(&stripped).report_json()
        );
        assert_eq!(
            outcome.report_json(),
            CheckOutcome::from_record(&record).report_json()
        );
        for leaked in ["stage_ns", "elapsed", "worker", "start_ns"] {
            assert!(
                !outcome.report_json().contains(leaked),
                "volatile field {leaked:?} leaked into the stable report"
            );
        }
    }

    #[test]
    fn tracing_captures_stage_spans_without_changing_the_report() {
        let untraced = PassivityCheck::deck_text(DECK).run().unwrap();
        ds_obs::trace::begin("pipeline-test");
        let traced = PassivityCheck::deck_text(DECK).run().unwrap();
        let trace = ds_obs::trace::end().expect("trace");
        // Verdicts are byte-identical with tracing on.
        assert_eq!(untraced.report_json(), traced.report_json());
        let find = |name: &str| trace.spans.iter().find(|s| s.name == name).expect(name);
        assert_eq!(find("check").parent, None);
        for child in ["parse", "stamp", "method"] {
            assert_eq!(find(child).parent, Some(find("check").seq), "{child}");
        }
        // The proposed test's stages run under `method`, once each, and add
        // up to no more than it.
        let method = find("method");
        for stage in &ds_obs::STAGES[2..] {
            assert_eq!(find(stage).parent, Some(method.seq), "{stage}");
        }
        assert!(method.elapsed_ns > 0);
        let stage_sum: u64 = ds_obs::STAGES[2..].iter().map(|s| find(s).elapsed_ns).sum();
        assert!(stage_sum <= method.elapsed_ns);
        assert!(trace
            .spans
            .iter()
            .all(|s| !ds_obs::STAGES[..2].contains(&&*s.name)));
    }

    fn traced(check: PassivityCheck) -> (CheckOutcome, ds_obs::trace::Trace) {
        ds_obs::trace::begin("stage-spans");
        let outcome = check.run().unwrap();
        (outcome, ds_obs::trace::end().unwrap())
    }

    #[test]
    fn proposed_stage_spans_cover_the_method_span() {
        let model = generators::rlc_ladder_with_impulsive(60).unwrap();
        let (outcome, trace) = traced(PassivityCheck::model(model));
        assert_eq!(outcome.passive, Some(true));
        let method = trace.spans.iter().find(|s| s.name == "method").unwrap();
        let stages: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(method.seq))
            .collect();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ds_obs::STAGES[2..]);
        let covered: u64 = stages.iter().map(|s| s.elapsed_ns).sum();
        let share = covered as f64 / method.elapsed_ns as f64;
        assert!(
            (0.99..=1.0).contains(&share),
            "stages cover {share:.4} of `method`"
        );
    }

    #[test]
    fn overlapped_stage_spans_cover_the_method_span() {
        // 2n_p = 194: with a spare core, a helper computes the zeros of Φ
        // beside the split.
        let model = generators::rlc_ladder_with_impulsive(100).unwrap();
        let (outcome, trace) = traced(PassivityCheck::model(model));
        assert_eq!(outcome.passive, Some(true));
        let method = trace.spans.iter().find(|s| s.name == "method").unwrap();
        let stages: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(method.seq))
            .collect();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ds_obs::STAGES[2..]);
        let covered: u64 = stages.iter().map(|s| s.elapsed_ns).sum();
        let share = covered as f64 / method.elapsed_ns as f64;
        assert!(
            (0.99..=1.0).contains(&share),
            "stages cover {share:.4} of `method`"
        );
        let zeros: Vec<_> = trace.spans.iter().filter(|s| s.name == "zeros").collect();
        assert_eq!(zeros.len(), 1, "one eigensolve");
        let zeros = zeros[0];
        let stage = |name: &str| *stages.iter().find(|s| s.name == name).unwrap();
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            let split = stage("split");
            assert_eq!(zeros.parent, Some(split.seq));
            assert!(zeros.start_ns >= split.start_ns);
            assert!(zeros.start_ns + zeros.elapsed_ns <= split.start_ns + split.elapsed_ns);
        } else {
            assert_eq!(zeros.parent, Some(stage("pr_test").seq));
        }
    }

    #[test]
    fn baseline_traces_hold_no_stage_span() {
        let model = generators::rlc_ladder_with_impulsive(12).unwrap();
        for method in [Method::Weierstrass, Method::Lmi] {
            let (outcome, trace) = traced(PassivityCheck::model(model.clone()).method(method));
            assert_eq!(outcome.passive, Some(true), "{method}");
            let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["check", "method"], "{method}");
        }
    }

    #[test]
    fn model_sources_keep_ground_truth_and_report() {
        let model = generators::nonpassive_ladder(8).unwrap();
        let outcome = PassivityCheck::model(model).run().unwrap();
        assert_eq!(outcome.passive, Some(false));
        assert_eq!(outcome.record.agrees, Some(true));
        assert!(outcome.report.is_some());
        assert!(!outcome.reason.is_empty());
    }

    #[test]
    fn system_sources_have_no_ground_truth() {
        let model = generators::rc_ladder(4, 1.0, 1.0).unwrap();
        let outcome = PassivityCheck::system("bare", model.system).run().unwrap();
        assert_eq!(outcome.passive, Some(true));
        assert_eq!(outcome.record.expected_passive, None);
        assert_eq!(outcome.record.agrees, None);
    }

    #[test]
    fn repair_enforces_a_repairable_violation() {
        let model = generators::nonpassive_ladder(8).unwrap();
        let outcome = PassivityCheck::model(model).repair(true).run().unwrap();
        let repair = outcome.repair.expect("repair outcome");
        assert!(repair.enforced);
        assert!(repair.resistance > 0.0);
        assert!(repair.passive_after);
        // A passive model asks for no perturbation.
        let passive = generators::rc_ladder(4, 1.0, 1.0).unwrap();
        let outcome = PassivityCheck::model(passive).repair(true).run().unwrap();
        let repair = outcome.repair.expect("repair outcome");
        assert!(!repair.enforced);
        assert_eq!(repair.resistance, 0.0);
        assert!(repair.passive_after);
    }

    #[test]
    fn repair_reports_unenforceable_violations() {
        let model = generators::negative_m1_model(8).unwrap();
        let outcome = PassivityCheck::model(model).repair(true).run().unwrap();
        let repair = outcome.repair.expect("repair outcome");
        assert!(!repair.enforced);
        assert!(!repair.passive_after);
        assert!(!repair.reason.is_empty());
    }

    #[test]
    fn reduce_path_agrees_with_the_dense_check() {
        let netlist = generators::reduced_ladder_netlist(100, true).unwrap();
        let dense = PassivityCheck::netlist("ladder", netlist.clone())
            .run()
            .unwrap();
        let reduced = PassivityCheck::netlist("ladder", netlist)
            .reduce(ReduceSpec::default())
            .run()
            .unwrap();
        assert_eq!(reduced.passive, dense.passive);
        assert_eq!(reduced.passive, Some(true));
        assert_eq!(reduced.record.agrees, Some(true));
        // The outcome reports the original order plus the compression.
        assert_eq!(reduced.order, dense.order);
        assert_eq!(reduced.reduced_order, Some(48));
        assert!(reduced.residual.unwrap() >= 0.0);
        assert!(reduced.record.reduction_ns.unwrap() > 0);
        assert!(dense.reduced_order.is_none());
        // The reduction shows up in the stable report; its timing does not.
        let report = reduced.report_json();
        assert!(report.contains("\"reduced_order\":48"));
        assert!(!report.contains("reduction_ns"));
    }

    #[test]
    fn reduce_path_traces_sparse_stamp_and_projection() {
        ds_obs::trace::begin("reduce-test");
        let outcome = PassivityCheck::deck_text(DECK)
            .reduce(ReduceSpec::default())
            .run()
            .unwrap();
        let trace = ds_obs::trace::end().expect("trace");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in ["check", "parse", "stamp_sparse", "reduce", "method"] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        // Order 4 passes through the projection exactly, so the verdict
        // matches the direct check field-for-field except the reduce fields.
        assert_eq!(outcome.passive, Some(true));
        assert_eq!(outcome.reduced_order, Some(outcome.order));
        assert_eq!(outcome.residual, Some(0.0));
        let direct = PassivityCheck::deck_text(DECK).run().unwrap();
        assert_eq!(outcome.record.seed, direct.record.seed);
        assert_eq!(outcome.canonical_hash, direct.canonical_hash);
        assert_eq!(outcome.record.family, "deck");
    }

    #[test]
    fn unstampable_decks_fail_with_one_error_kind_whatever_the_source() {
        // Parses, but the joint coupled inductance matrix is indefinite.
        let text = "LA a 0 1\nLB b 0 1\nLC c 0 1\nK1 LA LB 0.9\nK2 LB LC 0.9\nK3 LA LC -0.9\n.port a\n.end\n";
        let deck = ds_netlist::parse_deck(text).unwrap();
        let as_deck = PassivityCheck::deck("bad", deck.clone()).run().unwrap_err();
        let as_netlist = PassivityCheck::netlist("bad", deck.netlist)
            .run()
            .unwrap_err();
        assert_eq!(as_deck.kind(), "circuit", "{as_deck}");
        assert_eq!(as_netlist.kind(), "circuit", "{as_netlist}");
    }

    #[test]
    fn krylov_breakdowns_surface_as_passivity_errors_and_build_error_records() {
        // A port across one node has a zero input column, so the Krylov
        // start block K⁻¹B vanishes once the order exceeds the target.
        let mut netlist = generators::reduced_ladder_netlist(10, false).unwrap();
        netlist.ports[0].node_minus = netlist.ports[0].node_plus;
        let spec = ReduceSpec {
            target_order: 4,
            ..ReduceSpec::default()
        };
        let err = PassivityCheck::netlist("degenerate", netlist.clone())
            .reduce(spec)
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), "passivity", "{err}");
        assert!(err.to_string().contains("start block vanished"), "{err}");
        // The record the sweep workers' check produces names the failure.
        let subject = Subject::Netlist("degenerate", &netlist, Some(&spec));
        let record = subject.build(Method::Proposed).unwrap_err().0;
        assert_eq!(record.status, TaskStatus::BuildError);
        assert!(
            record.reason.starts_with("krylov reduction failed: "),
            "{record:?}"
        );
    }

    #[test]
    fn reduce_is_rejected_for_dense_sources() {
        let model = generators::rc_ladder(4, 1.0, 1.0).unwrap();
        let err = PassivityCheck::system("bare", model.system.clone())
            .reduce(ReduceSpec::default())
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        let err = PassivityCheck::model(model)
            .reduce(ReduceSpec::default())
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
    }

    #[test]
    fn lmi_is_gated_above_its_practical_order() {
        let model = generators::rlc_ladder_with_impulsive(80).unwrap();
        let err = PassivityCheck::model(model)
            .method(Method::Lmi)
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        // A dense deck is refused before it is stamped.
        let netlist = generators::reduced_ladder_netlist(40, false).unwrap();
        ds_obs::trace::begin("lmi-gate");
        let err = PassivityCheck::deck_text(ds_netlist::render_netlist(&netlist, None))
            .method(Method::Lmi)
            .run()
            .unwrap_err();
        let trace = ds_obs::trace::end().expect("trace");
        assert_eq!(err.kind(), "unsupported");
        assert!(trace.spans.iter().all(|s| s.name != "stamp"));
    }
}
