//! One check, from subject to record: what every sweep worker and the
//! `CheckRequest` API run, so a verdict is the same on every surface.  The
//! model is built under its own span, the method under `method`.

use crate::method::{run_method, Method};
use crate::reduce::{reduce_netlist, ReductionStats};
use crate::scenario::{deck_seed, FamilyKind, Scenario};
use crate::store::record_fingerprint;
use crate::sweep::{verdict_fields, verdict_witness, SweepRecord, TaskStatus};
use ds_circuits::generators::CircuitModel;
use ds_circuits::{mna, CircuitError, Element, Netlist};
use ds_netlist::Deck;
use ds_obs::trace::{in_span, span};
use ds_passivity::PassivityReport;
use ds_shh::krylov::ReduceSpec;
use ds_shh::ShhError;
use std::borrow::Cow;
use std::time::Instant;

/// Why a check's model could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Generating, validating or stamping the circuit failed.
    Circuit(CircuitError),
    /// The Krylov projection of a reduce-then-verify check failed.
    Reduction(ShhError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Circuit(e) => write!(f, "{e}"),
            BuildError::Reduction(e) => write!(f, "krylov reduction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CircuitError> for BuildError {
    fn from(e: CircuitError) -> Self {
        BuildError::Circuit(e)
    }
}

/// What one check runs on.
#[derive(Debug, Clone, Copy)]
pub enum Subject<'a> {
    /// A sweep scenario: a generator family or a parsed deck.
    Scenario(&'a Scenario),
    /// `(name, deck, reduce)`: a parsed deck (family `deck`, keyed by its
    /// canonical hash), stamped densely or, with a reduce spec,
    /// Krylov-reduced.
    Deck(&'a str, &'a Deck, Option<&'a ReduceSpec>),
    /// `(name, netlist, reduce)`: an in-memory netlist (family `netlist`),
    /// stamped densely or Krylov-reduced.
    Netlist(&'a str, &'a Netlist, Option<&'a ReduceSpec>),
    /// `(model, ground_truth)`: a built model (family `model`), or, when its
    /// `expected_passive` is no ground truth, a bare system (family `system`).
    Model(&'a CircuitModel, bool),
}

/// A check of one subject: built by [`Subject::build`], run by [`Check::run`].
#[derive(Debug)]
pub struct Check<'a> {
    method: Method,
    /// The record, as a sweep over the same subject would emit it.
    pub record: SweepRecord,
    /// The model the method runs on (the reduced one on the Krylov path).
    pub model: Cow<'a, CircuitModel>,
    /// The method's full report, once it returned one.
    pub report: Option<PassivityReport>,
}

/// Stamps `netlist` densely or reduces it.  Ground truth is `expect`, else
/// passivity by construction — element-wise only on the Krylov path, whose
/// sparse stamp already checked the coupled inductance blocks.
pub(crate) fn netlist_model(
    name: String,
    netlist: &Netlist,
    expect: Option<bool>,
    reduce: Option<&ReduceSpec>,
) -> Result<(CircuitModel, Option<ReductionStats>), BuildError> {
    let (system, stats, expected_passive) = match reduce {
        None => (
            in_span("stamp", || mna::stamp(netlist))?,
            None,
            expect.unwrap_or_else(|| netlist.is_passive_by_construction()),
        ),
        Some(spec) => {
            let (system, stats) = reduce_netlist(netlist, spec)?;
            let passive = || netlist.elements.iter().all(Element::is_passive);
            (system, Some(stats), expect.unwrap_or_else(passive))
        }
    };
    let model = CircuitModel {
        name,
        system,
        expected_passive,
        has_impulsive_modes: false,
    };
    Ok((model, stats))
}

impl<'a> Subject<'a> {
    /// The record a check of this subject starts from: identity fields set,
    /// outcome fields empty.
    fn record(&self, method: Method) -> SweepRecord {
        let (family, ports, seed, margin) = match *self {
            Subject::Scenario(s) => (s.family.name(), s.ports, s.seed, s.margin),
            Subject::Deck(_, deck, _) => (
                FamilyKind::Deck.name(),
                deck.netlist.ports.len(),
                deck_seed(deck.content_hash()),
                0.0,
            ),
            Subject::Netlist(_, n, _) => ("netlist", n.ports.len(), 0, 0.0),
            Subject::Model(model, _) => {
                let family = if self.has_truth() { "model" } else { "system" };
                (family, model.system.num_inputs(), 0, 0.0)
            }
        };
        SweepRecord {
            family,
            order: self.order(),
            ports,
            seed,
            margin,
            method: method.name(),
            ..SweepRecord::default()
        }
    }

    /// The order of the subject's full (unreduced) model, known before it
    /// is built.
    pub fn order(&self) -> usize {
        match *self {
            Subject::Scenario(s) => s.order(),
            Subject::Deck(_, deck, _) => deck.netlist.state_dimension(),
            Subject::Netlist(_, n, _) => n.state_dimension(),
            Subject::Model(model, _) => model.system.order(),
        }
    }

    /// Whether the model's `expected_passive` is known ground truth.
    fn has_truth(&self) -> bool {
        !matches!(self, Subject::Model(_, false))
    }

    /// The store fingerprint of this subject's record, known before the
    /// check runs.  A reduced deck's record is told apart by its
    /// `reduced_order`, which this placeholder stands in for.
    pub fn fingerprint(&self, method: Method) -> String {
        let mut record = self.record(method);
        if let Subject::Deck(.., Some(_)) = self {
            record.reduced_order = Some(0);
        }
        record_fingerprint(&record)
    }

    /// Builds the subject's model for a check with `method`.
    ///
    /// # Errors
    ///
    /// Returns the record of the failed build (status `build_error`, the
    /// error text as its reason) together with the error itself.
    pub fn build(&self, method: Method) -> Result<Check<'a>, Box<(SweepRecord, BuildError)>> {
        let mut record = self.record(method);
        let built = match *self {
            Subject::Scenario(s) if s.family == FamilyKind::Reduced => {
                crate::reduce::build_reduced(s)
                    .map(|(model, stats)| (Cow::Owned(model), Some(stats)))
            }
            Subject::Scenario(s) => {
                let _span = (s.family != FamilyKind::Deck).then(|| span("build"));
                s.build().map(|model| (Cow::Owned(model), None))
            }
            Subject::Deck(name, deck, reduce) => {
                netlist_model(format!("deck({name})"), &deck.netlist, deck.expect, reduce)
                    .map(|(model, stats)| (Cow::Owned(model), stats))
            }
            Subject::Netlist(name, netlist, reduce) => {
                netlist_model(name.to_string(), netlist, None, reduce)
                    .map(|(model, stats)| (Cow::Owned(model), stats))
            }
            Subject::Model(model, _) => Ok((Cow::Borrowed(model), None)),
        };
        let (model, stats) = match built {
            Ok(built) => built,
            Err(e) => {
                record.status = TaskStatus::BuildError;
                record.reason = e.to_string();
                return Err(Box::new((record, e)));
            }
        };
        if let Some(stats) = stats {
            record.reduced_order = Some(stats.reduced_order);
            record.residual = Some(stats.residual);
            record.reduction_ns = Some(stats.reduction_ns);
        }
        record.scenario = model.name.clone();
        record.expected_passive = self.has_truth().then_some(model.expected_passive);
        Ok(Check {
            method,
            record,
            model,
            report: None,
        })
    }
}

impl Check<'_> {
    /// Runs the method under the `method` span and completes the record.  A
    /// method that fails structurally is recorded (`method_error`), not
    /// returned.
    pub fn run(&mut self) {
        let start = Instant::now();
        let result = in_span("method", || run_method(self.method, &self.model));
        let record = &mut self.record;
        record.elapsed = start.elapsed();
        match result {
            Ok(report) => {
                let (passive, strict, slug) = verdict_fields(&report.verdict);
                record.passive = Some(passive);
                record.strict = strict;
                record.reason = slug.to_string();
                record.agrees = record.expected_passive.map(|e| e == passive);
                record.witness_frequency = verdict_witness(&report.verdict);
                self.report = Some(report);
            }
            Err(e) => {
                record.status = TaskStatus::MethodError;
                record.reason = e.to_string();
            }
        }
    }
}
