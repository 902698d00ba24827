//! What one run reports: its metrics, its failure tally, and the one-line
//! JSON result that ends standard output.

use ds_passivity_suite::harness::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Error messages of open defects that can hit any workload: the Jacobi SVD
/// stops at its sweep limit on a few well-posed models (unscaled K-coupled
/// serve decks, two-port random passive descriptors) and the check ends in
/// a method error.
const KNOWN_DEFECT_MESSAGES: [&str; 1] = ["svd::svd failed to converge"];

/// Whether the reason of a check that ended in a method error names one of
/// the open defects in [`KNOWN_DEFECT_MESSAGES`].
pub fn known_method_error(reason: &str) -> bool {
    KNOWN_DEFECT_MESSAGES.iter().any(|m| reason.contains(m))
}

/// One named metric with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Listed in `BENCHMARK.json` and in the result line.  The others are
    /// printed for the reader only.
    pub bounded: bool,
}

/// Counts checks and failures, and collects the output-check violations
/// that make a run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Every distinct input checked, and whether all its checks succeeded.
    pub inputs: BTreeMap<String, bool>,
    /// Failed checks by input (`input → (reason, count)`), so a later change
    /// can see which inputs moved.
    pub failures: BTreeMap<String, (String, u64)>,
    /// Violated output checks (a wrong byte comparison, a malformed deck
    /// answered without its position, a wrong verdict outside the known
    /// defect class, ...).  Any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Tally {
    /// Records one check of `input`.
    pub fn attempt(&mut self, input: &str) {
        self.attempted += 1;
        self.inputs.entry(input.to_string()).or_insert(true);
    }

    /// Records a failed check.  `known` marks a failure in one of the
    /// defect classes open at the commit that defined this benchmark (see
    /// the README): it counts in `failed` and `ok_share`, and is listed,
    /// but does not make the run incorrect.
    pub fn fail(&mut self, input: &str, reason: &str, known: bool) {
        self.failed += 1;
        self.inputs.insert(input.to_string(), false);
        let tag = if known { " [known defect]" } else { "" };
        self.failures
            .entry(input.to_string())
            .or_insert_with(|| (format!("{reason}{tag}"), 0))
            .1 += 1;
        if !known {
            self.violations.push(format!("{input}: {reason}"));
        }
    }

    /// Records a violated output check that is not itself a failed check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Share of distinct inputs whose every check succeeded.  Counting
    /// inputs rather than checks keeps a cached answer from re-counting
    /// the check that produced it.
    pub fn ok_share(&self) -> f64 {
        if self.inputs.is_empty() {
            return 0.0;
        }
        let ok = self.inputs.values().filter(|ok| **ok).count();
        ok as f64 / self.inputs.len() as f64
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.attempted > 0
    }
}

/// Renders the final result line.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().filter(|m| m.bounded).enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&m.name),
            json::number(m.value),
            json::quote(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut tally = Tally::default();
        tally.attempt("deck-0");
        tally.attempt("deck-1");
        tally.attempt("deck-1");
        tally.fail("deck-1", "wrong verdict", true);
        let metrics = [
            Metric {
                name: "check_p5_ms".into(),
                value: 1.25,
                unit: "ms",
                samples: 2,
                bounded: true,
            },
            Metric {
                name: "check_p50_ms".into(),
                value: 1.5,
                unit: "ms",
                samples: 2,
                bounded: false,
            },
        ];
        let line = result_json(&tally, &metrics);
        let value = json::parse(&line).unwrap();
        let keys: Vec<&str> = match &value {
            json::Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("failed").unwrap().as_f64(), Some(1.0));
        let metrics = value.get("metrics").unwrap();
        let metric = metrics.get("check_p5_ms").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.25));
        assert!(metrics.get("check_p50_ms").is_none());
        assert_eq!(tally.ok_share(), 0.5);
    }

    #[test]
    fn unknown_failures_make_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.attempt("deck-2");
        let svd = "numerical kernel failed: svd::svd failed to converge after 60 iterations";
        assert!(known_method_error(svd));
        tally.fail("deck-2", svd, known_method_error(svd));
        assert!(tally.correct());
        assert!(!known_method_error("regularization failed"));
        tally.fail("deck-2", "status 500", false);
        assert!(!tally.correct());
        assert_eq!(tally.failed, 2);
    }
}
