//! Artifact rendering: JSONL and CSV serialization of sweep records,
//! self-validation of the emitted artifacts, and aggregate summaries.
//!
//! The JSONL lines contain only *deterministic* fields (no wall-clock
//! timings, no worker ids), so the sorted JSONL artifact of a sweep is
//! byte-identical no matter how many threads produced it — the property the
//! determinism test pins.  Timings live in the CSV artifact.

use crate::json;
use crate::sweep::{SweepRecord, SweepResult, TaskStatus};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Renders the deterministic JSONL line for one record (no trailing newline).
pub fn jsonl_line(record: &SweepRecord) -> String {
    format!(
        concat!(
            "{{\"task\":{},\"family\":{},\"scenario\":{},\"order\":{},\"ports\":{},",
            "\"seed\":{},\"margin\":{},\"method\":{},\"status\":{},\"passive\":{},",
            "\"strict\":{},\"reason\":{},\"expected_passive\":{},\"agrees\":{},",
            "\"violation_count\":{},\"witness_frequency\":{},",
            "\"reduced_order\":{},\"residual\":{}}}"
        ),
        record.task_id,
        json::quote(record.family),
        json::quote(&record.scenario),
        record.order,
        record.ports,
        record.seed,
        json::number(record.margin),
        json::quote(record.method),
        json::quote(record.status.name()),
        json::opt_bool(record.passive),
        record.strict,
        json::quote(&record.reason),
        json::opt_bool(record.expected_passive),
        json::opt_bool(record.agrees),
        json::opt_usize(record.violation_count),
        json::opt_number(record.witness_frequency),
        json::opt_usize(record.reduced_order),
        json::opt_number(record.residual),
    )
}

/// Renders the *segment* JSONL line for one record: the canonical line plus
/// the volatile `reduction_ns` timing.  Store segments persist the reduction
/// wall time; the canonical merged/sweep artifacts stay byte-deterministic by
/// excluding it (the parser accepts both forms).
pub fn segment_jsonl_line(record: &SweepRecord) -> String {
    let line = jsonl_line(record);
    match record.reduction_ns {
        None => line,
        Some(ns) => format!(
            "{},\"reduction_ns\":{ns}}}",
            line.strip_suffix('}').expect("jsonl_line ends with '}'")
        ),
    }
}

/// Renders the full segment JSONL text (one [`segment_jsonl_line`] per
/// record).
pub fn render_segment_jsonl(records: &[SweepRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&segment_jsonl_line(record));
        out.push('\n');
    }
    out
}

/// Renders the full sorted JSONL artifact (one line per record).
pub fn render_jsonl(records: &[SweepRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&jsonl_line(record));
        out.push('\n');
    }
    out
}

/// The CSV artifact header.
pub const CSV_HEADER: &str = "task,family,scenario,order,ports,seed,margin,method,status,passive,\
strict,reason,expected_passive,agrees,violation_count,witness_frequency,reduced_order,residual,\
reduction_ns,elapsed_seconds,worker";

fn csv_quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn opt_bool_csv(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "true",
        Some(false) => "false",
        None => "",
    }
}

/// Renders one CSV row (timing and worker columns included).
pub fn csv_line(record: &SweepRecord) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{}",
        record.task_id,
        csv_quote(record.family),
        csv_quote(&record.scenario),
        record.order,
        record.ports,
        record.seed,
        record.margin,
        csv_quote(record.method),
        record.status.name(),
        opt_bool_csv(record.passive),
        record.strict,
        csv_quote(&record.reason),
        opt_bool_csv(record.expected_passive),
        opt_bool_csv(record.agrees),
        record
            .violation_count
            .map_or(String::new(), |v| v.to_string()),
        record
            .witness_frequency
            .map_or(String::new(), |v| v.to_string()),
        record
            .reduced_order
            .map_or(String::new(), |v| v.to_string()),
        record.residual.map_or(String::new(), |v| v.to_string()),
        record.reduction_ns.map_or(String::new(), |v| v.to_string()),
        record.elapsed.as_secs_f64(),
        record.worker,
    )
}

/// Renders the full CSV artifact.
pub fn render_csv(records: &[SweepRecord]) -> String {
    let mut out = String::with_capacity(64 * (records.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for record in records {
        out.push_str(&csv_line(record));
        out.push('\n');
    }
    out
}

/// Keys every JSONL record line must carry.
const JSONL_REQUIRED_KEYS: &[&str] = &[
    "task",
    "family",
    "scenario",
    "order",
    "ports",
    "seed",
    "margin",
    "method",
    "status",
    "passive",
    "strict",
    "reason",
    "expected_passive",
    "agrees",
    "violation_count",
    "reduced_order",
    "residual",
];

/// Validates a JSONL artifact: every line must parse as a JSON object with
/// the full record schema.  Returns the number of records.
///
/// # Errors
///
/// Describes the first offending line.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        for key in JSONL_REQUIRED_KEYS {
            if value.get(key).is_none() {
                return Err(format!("line {}: missing key '{key}'", lineno + 1));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Validates a CSV artifact: header must match and every row must have the
/// same number of fields as the header.  Quoted fields may legally contain
/// commas, escaped quotes and newlines (error texts can be multi-line), so
/// rows are split quote-aware rather than per physical line.  `\r\n` line
/// endings are tolerated outside quotes.  Returns the number of data rows.
///
/// # Errors
///
/// Describes the first offending row by the physical line it starts on.
pub fn validate_csv(text: &str) -> Result<usize, String> {
    let mut rows = split_csv_rows(text)?.into_iter();
    let header = rows.next().ok_or_else(|| "empty CSV".to_string())?;
    if header.raw != CSV_HEADER {
        return Err(format!("unexpected CSV header: {}", header.raw));
    }
    let expected_fields = CSV_HEADER.split(',').count();
    let mut count = 0usize;
    for row in rows {
        if row.raw.trim().is_empty() {
            continue;
        }
        if row.fields.len() != expected_fields {
            return Err(format!(
                "row at line {}: {} fields, expected {expected_fields}",
                row.line,
                row.fields.len()
            ));
        }
        count += 1;
    }
    Ok(count)
}

struct CsvRow {
    raw: String,
    fields: Vec<String>,
    /// 1-based physical line on which the row starts (quoted fields may span
    /// several physical lines, so this is not simply the row's index).
    line: usize,
}

/// Splits a CSV document into logical rows, honouring quoted fields (which
/// may contain commas, doubled quotes and embedded newlines).  A `\r\n`
/// sequence outside quotes terminates a row just like a bare `\n`; inside
/// quotes `\r` is preserved as field content.
fn split_csv_rows(text: &str) -> Result<Vec<CsvRow>, String> {
    let mut rows = Vec::new();
    let mut raw = String::new();
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut row_start_line = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(ch) = chars.next() {
        if ch == '\r' && !in_quotes && chars.peek() == Some(&'\n') {
            // CRLF row terminator: drop the `\r`, let the `\n` end the row.
            continue;
        }
        if ch == '\n' {
            line += 1;
        }
        if ch != '\n' || in_quotes {
            raw.push(ch);
        }
        match ch {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                current.push('"');
                raw.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut current)),
            '\n' if !in_quotes => {
                fields.push(std::mem::take(&mut current));
                rows.push(CsvRow {
                    raw: std::mem::take(&mut raw),
                    fields: std::mem::take(&mut fields),
                    line: row_start_line,
                });
                row_start_line = line;
            }
            c => current.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".to_string());
    }
    if !raw.is_empty() || !current.is_empty() || !fields.is_empty() {
        fields.push(current);
        rows.push(CsvRow {
            raw,
            fields,
            line: row_start_line,
        });
    }
    Ok(rows)
}

/// Aggregate of one (family, method) cell of the sweep.
#[derive(Debug, Clone, Default)]
pub struct FamilyMethodSummary {
    /// Number of tasks in the cell.
    pub tasks: usize,
    /// Passive verdicts.
    pub passive: usize,
    /// Non-passive verdicts.
    pub not_passive: usize,
    /// Build or method errors.
    pub errors: usize,
    /// Verdicts disagreeing with the construction ground truth.
    pub mismatches: usize,
    /// Sum of method wall-clock times.
    pub total_time: Duration,
    /// Slowest single run.
    pub max_time: Duration,
}

/// Per-family/method aggregation plus whole-sweep totals.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// `(family, method) → aggregate`, sorted by key.
    pub cells: BTreeMap<(String, String), FamilyMethodSummary>,
    /// Total number of tasks.
    pub total_tasks: usize,
    /// Total number of errored tasks.
    pub total_errors: usize,
    /// Total number of ground-truth mismatches.
    pub total_mismatches: usize,
    /// Sum of per-task method times (the "serial work" estimate).
    pub total_cpu: Duration,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Workers used.
    pub threads: usize,
}

impl SweepSummary {
    /// Aggregates a sweep result.
    pub fn from_result(result: &SweepResult) -> Self {
        let mut cells: BTreeMap<(String, String), FamilyMethodSummary> = BTreeMap::new();
        let mut total_errors = 0usize;
        let mut total_mismatches = 0usize;
        let mut total_cpu = Duration::ZERO;
        for record in &result.records {
            let cell = cells
                .entry((record.family.to_string(), record.method.to_string()))
                .or_default();
            cell.tasks += 1;
            match record.status {
                TaskStatus::Ok => match record.passive {
                    Some(true) => cell.passive += 1,
                    Some(false) => cell.not_passive += 1,
                    None => {}
                },
                _ => {
                    cell.errors += 1;
                    total_errors += 1;
                }
            }
            if record.agrees == Some(false) {
                cell.mismatches += 1;
                total_mismatches += 1;
            }
            cell.total_time += record.elapsed;
            cell.max_time = cell.max_time.max(record.elapsed);
            total_cpu += record.elapsed;
        }
        SweepSummary {
            cells,
            total_tasks: result.records.len(),
            total_errors,
            total_mismatches,
            total_cpu,
            wall: result.wall,
            threads: result.threads,
        }
    }

    /// Renders the human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>6} {:>8} {:>12} {:>7} {:>9} {:>11} {:>11}",
            "family",
            "method",
            "tasks",
            "passive",
            "not_passive",
            "errors",
            "mismatch",
            "total_s",
            "max_s"
        );
        for ((family, method), cell) in &self.cells {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>6} {:>8} {:>12} {:>7} {:>9} {:>11.4} {:>11.4}",
                family,
                method,
                cell.tasks,
                cell.passive,
                cell.not_passive,
                cell.errors,
                cell.mismatches,
                cell.total_time.as_secs_f64(),
                cell.max_time.as_secs_f64(),
            );
        }
        let _ = writeln!(
            out,
            "# tasks: {} | errors: {} | ground-truth mismatches: {}",
            self.total_tasks, self.total_errors, self.total_mismatches
        );
        let _ = writeln!(
            out,
            "# threads: {} | wall: {:.4}s | serial method time: {:.4}s | pool efficiency: {:.2}x",
            self.threads,
            self.wall.as_secs_f64(),
            self.total_cpu.as_secs_f64(),
            if self.wall.as_secs_f64() > 0.0 {
                self.total_cpu.as_secs_f64() / self.wall.as_secs_f64()
            } else {
                0.0
            },
        );
        out
    }
}

/// Renders the speedup line printed by `ds-sweep --compare-single-thread`:
/// wall-clock of the multi-thread run vs. the single-thread rerun.
pub fn render_speedup(single: &SweepResult, multi: &SweepResult) -> String {
    let t1 = single.wall.as_secs_f64();
    let tn = multi.wall.as_secs_f64().max(1e-12);
    format!(
        "# speedup: {} tasks | threads=1: {:.4}s | threads={}: {:.4}s | speedup: {:.2}x",
        multi.records.len(),
        t1,
        multi.threads,
        tn,
        t1 / tn,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::scenario::{scenario_matrix, FamilyKind, Scenario};
    use crate::sweep::{run_sweep, SweepSpec};
    use std::time::Duration;

    fn small_result() -> SweepResult {
        let scenarios = vec![
            Scenario::new(FamilyKind::RcLadder, 3),
            Scenario::new(FamilyKind::NonpassiveLadder, 6),
            Scenario::new(FamilyKind::PerturbedBoundary, 4).with_margin(0.5),
        ];
        // Traced, so the volatile span trees are populated for the
        // exclusion tests below.
        run_sweep(&SweepSpec {
            trace: true,
            ..SweepSpec::new(
                scenario_matrix(&scenarios, &[Method::Proposed, Method::Weierstrass]),
                2,
            )
        })
    }

    #[test]
    fn jsonl_roundtrips_through_the_parser() {
        let result = small_result();
        let text = render_jsonl(&result.records);
        assert_eq!(validate_jsonl(&text).unwrap(), result.records.len());
        // Spot-check one parsed line.
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("task").unwrap().as_f64(), Some(0.0));
        assert_eq!(first.get("family").unwrap().as_str(), Some("rc_ladder"));
    }

    #[test]
    fn jsonl_contains_no_timing_fields() {
        let result = small_result();
        // The volatile fields must actually be populated before we assert
        // they are excluded — otherwise this test would pass vacuously.
        assert!(
            result
                .records
                .iter()
                .any(|r| r.stage_ns.is_some() && r.elapsed > Duration::ZERO),
            "sweep produced no volatile timings to exclude"
        );
        let text = render_jsonl(&result.records);
        assert!(!text.contains("elapsed"));
        assert!(!text.contains("worker"));
        assert!(!text.contains("stage_ns"));
    }

    #[test]
    fn jsonl_is_identical_with_and_without_volatile_timings() {
        let result = small_result();
        for record in &result.records {
            let mut stripped = record.clone();
            stripped.stage_ns = None;
            stripped.elapsed = Duration::ZERO;
            stripped.worker = 0;
            assert_eq!(jsonl_line(record), jsonl_line(&stripped));
        }
    }

    #[test]
    fn csv_roundtrips_and_counts() {
        let result = small_result();
        let text = render_csv(&result.records);
        assert_eq!(validate_csv(&text).unwrap(), result.records.len());
    }

    #[test]
    fn csv_quoting_survives_commas_and_newlines() {
        let rows = split_csv_rows("a,\"b,c\",\"d\"\"e\",f\n").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].fields, vec!["a", "b,c", "d\"e", "f"]);
        // A quoted field with an embedded newline stays one logical row.
        let rows = split_csv_rows("a,\"line1\nline2\",c\nd,e,f\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].fields[1], "line1\nline2");
        assert!(split_csv_rows("a,\"unterminated\n").is_err());
    }

    #[test]
    fn validate_csv_accepts_multiline_error_reasons() {
        let mut result = small_result();
        result.records[0].reason = "first line\nsecond, quoted \"line\"".to_string();
        let text = render_csv(&result.records);
        assert_eq!(validate_csv(&text).unwrap(), result.records.len());
    }

    #[test]
    fn validators_reject_corruption() {
        assert!(validate_jsonl("{\"task\":0}").is_err());
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_csv("wrong,header\n1,2").is_err());
        let bad_row = format!("{CSV_HEADER}\n1,2,3");
        assert!(validate_csv(&bad_row).is_err());
    }

    #[test]
    fn csv_errors_report_physical_lines() {
        // A blank line and a multi-line quoted field both precede the bad
        // row; the reported line must be the row's physical position, not a
        // drifted logical count.
        let good = csv_line(&small_result().records[0]);
        let multiline = good.replacen("rc_ladder", "\"rc\nladder\"", 1);
        let doc = format!("{CSV_HEADER}\n\n{multiline}\nbad,row\n");
        let err = validate_csv(&doc).unwrap_err();
        // Header = line 1, blank = line 2, multi-line row = lines 3-4, so the
        // offending row starts on physical line 5.
        assert!(err.contains("line 5"), "got: {err}");
    }

    #[test]
    fn csv_tolerates_crlf_line_endings() {
        let result = small_result();
        let text = render_csv(&result.records).replace('\n', "\r\n");
        assert_eq!(validate_csv(&text).unwrap(), result.records.len());
        // `\r` inside a quoted field is content, not a terminator.
        let rows = split_csv_rows("a,\"x\r\ny\",b\r\n").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].fields[1], "x\r\ny");
    }

    #[test]
    fn summary_counts_verdicts_and_mismatches() {
        let result = small_result();
        let summary = SweepSummary::from_result(&result);
        assert_eq!(summary.total_tasks, result.records.len());
        assert_eq!(summary.total_errors, 0);
        assert_eq!(summary.total_mismatches, 0);
        let rendered = summary.render();
        assert!(rendered.contains("rc_ladder"));
        assert!(rendered.contains("perturbed_boundary"));
        assert!(rendered.contains("threads"));
    }

    #[test]
    fn speedup_line_formats() {
        let result = small_result();
        let line = render_speedup(&result, &result);
        assert!(line.contains("speedup"));
        assert!(line.contains("threads=1"));
    }
}
