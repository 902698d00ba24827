//! The benchmark's own span recorder for the traced run.
//!
//! Spans are opened around public calls into each layer from the
//! benchmark's files (the program itself is not instrumented).  Each span
//! carries its name, start, end, parent and the id of the check it belongs
//! to; spans are kept in memory and written out as JSONL when the run ends.
//! A span's name is `<layer>.<call>`; its layer is the part before the dot.

use ds_passivity_suite::harness::json;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub check: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A single-threaded in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    check: RefCell<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            check: RefCell::new(String::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new check: later spans carry `id` until the next call.
    pub fn begin_check(&self, id: String) {
        *self.check.borrow_mut() = id;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                check: self.check.borrow().clone(),
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Durations (ms) of the spans named `name` under roots named `root`.
pub fn durations(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && root_name(spans, s) == root)
        .map(Span::ms)
        .collect()
}

/// Distinct span names under roots named `root`, in first-call order.
pub fn names_under(spans: &[Span], root: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for span in spans {
        if span.parent.is_some() && root_name(spans, span) == root && !names.contains(&span.name) {
            names.push(span.name.clone());
        }
    }
    names
}

fn root_name<'a>(spans: &'a [Span], span: &'a Span) -> &'a str {
    let mut current = span;
    while let Some(parent) = current.parent {
        current = &spans[parent];
    }
    &current.name
}

/// Each span's self time: its duration minus the time its children cover.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.ms();
        }
    }
    own
}

/// Per-layer self time under each root kind, and each layer's share of the
/// root spans' total time: `root → layer → (self ms, share)`.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<String, BTreeMap<String, (f64, f64)>> {
    let own = self_ms(spans);
    let mut root_total: BTreeMap<String, f64> = BTreeMap::new();
    let mut table: BTreeMap<String, BTreeMap<String, (f64, f64)>> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(&own) {
        let root = root_name(spans, span).to_string();
        if span.parent.is_none() {
            *root_total.entry(root.clone()).or_default() += span.ms();
        }
        table
            .entry(root)
            .or_default()
            .entry(span.layer().to_string())
            .or_default()
            .0 += self_time;
    }
    for (root, layers) in &mut table {
        let total = root_total.get(root).copied().unwrap_or(0.0);
        for entry in layers.values_mut() {
            entry.1 = if total > 0.0 { entry.0 / total } else { 0.0 };
        }
    }
    table
}

/// The span tree, aggregated by name path: one line per distinct path with
/// its count, total and self time, children under their parents in call
/// order.
pub fn render_tree(spans: &[Span]) -> String {
    struct Row {
        /// Row indices from the root down to this row: sorting by it puts
        /// children under their parents, in first-call order.
        key: Vec<usize>,
        name: String,
        count: usize,
        total: f64,
        own: f64,
    }
    let own = self_ms(spans);
    let mut rows: Vec<Row> = Vec::new();
    let mut row_of_path: HashMap<String, usize> = HashMap::new();
    // Per span: its name path and its row (a parent is recorded before its
    // children).
    let mut placed: Vec<(String, usize)> = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let (path, parent_key) = match span.parent {
            Some(p) => (
                format!("{}/{}", placed[p].0, span.name),
                rows[placed[p].1].key.clone(),
            ),
            None => (span.name.clone(), Vec::new()),
        };
        let row = *row_of_path.entry(path.clone()).or_insert_with(|| {
            let mut key = parent_key;
            key.push(rows.len());
            rows.push(Row {
                key,
                name: span.name.clone(),
                count: 0,
                total: 0.0,
                own: 0.0,
            });
            rows.len() - 1
        });
        rows[row].count += 1;
        rows[row].total += span.ms();
        rows[row].own += own[i];
        placed.push((path, row));
    }
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = String::new();
    for r in &rows {
        let _ = writeln!(
            out,
            "span {:indent$}{} n={} total_ms={:.3} self_ms={:.3}",
            "",
            r.name,
            r.count,
            r.total,
            r.own,
            indent = 2 * (r.key.len() - 1)
        );
    }
    out
}

/// The spans as JSONL: one object per span.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":{},\"check\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            json::quote(&s.name),
            json::quote(&s.check),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::default();
        tracer.begin_check("c1".into());
        tracer.span("root.group", || {
            tracer.span("a.leaf", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.span("b.leaf", || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].check, "c1");
        let own = self_ms(&spans);
        assert!(own[0] >= 0.0 && own[0] < spans[0].ms());
        assert_eq!(durations(&spans, "root.group", "a.leaf").len(), 1);
        let shares = layer_shares(&spans);
        let total: f64 = shares["root.group"].values().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(render_tree(&spans).contains("a.leaf n=1"));
        assert_eq!(render_jsonl(&spans).lines().count(), 3);
    }
}
