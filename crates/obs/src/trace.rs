//! Span-based tracing: thread-local span stacks over [`Instant`], a
//! byte-stable `ds-trace/v1` JSONL export, a text flame-tree renderer, a
//! bounded ring of recent traces, and process-unique trace ids.
//!
//! The recorder is opt-in per thread: [`begin`] arms collection on the
//! calling thread, [`end`] disarms it and returns the collected
//! [`Trace`].  While disarmed (the default), [`span`] costs one
//! thread-local read and allocates nothing, so instrumented library code
//! is effectively free for callers that never trace.
//!
//! # `ds-trace/v1`
//!
//! One JSON object per line, one line per span, integer-nanosecond
//! timestamps (no float formatting → byte-stable across platforms):
//!
//! ```text
//! {"schema":"ds-trace/v1","trace":"<id>","seq":0,"parent":null,"span":"check","depth":0,"start_ns":0,"elapsed_ns":152000}
//! ```
//!
//! `seq` numbers spans in open order, `parent` is the `seq` of the
//! enclosing span (`null` at the root), `depth` its nesting level, and
//! `start_ns` the offset from the trace origin.  Lines are emitted in
//! `seq` order, so parents always precede their children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The trace export schema identifier.
pub const TRACE_SCHEMA: &str = "ds-trace/v1";

/// One completed span inside a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Open-order sequence number, unique within the trace.
    pub seq: usize,
    /// `seq` of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nesting depth (root spans are 0).
    pub depth: usize,
    /// Span name (a [`crate::STAGES`] entry for stage spans).
    pub name: String,
    /// Offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub elapsed_ns: u64,
}

/// A completed trace: an id plus its spans in `seq` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The trace id (the daemon echoes it as `X-Trace-Id`).
    pub id: String,
    /// Spans in open (`seq`) order: parents precede children.
    pub spans: Vec<SpanRecord>,
}

fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Trace {
    /// Renders the trace as `ds-trace/v1` JSONL (one line per span, `seq`
    /// order, trailing newline).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let id = json_quote(&self.id);
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"schema\":\"{TRACE_SCHEMA}\",\"trace\":{id},\"seq\":{},\"parent\":{parent},\"span\":{},\"depth\":{},\"start_ns\":{},\"elapsed_ns\":{}}}\n",
                s.seq,
                json_quote(&s.name),
                s.depth,
                s.start_ns,
                s.elapsed_ns,
            ));
        }
        out
    }

    /// [`Self::render_jsonl`] with `start_ns`/`elapsed_ns` zeroed — the
    /// timestamp-normalized form two identical runs must reproduce
    /// byte-for-byte (pinned by the determinism test).
    pub fn render_jsonl_normalized(&self) -> String {
        let mut zeroed = self.clone();
        for s in &mut zeroed.spans {
            s.start_ns = 0;
            s.elapsed_ns = 0;
        }
        zeroed.render_jsonl()
    }

    /// Total nanoseconds covered by the root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.elapsed_ns)
            .sum()
    }
}

struct Collector {
    id: String,
    origin: Instant,
    next_seq: usize,
    open: Vec<usize>,
    spans: Vec<SpanRecord>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Arms span collection on the calling thread under trace id `id`,
/// discarding any trace already in progress there.
pub fn begin(id: &str) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            id: id.to_string(),
            origin: Instant::now(),
            next_seq: 0,
            open: Vec::new(),
            spans: Vec::new(),
        });
    });
}

/// Disarms collection on the calling thread and returns the trace, if one
/// was armed.  Spans come back in `seq` order.
pub fn end() -> Option<Trace> {
    COLLECTOR.with(|c| c.borrow_mut().take()).map(|collector| {
        let mut spans = collector.spans;
        spans.sort_by_key(|s| s.seq);
        Trace {
            id: collector.id,
            spans,
        }
    })
}

/// An RAII span: opened by [`span`], closed (and recorded) on drop.
/// Disarmed guards (no active trace at open time) do nothing on drop.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    armed: Option<ArmedSpan>,
}

struct ArmedSpan {
    seq: usize,
    parent: Option<usize>,
    depth: usize,
    name: String,
    start_ns: u64,
    started: Instant,
}

/// Opens a span named `name` on the calling thread.  A no-op returning a
/// disarmed guard unless [`begin`] armed this thread.
pub fn span(name: &str) -> SpanGuard {
    let armed = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let collector = slot.as_mut()?;
        let seq = collector.next_seq;
        collector.next_seq += 1;
        let parent = collector.open.last().copied();
        let depth = collector.open.len();
        collector.open.push(seq);
        Some(ArmedSpan {
            seq,
            parent,
            depth,
            name: name.to_string(),
            start_ns: collector.origin.elapsed().as_nanos() as u64,
            started: Instant::now(),
        })
    });
    SpanGuard { armed }
}

/// Runs `f` under a span named `name` (see [`span`]).
pub fn in_span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Records a span timed elsewhere — typically on a helper thread, whose own
/// spans go nowhere — that started at `started` and ran for `elapsed`, as a
/// child of the calling thread's innermost open span.  It takes the next
/// `seq` when recorded.  A no-op unless [`begin`] armed this thread.
pub fn record(name: &str, started: Instant, elapsed: Duration) {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(collector) = slot.as_mut() else {
            return;
        };
        let seq = collector.next_seq;
        collector.next_seq += 1;
        collector.spans.push(SpanRecord {
            seq,
            parent: collector.open.last().copied(),
            depth: collector.open.len(),
            name: name.to_string(),
            start_ns: started
                .saturating_duration_since(collector.origin)
                .as_nanos() as u64,
            elapsed_ns: elapsed.as_nanos() as u64,
        });
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        let elapsed_ns = armed.started.elapsed().as_nanos() as u64;
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(collector) = slot.as_mut() else {
                return; // trace ended while the span was open: drop it
            };
            // Guards drop LIFO in straight-line code; tolerate skews from
            // early `end()` calls by removing this seq wherever it sits.
            collector.open.retain(|&s| s != armed.seq);
            collector.spans.push(SpanRecord {
                seq: armed.seq,
                parent: armed.parent,
                depth: armed.depth,
                name: armed.name,
                start_ns: armed.start_ns,
                elapsed_ns,
            });
        });
    }
}

/// A process-unique trace id: 16 lowercase hex chars — a per-process seed
/// salted with the pid and start time, then a sequence number.
pub fn next_trace_id() -> String {
    static SEED: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // FNV-1a style mix of time and pid.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ nanos;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= u64::from(std::process::id());
        h.wrapping_mul(0x0000_0100_0000_01B3)
    });
    format!(
        "{:08x}{:08x}",
        (seed >> 32) as u32,
        SEQ.fetch_add(1, Ordering::Relaxed) as u32
    )
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded ring of recently rendered traces, keyed by trace id — the
/// store behind the daemon's `GET /trace/<id>` endpoint.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<(String, String)>>,
}

impl TraceRing {
    /// A ring holding at most `capacity` traces (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Inserts a rendered trace body under `id`, evicting the oldest
    /// entry when full.
    pub fn insert(&self, id: &str, body: String) {
        let mut ring = lock(&self.inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((id.to_string(), body));
    }

    /// The rendered body stored under `id`, if still in the ring.
    pub fn get(&self, id: &str) -> Option<String> {
        let ring = lock(&self.inner);
        ring.iter()
            .rev()
            .find(|(k, _)| k == id)
            .map(|(_, body)| body.clone())
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Default)]
struct FlameNode {
    total_ns: u64,
    count: u64,
    children: BTreeMap<String, FlameNode>,
}

/// Renders one or more traces as a sorted text flame tree: siblings are
/// ordered by aggregated time (descending), each line shows the span
/// name, total milliseconds, share of the root total, and hit count; a
/// per-span-name totals table follows.
pub fn render_flame(traces: &[Trace]) -> String {
    let mut root = FlameNode::default();
    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for trace in traces {
        let by_seq: BTreeMap<usize, &SpanRecord> = trace.spans.iter().map(|s| (s.seq, s)).collect();
        for span in &trace.spans {
            // Path from root to this span via the parent chain.
            let mut path = vec![span.name.as_str()];
            let mut cursor = span.parent;
            while let Some(p) = cursor {
                let Some(parent) = by_seq.get(&p) else { break };
                path.push(parent.name.as_str());
                cursor = parent.parent;
            }
            path.reverse();
            let mut node = &mut root;
            for name in path {
                node = node.children.entry(name.to_string()).or_default();
            }
            node.total_ns = node.total_ns.saturating_add(span.elapsed_ns);
            node.count += 1;
            let entry = by_name.entry(span.name.clone()).or_default();
            entry.0 = entry.0.saturating_add(span.elapsed_ns);
            entry.1 += 1;
        }
    }
    let denom: u64 = root
        .children
        .values()
        .map(|n| n.total_ns)
        .sum::<u64>()
        .max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "flame tree ({} trace{}, root total {:.3} ms)\n",
        traces.len(),
        if traces.len() == 1 { "" } else { "s" },
        denom as f64 / 1e6
    ));
    render_children(&root, 0, denom, &mut out);
    out.push_str("\nper-span totals\n");
    let mut rows: Vec<(&String, &(u64, u64))> = by_name.iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(b.0)));
    for (name, (ns, count)) in rows {
        out.push_str(&format!(
            "  {name:<24} {:>12.3} ms {:>6.1}%  n={count}\n",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / denom as f64,
        ));
    }
    out
}

fn render_children(node: &FlameNode, depth: usize, denom: u64, out: &mut String) {
    let mut kids: Vec<(&String, &FlameNode)> = node.children.iter().collect();
    kids.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
    for (name, child) in kids {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{name}");
        out.push_str(&format!(
            "{label:<32} {:>12.3} ms {:>6.1}%  n={}\n",
            child.total_ns as f64 / 1e6,
            100.0 * child.total_ns as f64 / denom as f64,
            child.count
        ));
        render_children(child, depth + 1, denom, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_with_parents_depths_and_seq_order() {
        begin("nest");
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                let _leaf = span("leaf");
            }
            let _sibling = span("sibling");
        }
        let trace = end().expect("trace");
        assert!(end().is_none(), "end() disarms");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "leaf", "sibling"]);
        let outer = &trace.spans[0];
        let inner = &trace.spans[1];
        let leaf = &trace.spans[2];
        let sibling = &trace.spans[3];
        assert_eq!((outer.parent, outer.depth), (None, 0));
        assert_eq!((inner.parent, inner.depth), (Some(outer.seq), 1));
        assert_eq!((leaf.parent, leaf.depth), (Some(inner.seq), 2));
        assert_eq!((sibling.parent, sibling.depth), (Some(outer.seq), 1));
        assert!(outer.elapsed_ns >= inner.elapsed_ns);
        assert!(inner.elapsed_ns >= leaf.elapsed_ns);
    }

    #[test]
    fn disarmed_spans_are_noops() {
        let _s = span("ignored");
        assert!(end().is_none());
    }

    #[test]
    fn recorded_spans_join_the_innermost_open_span() {
        begin("record");
        let origin_bound = Instant::now();
        let (started, elapsed) = {
            let _outer = span("outer");
            let _split = span("split");
            // Timed "elsewhere": the interval is handed over, not measured.
            let started = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            let elapsed = started.elapsed();
            record("zeros", started, elapsed);
            let _after = span("after");
            (started, elapsed)
        };
        let trace = end().expect("trace");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "split", "zeros", "after"]);
        let (split, zeros, after) = (&trace.spans[1], &trace.spans[2], &trace.spans[3]);
        assert_eq!((zeros.parent, zeros.depth), (Some(split.seq), 2));
        assert!(split.seq < zeros.seq && zeros.seq < after.seq);
        assert_eq!(zeros.elapsed_ns, elapsed.as_nanos() as u64);
        // The offset is the interval's own start, measured from the origin
        // (armed no later than `origin_bound`).
        let offset = started.duration_since(origin_bound).as_nanos() as u64;
        assert!(zeros.start_ns >= offset && zeros.start_ns >= split.start_ns);
        assert!(zeros.start_ns + zeros.elapsed_ns <= after.start_ns);
    }

    #[test]
    fn recording_without_an_armed_trace_is_a_noop() {
        let started = Instant::now();
        record("zeros", started, started.elapsed());
        assert!(end().is_none());
        // Nothing leaks into a trace armed afterwards.
        begin("later");
        let trace = end().expect("trace");
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn identical_runs_render_byte_identical_normalized_jsonl() {
        let run = || {
            begin("determinism");
            {
                let _a = span("build_phi");
                let _b = span("split");
            }
            end().expect("trace")
        };
        let first = run().render_jsonl_normalized();
        let second = run().render_jsonl_normalized();
        assert_eq!(first, second);
        assert!(first.contains("\"schema\":\"ds-trace/v1\""));
        assert!(first.contains("\"start_ns\":0"));
        assert!(first.contains("\"elapsed_ns\":0"));
    }

    /// A `root` span with one child per `(name, elapsed_ns)`, recorded
    /// through `begin`/`span`/`end`, then given exact times laid end to end.
    fn flat_trace(id: &str, root: &str, root_ns: u64, children: &[(&str, u64)]) -> Trace {
        begin(id);
        {
            let _root = span(root);
            children.iter().for_each(|(name, _)| drop(span(name)));
        }
        let mut trace = end().unwrap();
        (trace.spans[0].start_ns, trace.spans[0].elapsed_ns) = (0, root_ns);
        let mut cursor = 0;
        for (span, (_, ns)) in trace.spans[1..].iter_mut().zip(children) {
            (span.start_ns, span.elapsed_ns) = (cursor, *ns);
            cursor += ns;
        }
        trace
    }

    #[test]
    fn jsonl_lines_carry_the_full_schema() {
        let trace = flat_trace("tid-1", "method", 10, &[("build_phi", 4), ("split", 6)]);
        let text = trace.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"schema\":\"ds-trace/v1\",\"trace\":\"tid-1\",\"seq\":0,\"parent\":null,\
             \"span\":\"method\",\"depth\":0,\"start_ns\":0,\"elapsed_ns\":10}"
        );
        assert_eq!(
            lines[2],
            "{\"schema\":\"ds-trace/v1\",\"trace\":\"tid-1\",\"seq\":2,\"parent\":0,\
             \"span\":\"split\",\"depth\":1,\"start_ns\":4,\"elapsed_ns\":6}"
        );
        assert_eq!(trace.root_ns(), 10);
    }

    #[test]
    fn trace_ids_are_unique_and_well_formed() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let ring = TraceRing::new(2);
        assert!(ring.is_empty());
        ring.insert("a", "A".to_string());
        ring.insert("b", "B".to_string());
        ring.insert("c", "C".to_string());
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.get("a"), None);
        assert_eq!(ring.get("b").as_deref(), Some("B"));
        assert_eq!(ring.get("c").as_deref(), Some("C"));
    }

    #[test]
    fn flame_tree_sorts_by_time_and_reports_shares() {
        let trace = flat_trace(
            "t",
            "method",
            10_000_000,
            &[("fast", 2_000_000), ("slow", 8_000_000)],
        );
        let text = render_flame(&[trace]);
        let slow_at = text.find("slow").expect("slow row");
        let fast_at = text.find("fast").expect("fast row");
        assert!(slow_at < fast_at, "children sorted by time:\n{text}");
        assert!(text.contains("80.0%"), "share column:\n{text}");
        assert!(text.contains("per-span totals"), "{text}");
    }
}
