//! `ds-obs` — the workspace's observability layer, hand-rolled with zero
//! dependencies (repo convention: the build environment has no registry
//! access).
//!
//! Two halves, both designed for the check pipeline's shape:
//!
//! * [`trace`] — span-based tracing over thread-local span stacks and
//!   [`std::time::Instant`].  Spans are nestable, opened where the work
//!   runs (the stage spans carry the names of [`STAGES`]), export to
//!   byte-stable `ds-trace/v1` JSONL, and render as a text flame tree.
//!   Tracing is off by default: until a thread calls [`trace::begin`],
//!   every [`trace::span`] is a no-op whose cost is one thread-local read —
//!   library users pay effectively nothing.
//! * [`metrics`] — atomic counters, gauges and log-bucketed latency
//!   histograms (mergeable across threads, p50/p90/p99 derivable exactly
//!   from the bucket counts) in a [`metrics::Registry`] with Prometheus
//!   text exposition.  A process-wide [`metrics::global`] registry backs
//!   the `ds-serve` `/metrics` endpoint.
//!
//! The crate has no dependencies, so the numerical crates can open spans
//! at the source: `ds-passivity` times its own stages, and `ds-sweep
//! --trace`, the daemon's `/trace/<id>` and its stage histograms all read
//! those same spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

/// The stage spans a check can open, in the order they run: the sparse
/// stamp and Krylov projection of the reduce-then-verify path, then the
/// proposed test's stages, which add up to its `method` span.  These are
/// the `stage` label values of the daemon's stage histograms.
pub const STAGES: [&str; 12] = [
    "stamp_sparse",
    "reduce",
    "build_phi",
    "impulse",
    "nondynamic",
    "residue",
    "restore",
    "rank_e",
    "regularize",
    "split",
    "pr_test",
    "markov",
];

#[cfg(test)]
mod tests {
    use super::STAGES;

    #[test]
    fn stage_names_are_distinct() {
        let set: std::collections::HashSet<&str> = STAGES.iter().copied().collect();
        assert_eq!(set.len(), STAGES.len());
    }
}
