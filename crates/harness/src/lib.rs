//! # ds-harness
//!
//! A deterministic, sharded, multi-threaded sweep engine for the passivity
//! suite: it fans a scenario matrix (circuit family × order × seed × method)
//! across a `std::thread` worker pool with work stealing via a shared atomic
//! cursor, streams the results into JSONL + CSV artifacts (hand-rolled
//! serialization — the build environment has no registry access), and
//! aggregates per-family verdict/timing summaries.
//!
//! The paper's Table 1 / Figure 2 binaries in `ds-bench` run on top of this
//! engine, whose workers run every task through [`check`], the check the
//! `CheckRequest` API runs for every source: paper artifacts, sweeps and
//! served verdicts share one code path.
//!
//! For 10⁵-scenario ensembles the [`store`] module adds the second level of
//! parallelism: deterministic `--shard i/m` task partitioning across
//! independent processes, fingerprint-keyed resume, and a persistent
//! append-only segment store whose merged artifact is byte-identical to the
//! single-process run.
//!
//! ## Determinism
//!
//! Every record carries its task index and only deterministic fields enter
//! the JSONL artifact, so the sorted JSONL output of a sweep is byte-identical
//! whether it ran on 1 thread or N — pinned by the workspace determinism test
//! and by the golden-verdict conformance suite
//! (`tests/golden/verdicts.json`, regenerable with
//! `cargo run -p ds-harness --bin regen-golden`).
//!
//! ## Quick start
//!
//! ```
//! use ds_harness::prelude::*;
//!
//! let scenarios = vec![
//!     Scenario::new(FamilyKind::RcLadder, 4),
//!     Scenario::new(FamilyKind::PerturbedBoundary, 5).with_margin(0.5),
//! ];
//! let tasks = scenario_matrix(&scenarios, &[Method::Proposed, Method::Weierstrass]);
//! let result = run_sweep(&SweepSpec::new(tasks, 2));
//! assert_eq!(result.records.len(), 4);
//! assert!(result.records.iter().all(|r| r.agrees == Some(true)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod check;
pub mod golden;
pub mod json;
pub mod method;
pub mod reduce;
pub mod scenario;
pub mod store;
pub mod sweep;
pub mod sync;

pub use artifacts::{
    render_csv, render_jsonl, render_segment_jsonl, validate_csv, validate_jsonl, SweepSummary,
};
pub use check::{BuildError, Check, Subject};
pub use method::{run_method, Method, LMI_MAX_ORDER};
pub use reduce::{build_reduced, reduce_netlist, ReductionStats};
pub use scenario::{
    deck_scenarios_from_dir, deck_seed, scenario_matrix, DeckSpec, FamilyKind, Scenario,
    ScenarioKey, SweepTask,
};
pub use store::{record_fingerprint, shard_tasks, task_fingerprint, ResultStore};
pub use sweep::{run_sweep, run_sweep_with_progress, SweepRecord, SweepResult, SweepSpec};
pub use sync::{lock_infallible, wait_timeout_infallible};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::artifacts::{render_csv, render_jsonl, SweepSummary};
    pub use crate::method::{run_method, Method, LMI_MAX_ORDER};
    pub use crate::reduce::{build_reduced, reduce_netlist, ReductionStats};
    pub use crate::scenario::{
        deck_scenarios_from_dir, quick_scenarios, scenario_matrix, standard_scenarios,
        standard_tasks, DeckSpec, FamilyKind, Scenario, ScenarioKey, SweepTask,
    };
    pub use crate::store::{record_fingerprint, shard_tasks, task_fingerprint, ResultStore};
    pub use crate::sweep::{
        run_sweep, run_sweep_with_progress, SweepRecord, SweepResult, SweepSpec,
    };
}
