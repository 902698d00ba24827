//! The parallel sweep engine: a `std::thread` worker pool with work stealing
//! through a shared atomic cursor.
//!
//! Tasks are indexed `0..n`; every worker repeatedly claims the next index
//! with `fetch_add` on a shared [`AtomicUsize`], so the fastest workers
//! naturally steal the remaining work — no channels, no task queues, no
//! allocation in the steady state.  Records carry their task index, and the
//! engine sorts by it before returning, which makes the collected output
//! independent of the shard order (the determinism guarantee the conformance
//! suite pins down).

use crate::check::Subject;
use crate::scenario::SweepTask;
use crate::store::task_fingerprint;
use ds_descriptor::{transfer, DescriptorSystem};
use ds_linalg::workspace::{self, PoolStats};
use ds_passivity::{NonPassivityReason, PassivityVerdict};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a single task ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TaskStatus {
    /// The model was built and the method returned a verdict.
    #[default]
    Ok,
    /// The scenario generator failed.
    BuildError,
    /// The passivity test failed structurally.
    MethodError,
}

impl TaskStatus {
    /// Stable identifier used in artifacts.
    pub fn name(self) -> &'static str {
        match self {
            TaskStatus::Ok => "ok",
            TaskStatus::BuildError => "build_error",
            TaskStatus::MethodError => "method_error",
        }
    }

    /// Parses a stable identifier back to the status (the inverse of
    /// [`TaskStatus::name`], used when loading persisted artifacts).
    pub fn parse(name: &str) -> Option<TaskStatus> {
        match name {
            "ok" => Some(TaskStatus::Ok),
            "build_error" => Some(TaskStatus::BuildError),
            "method_error" => Some(TaskStatus::MethodError),
            _ => None,
        }
    }
}

/// The outcome of one (scenario, method) task.
#[derive(Debug, Clone, Default)]
pub struct SweepRecord {
    /// Index of the task in the sweep spec (the deterministic sort key).
    pub task_id: usize,
    /// Family identifier.
    pub family: &'static str,
    /// Full generator name with parameters.
    pub scenario: String,
    /// MNA state dimension (from the scenario's order formula).
    pub order: usize,
    /// Number of ports.
    pub ports: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Violation margin (0 for families without one).
    pub margin: f64,
    /// Method name.
    pub method: &'static str,
    /// How the task ended.
    pub status: TaskStatus,
    /// The verdict (`None` when the task errored).
    pub passive: Option<bool>,
    /// Whether the passive verdict was strict.
    pub strict: bool,
    /// Stable reason slug for non-passive verdicts, or the error text.
    pub reason: String,
    /// Ground truth from the generator (`None` when the model never built,
    /// so the ground truth was never observed).
    pub expected_passive: Option<bool>,
    /// Whether the verdict matched the ground truth (`None` on errors).
    pub agrees: Option<bool>,
    /// Number of frequency-grid samples at which the model's Popov function
    /// has a negative eigenvalue (`None` when sampling was disabled or the
    /// model failed to build).
    pub violation_count: Option<usize>,
    /// Witness frequency (rad/s) of the positive-realness violation, when the
    /// verdict carries one.  Unlike the other verdict fields this is a
    /// floating-point by-product of an iterative eigensolve, so golden
    /// comparisons treat it as approximate (see `golden::semantic_diff`).
    pub witness_frequency: Option<f64>,
    /// Achieved reduced order for reduce-then-verify tasks (`None` for the
    /// dense families).
    pub reduced_order: Option<usize>,
    /// Krylov truncation residual for reduce-then-verify tasks.
    pub residual: Option<f64>,
    /// Wall-clock nanoseconds of sparse stamp + Krylov projection for
    /// reduce-then-verify tasks.  Persisted in the JSONL artifact — unlike
    /// `elapsed`/`stage_ns` it is part of the reduction's recorded outcome,
    /// and golden comparisons never read it.
    pub reduction_ns: Option<u64>,
    /// The task's span tree (root `check`), captured only when the sweep
    /// runs with [`SweepSpec::trace`] set.  Volatile like `elapsed`/`worker`:
    /// excluded from the artifacts and goldens, `None` from the store.
    pub stage_ns: Option<ds_obs::trace::Trace>,
    /// Wall-clock time of the method run (build and sampling excluded).
    pub elapsed: Duration,
    /// Which worker executed the task.
    pub worker: usize,
}

/// A full sweep specification.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The task list (ordering defines `task_id` unless `task_ids` is set).
    pub tasks: Vec<SweepTask>,
    /// Worker-pool size (clamped to at least 1 and at most the task count).
    pub threads: usize,
    /// Whether to sample the deterministic violation-frequency count for each
    /// model (adds `O(n³)` work per task; disable for pure timing sweeps).
    pub sample_violations: bool,
    /// Optional explicit task ids, one per task.  A sharded or resumed run
    /// executes a *subset* of a larger matrix; carrying the global indices
    /// here keeps the emitted records' `task` fields — and therefore the
    /// merged, sorted store artifact — identical to a single-process run of
    /// the full matrix.  `None` means `0..tasks.len()`.
    pub task_ids: Option<Vec<usize>>,
    /// Whether each worker records its task's span tree into
    /// [`SweepRecord::stage_ns`] (trace id: the task's store fingerprint).
    pub trace: bool,
}

impl SweepSpec {
    /// A spec with violation sampling enabled.
    pub fn new(tasks: Vec<SweepTask>, threads: usize) -> Self {
        SweepSpec {
            tasks,
            threads,
            sample_violations: true,
            task_ids: None,
            trace: false,
        }
    }

    /// Attaches explicit (global) task ids; `ids` must have one entry per
    /// task.
    #[must_use]
    pub fn with_task_ids(mut self, ids: Vec<usize>) -> Self {
        assert_eq!(
            ids.len(),
            self.tasks.len(),
            "task_ids must match the task list length"
        );
        self.task_ids = Some(ids);
        self
    }
}

/// The result of a sweep: records sorted by task id plus engine metadata.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One record per task, sorted by `task_id`.
    pub records: Vec<SweepRecord>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Number of workers actually used.
    pub threads: usize,
    /// Aggregated eigen-workspace pool usage across the worker threads.  Every
    /// worker owns a per-thread `ds_linalg` [`workspace::WorkspacePool`] keyed
    /// by matrix dimension, so a stream of same-order tasks reuses warm
    /// buffers: `hits` counts the kernel invocations that found one.
    pub workspace: PoolStats,
}

/// The fixed frequency grid (rad/s) used for the deterministic
/// violation-frequency count: `ω = 0` plus 28 logarithmically spaced points
/// covering `10⁻³ … 10⁶`.
pub fn violation_frequency_grid() -> Vec<f64> {
    let mut grid = vec![0.0];
    for k in 0..28 {
        grid.push(1e-3 * 10f64.powf(k as f64 / 3.0));
    }
    grid
}

/// Counts the grid frequencies at which the Popov function `G(jω) + G(jω)ᴴ`
/// of the model has an eigenvalue below `−10⁻⁷ · scale`.  Deterministic for a
/// given model, so golden fixtures can pin it.
///
/// # Errors
///
/// Propagates transfer-function evaluation failures (singular-pencil samples
/// are skipped, matching the positive-real sampling test).
pub fn violation_frequency_count(
    system: &DescriptorSystem,
) -> Result<usize, ds_descriptor::DescriptorError> {
    let scale = system.scale().max(1.0);
    let threshold = -1e-7 * scale;
    let mut count = 0usize;
    for &w in &violation_frequency_grid() {
        let value = match transfer::evaluate_jomega(system, w) {
            Ok(v) => v,
            Err(ds_descriptor::DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(e),
        };
        if value.popov_min_eigenvalue()? < threshold {
            count += 1;
        }
    }
    Ok(count)
}

/// The frequency at which a rejection was witnessed, when the reason
/// records one.
pub fn verdict_witness(verdict: &PassivityVerdict) -> Option<f64> {
    match verdict {
        PassivityVerdict::NotPassive {
            reason:
                NonPassivityReason::ProperPartNotPositiveReal {
                    witness_frequency, ..
                },
        } => *witness_frequency,
        _ => None,
    }
}

/// Maps a verdict to `(passive, strict, reason-slug)` for the artifacts.
pub fn verdict_fields(verdict: &PassivityVerdict) -> (bool, bool, &'static str) {
    match verdict {
        PassivityVerdict::Passive { strictly } => (true, *strictly, ""),
        PassivityVerdict::NotPassive { reason } => {
            let slug = match reason {
                NonPassivityReason::ResidualImpulsiveModes => "residual_impulsive_modes",
                NonPassivityReason::HigherOrderMarkovParameters => "higher_order_markov",
                NonPassivityReason::IndefiniteResidue { .. } => "indefinite_residue",
                NonPassivityReason::UnstableFiniteModes => "unstable_finite_modes",
                NonPassivityReason::ProperPartNotPositiveReal { .. } => {
                    "proper_part_not_positive_real"
                }
                NonPassivityReason::LmiInfeasible { .. } => "lmi_infeasible",
            };
            (false, false, slug)
        }
    }
}

/// Runs one task as a [`Subject::Scenario`] check, under a `check` root
/// span whose tree lands in [`SweepRecord::stage_ns`] when `trace` is set.
fn run_task(
    task_id: usize,
    task: &SweepTask,
    worker: usize,
    violation_count: Option<usize>,
    trace: bool,
) -> SweepRecord {
    if trace {
        ds_obs::trace::begin(&task_fingerprint(task));
    }
    let mut record = {
        let _span = ds_obs::trace::span("check");
        match Subject::Scenario(&task.scenario).build(task.method) {
            Ok(mut check) => {
                check.run();
                check.record
            }
            Err(failed) => failed.0,
        }
    };
    record.task_id = task_id;
    record.worker = worker;
    record.violation_count = violation_count;
    if trace {
        record.stage_ns = ds_obs::trace::end();
    }
    record
}

/// Deduplicates scenarios across the task list and computes the deterministic
/// violation-frequency count once per unique scenario, in parallel on the
/// same worker-pool pattern.  Returns the per-task counts.
///
/// Dedup is keyed on [`crate::scenario::ScenarioKey`] through a hash map, so
/// the pre-pass stays `O(n)` over 10⁵-task matrices (a linear scan per task
/// made it quadratic and dominated large-ensemble startup).
fn sample_violation_counts(tasks: &[SweepTask], threads: usize) -> Vec<Option<usize>> {
    let mut unique: Vec<&crate::scenario::Scenario> = Vec::new();
    let mut index_of: std::collections::HashMap<crate::scenario::ScenarioKey, usize> =
        std::collections::HashMap::with_capacity(tasks.len());
    let task_to_unique: Vec<usize> = tasks
        .iter()
        .map(|task| {
            *index_of.entry(task.scenario.key()).or_insert_with(|| {
                unique.push(&task.scenario);
                unique.len() - 1
            })
        })
        .collect();
    let cursor = AtomicUsize::new(0);
    let counts: Vec<Option<usize>> = {
        let mut slots: Vec<Option<usize>> = vec![None; unique.len()];
        let workers = threads.clamp(1, unique.len().max(1));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let unique = &unique;
                handles.push(scope.spawn(move || {
                    let mut shard: Vec<(usize, Option<usize>)> = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= unique.len() {
                            break;
                        }
                        let count = unique[index]
                            .build()
                            .ok()
                            .and_then(|model| violation_frequency_count(&model.system).ok());
                        shard.push((index, count));
                    }
                    shard
                }));
            }
            for handle in handles {
                for (index, count) in handle.join().expect("sampling worker panicked") {
                    slots[index] = count;
                }
            }
        });
        slots
    };
    task_to_unique.iter().map(|&u| counts[u]).collect()
}

/// Runs a sweep, streaming each record through `on_record` as it completes
/// (in completion order, from the worker that produced it) and returning all
/// records sorted by task id.
pub fn run_sweep_with_progress(
    spec: &SweepSpec,
    on_record: Option<&(dyn Fn(&SweepRecord) + Sync)>,
) -> SweepResult {
    let tasks = &spec.tasks;
    let threads = spec.threads.clamp(1, tasks.len().max(1));
    let start = Instant::now();
    // The O(n³) Popov-grid sampling depends only on the scenario, not the
    // method, so it runs once per unique scenario in a parallel pre-pass.
    let counts: Vec<Option<usize>> = if spec.sample_violations {
        sample_violation_counts(tasks, threads)
    } else {
        vec![None; tasks.len()]
    };
    let task_ids = spec.task_ids.as_deref();
    if let Some(ids) = task_ids {
        assert_eq!(
            ids.len(),
            tasks.len(),
            "task_ids must match the task list length"
        );
    }
    let cursor = AtomicUsize::new(0);
    let mut shards: Vec<Vec<SweepRecord>> = Vec::with_capacity(threads);
    let mut workspace = PoolStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let cursor = &cursor;
            let counts = &counts;
            handles.push(scope.spawn(move || {
                let mut shard = Vec::new();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= tasks.len() {
                        break;
                    }
                    let task_id = task_ids.map_or(index, |ids| ids[index]);
                    let record =
                        run_task(task_id, &tasks[index], worker, counts[index], spec.trace);
                    if let Some(callback) = on_record {
                        callback(&record);
                    }
                    shard.push(record);
                }
                // Each worker thread owns one eigen-workspace pool (thread
                // local in ds-linalg), reused across every task it claimed;
                // report its usage so the engine can aggregate.
                (shard, workspace::thread_pool_stats())
            }));
        }
        for handle in handles {
            let (shard, stats) = handle.join().expect("sweep worker panicked");
            shards.push(shard);
            workspace = workspace.merged(stats);
        }
    });
    let wall = start.elapsed();
    let mut records: Vec<SweepRecord> = shards.into_iter().flatten().collect();
    records.sort_by_key(|r| r.task_id);
    SweepResult {
        records,
        wall,
        threads,
        workspace,
    }
}

/// Runs a sweep without progress streaming.
pub fn run_sweep(spec: &SweepSpec) -> SweepResult {
    run_sweep_with_progress(spec, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::scenario::{quick_scenarios, scenario_matrix, FamilyKind, Scenario};
    use ds_obs::trace::SpanRecord;
    use std::sync::Mutex;

    #[test]
    fn violation_grid_is_fixed() {
        let grid = violation_frequency_grid();
        assert_eq!(grid.len(), 29);
        assert_eq!(grid[0], 0.0);
        assert!((grid[1] - 1e-3).abs() < 1e-15);
        assert!(grid.last().unwrap() > &0.9e6);
    }

    #[test]
    fn violation_count_zero_for_passive_positive_for_violating() {
        let passive = Scenario::new(FamilyKind::RlcLadder, 3).build().unwrap();
        assert_eq!(violation_frequency_count(&passive.system).unwrap(), 0);
        let violating = Scenario::new(FamilyKind::NonpassiveLadder, 8)
            .build()
            .unwrap();
        assert!(violation_frequency_count(&violating.system).unwrap() > 0);
    }

    #[test]
    fn sweep_runs_every_task_exactly_once_and_sorts() {
        let scenarios = vec![
            Scenario::new(FamilyKind::RcLadder, 3),
            Scenario::new(FamilyKind::NonpassiveLadder, 6),
            Scenario::new(FamilyKind::TlineChain, 2),
        ];
        let tasks = scenario_matrix(&scenarios, &[Method::Proposed]);
        let n = tasks.len();
        let spec = SweepSpec::new(tasks, 3);
        let result = run_sweep(&spec);
        assert_eq!(result.records.len(), n);
        for (i, record) in result.records.iter().enumerate() {
            assert_eq!(record.task_id, i);
            assert_eq!(record.status, TaskStatus::Ok);
            assert_eq!(record.agrees, Some(true), "task {i}: {}", record.reason);
        }
    }

    #[test]
    fn build_errors_are_recorded_not_fatal() {
        // sections = 0 is unrealizable.
        let tasks = scenario_matrix(
            &[Scenario::new(FamilyKind::RcLadder, 0)],
            &[Method::Proposed],
        );
        let result = run_sweep(&SweepSpec::new(tasks, 1));
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].status, TaskStatus::BuildError);
        assert!(result.records[0].passive.is_none());
        // Ground truth was never observed, so it must not default to a value.
        assert!(result.records[0].expected_passive.is_none());
        assert!(result.records[0].agrees.is_none());
        assert!(!result.records[0].reason.is_empty());
    }

    #[test]
    fn progress_callback_sees_every_record() {
        let tasks = scenario_matrix(&quick_scenarios(), &[Method::Proposed]);
        let n = tasks.len();
        let seen = Mutex::new(Vec::new());
        let result = run_sweep_with_progress(
            &SweepSpec::new(tasks, 4),
            Some(&|r: &SweepRecord| crate::sync::lock_infallible(&seen).push(r.task_id)),
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(result.threads, 4.min(n));
    }

    #[test]
    fn violation_counts_are_shared_across_methods_of_one_scenario() {
        let scenarios = vec![Scenario::new(FamilyKind::NonpassiveLadder, 8)];
        let tasks = scenario_matrix(&scenarios, &[Method::Proposed, Method::Weierstrass]);
        let result = run_sweep(&SweepSpec::new(tasks, 2));
        let counts: Vec<_> = result.records.iter().map(|r| r.violation_count).collect();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0].unwrap() > 0);
    }

    #[test]
    fn explicit_task_ids_are_carried_into_records() {
        let scenarios = vec![
            Scenario::new(FamilyKind::RcLadder, 3),
            Scenario::new(FamilyKind::TlineChain, 2),
        ];
        let tasks = scenario_matrix(&scenarios, &[Method::Proposed]);
        let spec = SweepSpec::new(tasks, 2).with_task_ids(vec![7, 3]);
        let result = run_sweep(&spec);
        let ids: Vec<_> = result.records.iter().map(|r| r.task_id).collect();
        // Records come back sorted by the *global* ids.
        assert_eq!(ids, vec![3, 7]);
        assert_eq!(result.records[0].family, "tline_chain");
        assert_eq!(result.records[1].family, "rc_ladder");
    }

    #[test]
    fn workspace_pool_is_reused_across_same_order_tasks() {
        // Two tasks of the same scenario on one worker: the second task's
        // eigen kernels must find warm per-dimension workspaces.
        let scenarios = vec![Scenario::new(FamilyKind::ImpulsiveLadder, 12)];
        let tasks = scenario_matrix(&scenarios, &[Method::Proposed, Method::Proposed]);
        let result = run_sweep(&SweepSpec::new(tasks, 1));
        assert!(
            result.workspace.misses > 0,
            "the first task must populate the pool"
        );
        assert!(
            result.workspace.hits > result.workspace.misses,
            "steady-state tasks must reuse pooled workspaces (hits {} misses {})",
            result.workspace.hits,
            result.workspace.misses
        );
        assert!(result.workspace.resident_bytes > 0);
    }

    #[test]
    fn thread_count_is_clamped() {
        let tasks = scenario_matrix(
            &[Scenario::new(FamilyKind::RcLadder, 3)],
            &[Method::Proposed],
        );
        let result = run_sweep(&SweepSpec::new(tasks.clone(), 0));
        assert_eq!(result.threads, 1);
        let result = run_sweep(&SweepSpec::new(tasks, 64));
        assert_eq!(
            result.threads, 1,
            "one task cannot use more than one worker"
        );
    }

    #[test]
    fn traced_sweeps_carry_each_task_span_tree_and_untraced_ones_none() {
        let scenarios = vec![
            Scenario::new(FamilyKind::RlcLadder, 3),
            Scenario::new(FamilyKind::ImpulsiveLadder, 8),
            Scenario::new(FamilyKind::NonpassiveLadder, 6),
            Scenario::new(FamilyKind::Reduced, 30),
        ];
        let tasks = scenario_matrix(&scenarios, &[Method::Proposed, Method::Weierstrass]);
        let untraced = run_sweep(&SweepSpec::new(tasks.clone(), 2));
        assert!(untraced.records.iter().all(|r| r.stage_ns.is_none()));
        let traced = run_sweep(&SweepSpec {
            trace: true,
            ..SweepSpec::new(tasks.clone(), 2)
        });
        for (record, task) in traced.records.iter().zip(&tasks) {
            let trace = record.stage_ns.as_ref().expect("traced task without spans");
            assert_eq!(trace.id, task_fingerprint(task));
            let root = &trace.spans[0];
            assert_eq!((root.name.as_str(), root.parent), ("check", None));
            assert!(trace.spans[1..].iter().all(|s| s.parent.is_some()));
            // Every ok proposed task's root covers its stage spans.
            let is_stage = |s: &&SpanRecord| ds_obs::STAGES.contains(&&*s.name);
            let stages: Vec<_> = trace.spans.iter().filter(is_stage).collect();
            let ok_proposed = record.method == "proposed" && record.status == TaskStatus::Ok;
            assert_eq!(stages.iter().any(|s| s.name == "build_phi"), ok_proposed);
            let end = |s: &SpanRecord| s.start_ns + s.elapsed_ns;
            assert!(stages
                .iter()
                .all(|s| s.start_ns >= root.start_ns && end(s) <= end(root)));
        }
        // Tracing changes no deterministic field.
        assert_eq!(
            crate::artifacts::render_jsonl(&untraced.records),
            crate::artifacts::render_jsonl(&traced.records)
        );
    }
}
