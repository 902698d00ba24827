//! The `sweep-resume` workload: `run_sweep` at `nproc` threads over the
//! generator families (proposed test + Weierstrass baseline, violation
//! sampling on), resuming into a store an earlier run left with ≈10⁵
//! records, and ending with `append_segment` + `write_merged`.

use crate::env::{nproc, EnvStamp};
use crate::gen::{self, sweep_batch_len, sweep_cycle_len};
use crate::report::known_method_error;
use crate::{ms, stats, Ctx, Run};
use ds_passivity_suite::harness::sweep::TaskStatus;
use ds_passivity_suite::harness::{
    run_sweep_with_progress, FamilyKind, ResultStore, SweepRecord, SweepSpec, SweepTask,
};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batches an earlier run finished: 2500 × 40 = 10⁵ pre-filled records.
pub const DONE_BATCHES: usize = 2_500;
/// Batches still pending; far more than one run sweeps.
pub const PENDING_BATCHES: usize = 400;
const SEGMENTS: usize = 10;
const SETUP_REPEATS: usize = 5;
/// Pending tasks swept per second of `--seconds`.  The timed phase is one
/// `run_sweep` over a slice of the pending tasks whose length is fixed by
/// `--seconds`, not by the clock, so every run of the same length does the
/// same work.  A 2-vCPU host sweeps 50–65 tasks/s, so the sweep plus append
/// and merge take about `--seconds`.
const TASKS_PER_SECOND: f64 = 48.0;

/// Length of the swept slice: whole size cycles of the matrix, so that
/// every run sees the same family, size and seed-parity mix.
pub fn swept_tasks(seconds: f64) -> usize {
    let cycle = sweep_cycle_len();
    let cycles = (seconds * TASKS_PER_SECOND / cycle as f64).round() as usize;
    (cycles.max(1) * cycle).min(PENDING_BATCHES * sweep_batch_len())
}

/// `(global id, task)` pairs of the whole matrix.
pub fn matrix(seed: u64) -> Vec<(usize, SweepTask)> {
    gen::sweep_matrix(seed, DONE_BATCHES, PENDING_BATCHES)
        .into_iter()
        .enumerate()
        .collect()
}

/// Writes the earlier run's records into `dir` as `SEGMENTS` segments.
pub fn prefill(dir: &Path, matrix: &[(usize, SweepTask)]) -> Result<usize, String> {
    let done = DONE_BATCHES * sweep_batch_len();
    let records: Vec<SweepRecord> = matrix[..done]
        .iter()
        .map(|(id, task)| gen::prefill_record(*id, task))
        .collect();
    let mut store = ResultStore::open(dir)?;
    for (i, chunk) in records.chunks(done.div_ceil(SEGMENTS)).enumerate() {
        store.append_segment(&format!("earlier-{i:02}"), chunk)?;
    }
    Ok(records.len())
}

/// One sweep call with completion timestamps taken from its progress
/// callback.
pub struct Timed {
    pub records: Vec<SweepRecord>,
    pub wall: Duration,
    /// Per task: time between consecutive completions on the same worker
    /// (each worker's first task is dropped — its start is not observable).
    pub task_ms: Vec<f64>,
    /// Σ over workers of (last completion − start) ÷ (threads × wall): the
    /// pool's busy share, which drops when one large task sets the wall.
    pub busy_share: f64,
}

pub fn timed_sweep(tasks: &[(usize, SweepTask)], threads: usize) -> Timed {
    let spec = SweepSpec::new(tasks.iter().map(|(_, t)| t.clone()).collect(), threads)
        .with_task_ids(tasks.iter().map(|(id, _)| *id).collect());
    let done: Mutex<Vec<(usize, Instant)>> = Mutex::new(Vec::with_capacity(tasks.len()));
    let on_record = |r: &SweepRecord| {
        let now = Instant::now();
        if let Ok(mut done) = done.lock() {
            done.push((r.worker, now));
        }
    };
    let start = Instant::now();
    let result = run_sweep_with_progress(&spec, Some(&on_record));
    let wall = start.elapsed();
    let done = done.into_inner().unwrap_or_default();
    let mut task_ms = Vec::with_capacity(done.len());
    let mut busy = 0.0;
    for worker in 0..result.threads {
        let times: Vec<Instant> = done
            .iter()
            .filter(|(w, _)| *w == worker)
            .map(|(_, t)| *t)
            .collect();
        task_ms.extend(times.windows(2).map(|w| ms(w[1] - w[0])));
        if let Some(last) = times.last() {
            busy += (*last - start).as_secs_f64();
        }
    }
    Timed {
        records: result.records,
        wall,
        task_ms,
        busy_share: busy / (result.threads as f64 * wall.as_secs_f64()),
    }
}

/// The families whose label is only probabilistic: for them only errors
/// count as failures.
fn label_is_exact(record: &SweepRecord) -> bool {
    record.family != FamilyKind::RandomNonpassive.name()
}

/// The open defect this workload shows: the proposed test rejects
/// `random_passive` models (two ports, impulsive part, at every swept
/// order) through its Markov-parameter probe.  Those failures are counted
/// and listed, but do not make the run incorrect.
fn known_defect(record: &SweepRecord) -> bool {
    record.family == FamilyKind::RandomPassive.name()
        && record.method == "proposed"
        && record.reason == "higher_order_markov"
}

pub fn verify_record(run: &mut Run, record: &SweepRecord) {
    let input = format!("{}|{}|{}", record.scenario, record.method, record.seed);
    run.tally.attempt(&input);
    if record.status != TaskStatus::Ok {
        run.tally.fail(
            &input,
            &format!("{}: {}", record.status.name(), record.reason),
            record.status == TaskStatus::MethodError && known_method_error(&record.reason),
        );
    } else if label_is_exact(record) && record.agrees != Some(true) {
        run.tally.fail(
            &input,
            &format!(
                "verdict {:?}, expected {:?} ({})",
                record.passive, record.expected_passive, record.reason
            ),
            known_defect(record),
        );
    }
}

pub fn run(ctx: &Ctx, env: &mut EnvStamp) -> Result<Run, String> {
    let mut run = Run::default();
    let threads = nproc();
    let dir = ctx.work.join("store");
    let matrix = matrix(ctx.seed);
    let prefilled = prefill(&dir, &matrix)?;

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        drop(opened.take());
        let tasks = matrix.clone();
        let start = Instant::now();
        let store = ResultStore::open(&dir)?;
        let (pending, skipped) = store.partition_pending(tasks);
        setups.push(start.elapsed().as_secs_f64());
        if skipped != prefilled || store.len() != prefilled {
            run.tally.violation(format!(
                "resume skipped {skipped} of {prefilled} pre-filled tasks (store holds {})",
                store.len()
            ));
        }
        opened = Some((store, pending));
    }
    let (mut store, pending) = opened.ok_or("no store opened")?;

    let slice = &pending[..swept_tasks(ctx.seconds).min(pending.len())];
    env.start_timed();
    let phase = Instant::now();
    let timed = timed_sweep(slice, threads);
    store.append_segment("resumed", &timed.records)?;
    let (_, _, merged) = store.write_merged()?;
    let phase_s = phase.elapsed().as_secs_f64();
    env.end_timed();

    let records = &timed.records;
    for record in records {
        verify_record(&mut run, record);
    }
    if records.len() != slice.len() || merged != prefilled + records.len() {
        run.tally.violation(format!(
            "swept {} of {} tasks; merged {merged} records, expected {prefilled} + {}",
            records.len(),
            slice.len(),
            records.len()
        ));
    }
    run.notes.push(format!(
        "sweep prefilled={prefilled} pending={} swept={} merged={merged} threads={threads} sweep_s={:.3} busy_share={:.3}",
        pending.len(),
        records.len(),
        timed.wall.as_secs_f64(),
        timed.busy_share
    ));

    let setup = stats::median(&setups).ok_or("no set-up samples")?;
    run.metric("setup_s", setup, "s", setups.len());
    run.latencies(&timed.task_ms);
    run.info(
        "checks_per_s",
        records.len() as f64 / phase_s,
        "1/s",
        records.len(),
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_swept_slice_is_fixed_by_the_run_length() {
        let cycle = sweep_cycle_len();
        assert_eq!(swept_tasks(25.0), 3 * cycle);
        assert_eq!(swept_tasks(0.1), cycle);
        assert_eq!(swept_tasks(600.0), PENDING_BATCHES * sweep_batch_len());
    }
}
