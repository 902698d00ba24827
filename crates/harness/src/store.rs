//! The persistent, sharded result store.
//!
//! Verdicts for 10⁵-scenario ensembles accumulate across runs and across
//! processes: every [`SweepTask`] gets a stable content *fingerprint*
//! (family / order / ports / seed / margin / method), completed records are
//! appended to a run-stamped JSONL *segment* under the store directory, and
//! on startup the store loads every prior segment so drivers can skip
//! already-fingerprinted tasks (`--resume`) and merge old + new records into
//! the canonical sorted artifacts.
//!
//! Two levels of parallelism compose here: intra-run, the atomic-cursor
//! worker pool of [`crate::sweep`]; inter-run, [`shard_tasks`] deterministically
//! partitions one matrix across `m` independent processes (`--shard i/m`)
//! whose segments merge losslessly because each record carries its *global*
//! task index.  The merged, sorted JSONL of a 2-shard run is byte-identical
//! to the single-process run of the same matrix — pinned by the workspace
//! store tests and the CI shard-merge smoke job.
//!
//! Store layout:
//!
//! ```text
//! store-dir/
//!   segment-<stamp>.jsonl   one per completed run (same schema as sweep.jsonl)
//!   merged.jsonl            canonical artifact: all segments, deduped, sorted
//!   merged.csv              same records in the CSV schema (timings of loaded
//!                           records are zero: only deterministic fields persist)
//! ```
//!
//! Fingerprint stability: the fingerprint is a plain string over artifact-
//! stable identifiers (`FamilyKind::name`, `Method::name`) and exact values
//! (margin by its IEEE-754 bit pattern), so it never changes across processes,
//! platforms or runs, and it can be recomputed from a persisted record as well
//! as from an in-memory task.

use crate::artifacts;
use crate::json;
use crate::method::Method;
use crate::scenario::{FamilyKind, SweepTask};
use crate::sweep::{SweepRecord, TaskStatus};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Builds the stable content fingerprint from its raw components.
///
/// The margin enters by bit pattern: the JSONL serializer emits the shortest
/// round-trip decimal form, so a margin parsed back from a segment recovers
/// the exact bits it was written with.
pub fn fingerprint_parts(
    family: &str,
    order: usize,
    ports: usize,
    seed: u64,
    margin: f64,
    method: &str,
) -> String {
    format!(
        "{family}|o{order}|p{ports}|s{seed}|m{:016x}|{method}",
        margin.to_bits()
    )
}

/// The stable content fingerprint of a task.
pub fn task_fingerprint(task: &SweepTask) -> String {
    let s = &task.scenario;
    fingerprint_parts(
        s.family.name(),
        s.order(),
        s.ports,
        s.seed,
        s.margin,
        task.method.name(),
    )
}

/// The stable content fingerprint of a completed record: for the record a
/// task produced, [`task_fingerprint`] of that task.  A reduced deck's ends
/// in `|reduce` (dense ones are unchanged); the reduce spec is not keyed, as
/// only `ReduceSpec::default()` (the daemon's `?reduce=auto`) reaches a store.
pub fn record_fingerprint(record: &SweepRecord) -> String {
    let mut fingerprint = fingerprint_parts(
        record.family,
        record.order,
        record.ports,
        record.seed,
        record.margin,
        record.method,
    );
    if record.family == FamilyKind::Deck.name() && record.reduced_order.is_some() {
        fingerprint.push_str("|reduce");
    }
    fingerprint
}

/// Deterministically partitions a task list across `modulus` independent
/// processes: shard `index` takes every task whose global id `% modulus ==
/// index`, *keeping the global id*.  The shards are disjoint, cover the
/// matrix, and merge losslessly: sorting the union of their records by task
/// id reproduces the single-process artifact byte-for-byte.
///
/// # Panics
///
/// Panics if `modulus == 0` or `index >= modulus`.
pub fn shard_tasks(tasks: &[SweepTask], index: usize, modulus: usize) -> Vec<(usize, SweepTask)> {
    assert!(modulus > 0, "shard modulus must be positive");
    assert!(
        index < modulus,
        "shard index {index} out of range for modulus {modulus}"
    );
    tasks
        .iter()
        .enumerate()
        .filter(|(id, _)| id % modulus == index)
        .map(|(id, task)| (id, task.clone()))
        .collect()
}

fn field<'a>(value: &'a json::Value, key: &str) -> Result<&'a json::Value, String> {
    value.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn usize_field(value: &json::Value, key: &str) -> Result<usize, String> {
    let n = field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("key '{key}' is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("key '{key}' is not a non-negative integer: {n}"));
    }
    Ok(n as usize)
}

fn opt_bool_field(value: &json::Value, key: &str) -> Result<Option<bool>, String> {
    match field(value, key)? {
        json::Value::Null => Ok(None),
        json::Value::Bool(b) => Ok(Some(*b)),
        _ => Err(format!("key '{key}' is not a boolean or null")),
    }
}

fn str_field<'a>(value: &'a json::Value, key: &str) -> Result<&'a str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("key '{key}' is not a string"))
}

/// Parses one JSONL artifact line back into a [`SweepRecord`].
///
/// Only the deterministic fields are persisted, so the nondeterministic ones
/// come back neutral: `elapsed` is zero and `worker` is 0.  Seeds and ids
/// round-trip through the JSON number representation (`f64`), which is exact
/// up to 2⁵³ — far beyond any ensemble this store will see.
///
/// # Errors
///
/// Describes the first schema violation found.
pub fn record_from_jsonl_line(line: &str) -> Result<SweepRecord, String> {
    let value = json::parse(line)?;
    let family_name = str_field(&value, "family")?;
    let family =
        FamilyKind::parse(family_name).ok_or_else(|| format!("unknown family '{family_name}'"))?;
    let method_name = str_field(&value, "method")?;
    let method =
        Method::parse(method_name).ok_or_else(|| format!("unknown method '{method_name}'"))?;
    let status_name = str_field(&value, "status")?;
    let status =
        TaskStatus::parse(status_name).ok_or_else(|| format!("unknown status '{status_name}'"))?;
    let violation_count = match field(&value, "violation_count")? {
        json::Value::Null => None,
        other => Some(
            other
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| "key 'violation_count' is not a count or null".to_string())?
                as usize,
        ),
    };
    // Added in schema v2; segments written by older builds lack the key, so
    // it is optional rather than required — missing reads as "no witness".
    let witness_frequency = match value.get("witness_frequency") {
        None | Some(json::Value::Null) => None,
        Some(other) => Some(
            other
                .as_f64()
                .ok_or_else(|| "key 'witness_frequency' is not a number or null".to_string())?,
        ),
    };
    // Added in schema v3 (the reduce-then-verify path); older segments lack
    // the keys, which reads as "not a reduced task".
    let reduced_order = match value.get("reduced_order") {
        None | Some(json::Value::Null) => None,
        Some(other) => Some(
            other
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| "key 'reduced_order' is not a count or null".to_string())?
                as usize,
        ),
    };
    let residual = match value.get("residual") {
        None | Some(json::Value::Null) => None,
        Some(other) => Some(
            other
                .as_f64()
                .ok_or_else(|| "key 'residual' is not a number or null".to_string())?,
        ),
    };
    let reduction_ns = match value.get("reduction_ns") {
        None | Some(json::Value::Null) => None,
        Some(other) => Some(
            other
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| "key 'reduction_ns' is not a count or null".to_string())?
                as u64,
        ),
    };
    Ok(SweepRecord {
        task_id: usize_field(&value, "task")?,
        family: family.name(),
        scenario: str_field(&value, "scenario")?.to_string(),
        order: usize_field(&value, "order")?,
        ports: usize_field(&value, "ports")?,
        seed: usize_field(&value, "seed")? as u64,
        // JSON cannot represent non-finite numbers, so the serializer emits
        // `null` for them; map it back to NaN rather than rejecting the line
        // — one odd record must not make every future open of the store fail.
        margin: match field(&value, "margin")? {
            json::Value::Null => f64::NAN,
            other => other
                .as_f64()
                .ok_or_else(|| "key 'margin' is not a number".to_string())?,
        },
        method: method.name(),
        status,
        passive: opt_bool_field(&value, "passive")?,
        strict: field(&value, "strict")?
            .as_bool()
            .ok_or_else(|| "key 'strict' is not a boolean".to_string())?,
        reason: str_field(&value, "reason")?.to_string(),
        expected_passive: opt_bool_field(&value, "expected_passive")?,
        agrees: opt_bool_field(&value, "agrees")?,
        violation_count,
        witness_frequency,
        reduced_order,
        residual,
        reduction_ns,
        stage_ns: None,
        elapsed: Duration::ZERO,
        worker: 0,
    })
}

/// The persistent result store: a directory of append-only JSONL segments
/// plus the canonical merged artifacts.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    records: Vec<SweepRecord>,
    fingerprints: HashMap<String, usize>,
}

impl ResultStore {
    /// Opens (creating if necessary) a store directory and loads every prior
    /// `segment-*.jsonl`, in sorted filename order.
    ///
    /// # Errors
    ///
    /// Reports I/O failures and the first malformed segment line.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating store dir {}: {e}", dir.display()))?;
        let mut segment_paths = Vec::new();
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| format!("reading store dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading store dir entry: {e}"))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("segment-") && name.ends_with(".jsonl") {
                segment_paths.push(entry.path());
            }
        }
        segment_paths.sort();
        let mut store = ResultStore {
            dir,
            records: Vec::new(),
            fingerprints: HashMap::new(),
        };
        for path in segment_paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading segment {}: {e}", path.display()))?;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let record = record_from_jsonl_line(line)
                    .map_err(|e| format!("{} line {}: {e}", path.display(), lineno + 1))?;
                store.insert(record);
            }
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct fingerprinted records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a record with this fingerprint is already stored.
    pub fn contains(&self, fingerprint: &str) -> bool {
        self.fingerprints.contains_key(fingerprint)
    }

    /// The stored record with this fingerprint, if any — the persistent cache
    /// tier of the `ds-serve` daemon: a verdict computed in any earlier run
    /// (or by any earlier server process) is answered from here without
    /// recomputation.
    pub fn get(&self, fingerprint: &str) -> Option<&SweepRecord> {
        self.fingerprints
            .get(fingerprint)
            .map(|&index| &self.records[index])
    }

    /// Inserts a record unless its fingerprint is already present (duplicate
    /// fingerprints carry identical deterministic fields, so first-wins is
    /// lossless).  Returns whether the record was new.
    fn insert(&mut self, record: SweepRecord) -> bool {
        let fingerprint = record_fingerprint(&record);
        if let std::collections::hash_map::Entry::Vacant(entry) =
            self.fingerprints.entry(fingerprint)
        {
            entry.insert(self.records.len());
            self.records.push(record);
            true
        } else {
            false
        }
    }

    /// Splits `(global id, task)` pairs into those whose fingerprints are not
    /// yet stored (to run) and the count of already-fingerprinted ones (to
    /// skip) — the `--resume` pre-pass, O(tasks) thanks to the hash set.
    pub fn partition_pending(
        &self,
        tasks: Vec<(usize, SweepTask)>,
    ) -> (Vec<(usize, SweepTask)>, usize) {
        let total = tasks.len();
        let pending: Vec<(usize, SweepTask)> = tasks
            .into_iter()
            .filter(|(_, task)| !self.contains(&task_fingerprint(task)))
            .collect();
        let skipped = total - pending.len();
        (pending, skipped)
    }

    /// Appends completed records as a new run-stamped segment
    /// (`segment-<stamp>.jsonl`) and folds them into the in-memory view.
    /// Writing is atomic-ish: the segment is written to a temp name first and
    /// renamed into place, so a crashed run never leaves a half-parsable
    /// segment behind.  Returns the segment path (`None` when `records` is
    /// empty — nothing to persist).
    ///
    /// # Errors
    ///
    /// Reports I/O failures, including a stamp collision (two runs must not
    /// share a segment file).
    pub fn append_segment(
        &mut self,
        stamp: &str,
        records: &[SweepRecord],
    ) -> Result<Option<PathBuf>, String> {
        if records.is_empty() {
            return Ok(None);
        }
        let path = self.dir.join(format!("segment-{stamp}.jsonl"));
        if path.exists() {
            return Err(format!("segment {} already exists", path.display()));
        }
        let text = artifacts::render_segment_jsonl(records);
        let tmp = self.dir.join(format!(".segment-{stamp}.jsonl.tmp"));
        std::fs::write(&tmp, &text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("renaming {} into place: {e}", path.display()))?;
        for record in records {
            self.insert(record.clone());
        }
        Ok(Some(path))
    }

    /// All stored records, deduped by fingerprint and sorted by
    /// `(task id, fingerprint)` — the canonical merge order.  With a stable
    /// matrix the ids alone are a total order; the fingerprint tiebreak keeps
    /// the merge deterministic even if segments from different matrices ever
    /// share a store.
    pub fn merged_records(&self) -> Vec<SweepRecord> {
        let mut records = self.records.clone();
        // Cached keys: one fingerprint allocation per record, not two per
        // comparison — this runs after every sharded run at 10⁵+ records.
        records.sort_by_cached_key(|r| (r.task_id, record_fingerprint(r)));
        records
    }

    /// Writes (and self-validates) the canonical merged artifacts
    /// `merged.jsonl` and `merged.csv` in the store directory, returning their
    /// paths and the record count.
    ///
    /// # Errors
    ///
    /// Reports I/O failures and validation failures of the just-written
    /// artifacts.
    pub fn write_merged(&self) -> Result<(PathBuf, PathBuf, usize), String> {
        let records = self.merged_records();
        let jsonl_path = self.dir.join("merged.jsonl");
        let csv_path = self.dir.join("merged.csv");
        let jsonl = artifacts::render_jsonl(&records);
        let csv = artifacts::render_csv(&records);
        std::fs::write(&jsonl_path, &jsonl)
            .map_err(|e| format!("writing {}: {e}", jsonl_path.display()))?;
        std::fs::write(&csv_path, &csv)
            .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
        let n =
            artifacts::validate_jsonl(&jsonl).map_err(|e| format!("merged JSONL invalid: {e}"))?;
        let n_csv =
            artifacts::validate_csv(&csv).map_err(|e| format!("merged CSV invalid: {e}"))?;
        if n != records.len() || n_csv != records.len() {
            return Err(format!(
                "merged artifact record counts diverge: jsonl={n} csv={n_csv} expected={}",
                records.len()
            ));
        }
        Ok((jsonl_path, csv_path, records.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::scenario::{scenario_matrix, FamilyKind, Scenario};
    use crate::sweep::{run_sweep, SweepSpec};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ds-harness-store-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_tasks() -> Vec<SweepTask> {
        let scenarios = vec![
            Scenario::new(FamilyKind::RcLadder, 3),
            Scenario::new(FamilyKind::NonpassiveLadder, 6),
            Scenario::new(FamilyKind::PerturbedBoundary, 4)
                .with_margin(0.5)
                .with_seed(3),
        ];
        scenario_matrix(&scenarios, &[Method::Proposed, Method::Weierstrass])
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let tasks = small_tasks();
        let fingerprints: HashSet<String> = tasks.iter().map(task_fingerprint).collect();
        assert_eq!(fingerprints.len(), tasks.len(), "fingerprint collision");
        // Stability: the exact format is part of the on-disk contract.
        assert_eq!(
            task_fingerprint(&tasks[0]),
            format!("rc_ladder|o4|p1|s0|m{:016x}|proposed", 0f64.to_bits())
        );
    }

    #[test]
    fn record_fingerprint_matches_task_fingerprint() {
        let tasks = small_tasks();
        let result = run_sweep(&SweepSpec::new(tasks.clone(), 2));
        for (task, record) in tasks.iter().zip(&result.records) {
            assert_eq!(task_fingerprint(task), record_fingerprint(record));
        }
    }

    #[test]
    fn jsonl_line_roundtrips_to_an_equal_record() {
        let result = run_sweep(&SweepSpec::new(small_tasks(), 2));
        for record in &result.records {
            let line = artifacts::jsonl_line(record);
            let parsed = record_from_jsonl_line(&line).unwrap();
            // Re-rendering the parsed record must reproduce the line exactly:
            // that is what makes merged artifacts byte-stable across loads.
            assert_eq!(artifacts::jsonl_line(&parsed), line);
        }
        assert!(record_from_jsonl_line("{\"task\":0}").is_err());
        assert!(record_from_jsonl_line("nope").is_err());
    }

    #[test]
    fn null_margin_loads_as_nan_instead_of_poisoning_the_store() {
        // A non-finite margin serializes as `"margin":null`; a segment
        // containing such a record must still load (NaN round-trips back to
        // null on re-render, so merged artifacts stay byte-stable).
        let result = run_sweep(&SweepSpec::new(small_tasks(), 1));
        let mut record = result.records[0].clone();
        record.margin = f64::NAN;
        let line = artifacts::jsonl_line(&record);
        assert!(line.contains("\"margin\":null"));
        let parsed = record_from_jsonl_line(&line).unwrap();
        assert!(parsed.margin.is_nan());
        assert_eq!(artifacts::jsonl_line(&parsed), line);
    }

    #[test]
    fn shard_partition_is_disjoint_and_covering() {
        let tasks = small_tasks();
        let a = shard_tasks(&tasks, 0, 2);
        let b = shard_tasks(&tasks, 1, 2);
        assert_eq!(a.len() + b.len(), tasks.len());
        let mut ids: Vec<usize> = a.iter().chain(&b).map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..tasks.len()).collect::<Vec<_>>());
        for (id, task) in a.iter().chain(&b) {
            assert_eq!(task, &tasks[*id]);
        }
    }

    #[test]
    fn store_accumulates_segments_and_resumes() {
        let dir = temp_store_dir("resume");
        let tasks = small_tasks();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            assert!(store.is_empty());
            let shard = shard_tasks(&tasks, 0, 2);
            let ids: Vec<usize> = shard.iter().map(|(id, _)| *id).collect();
            let list: Vec<SweepTask> = shard.into_iter().map(|(_, t)| t).collect();
            let result = run_sweep(&SweepSpec::new(list, 1).with_task_ids(ids));
            store.append_segment("run-a", &result.records).unwrap();
        }
        // A fresh open sees the first shard's records and only schedules the
        // second shard's tasks.
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), tasks.len().div_ceil(2));
        let indexed: Vec<(usize, SweepTask)> = tasks.iter().cloned().enumerate().collect();
        let (pending, skipped) = store.partition_pending(indexed.clone());
        assert_eq!(skipped, store.len());
        assert_eq!(pending.len(), tasks.len() - skipped);
        let ids: Vec<usize> = pending.iter().map(|(id, _)| *id).collect();
        let list: Vec<SweepTask> = pending.into_iter().map(|(_, t)| t).collect();
        let result = run_sweep(&SweepSpec::new(list, 2).with_task_ids(ids));
        store.append_segment("run-b", &result.records).unwrap();
        // Now everything is fingerprinted: resume runs zero tasks.
        let (pending, skipped) = store.partition_pending(indexed);
        assert!(pending.is_empty());
        assert_eq!(skipped, tasks.len());
        // Appending an empty record set writes no segment.
        assert_eq!(store.append_segment("run-c", &[]).unwrap(), None);
        // Duplicate stamps are rejected.
        let result = run_sweep(&SweepSpec::new(small_tasks(), 1));
        assert!(store.append_segment("run-a", &result.records).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_artifacts_match_single_process_run() {
        let dir = temp_store_dir("merge");
        let tasks = small_tasks();
        let single = run_sweep(&SweepSpec::new(tasks.clone(), 1));
        let reference = artifacts::render_jsonl(&single.records);

        let mut store = ResultStore::open(&dir).unwrap();
        // Shards run out of order (1 before 0) on different thread counts.
        for shard_index in [1usize, 0] {
            let shard = shard_tasks(&tasks, shard_index, 2);
            let ids: Vec<usize> = shard.iter().map(|(id, _)| *id).collect();
            let list: Vec<SweepTask> = shard.into_iter().map(|(_, t)| t).collect();
            let result = run_sweep(&SweepSpec::new(list, 1 + shard_index).with_task_ids(ids));
            store
                .append_segment(&format!("shard-{shard_index}"), &result.records)
                .unwrap();
        }
        let (jsonl_path, _, n) = store.write_merged().unwrap();
        assert_eq!(n, tasks.len());
        let merged = std::fs::read_to_string(&jsonl_path).unwrap();
        assert_eq!(merged, reference, "merged JSONL diverged from single run");

        // Re-opening and re-merging (records now come from disk) is stable too.
        let reopened = ResultStore::open(&dir).unwrap();
        let (jsonl_path, _, _) = reopened.write_merged().unwrap();
        assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
