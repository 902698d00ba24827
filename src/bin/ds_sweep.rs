//! `ds-sweep`: the parallel sweep driver.
//!
//! Lives in the umbrella crate since the pipeline-API redesign: deck
//! ingestion and error handling route through the unified
//! `ds_passivity_suite` pipeline ([`load_deck_scenarios`] / [`SuiteError`]),
//! the same entry points the `ds-serve` daemon answers requests from, so a
//! sweep verdict and a served verdict can never diverge.
//!
//! ```console
//! $ cargo run -p ds-passivity-suite --release --bin ds-sweep -- \
//!       --preset standard --threads 4 --out-dir target/sweep
//! ```
//!
//! Options:
//!
//! * `--preset quick|golden|standard` — scenario ensemble (default `standard`);
//! * `--decks DIR` — sweep SPICE decks instead of a preset: every `*.cir`
//!   file under `DIR` (recursively, sorted by path) is parsed into a `deck`
//!   scenario and run through all methods (LMI gated by order as usual);
//!   deck fingerprints hash the canonicalized deck, so `--store`/`--resume`
//!   work across runs; conflicts with `--preset`/`--quick`/`--tasks`;
//! * `--family NAME` — sweep one scenario family across a size ladder (two
//!   seeds per size, all methods, LMI gated by order).  `--family reduced`
//!   defaults to sections 50/250/1000/5000 — original MNA orders up to
//!   10001 — running the sparse-stamp + Krylov reduce-then-verify path;
//!   conflicts with `--preset`/`--quick`/`--decks`/`--tasks`;
//! * `--sizes N,N,…` — override the `--family` size ladder;
//! * `--tasks N` — grow the standard preset until the matrix has ≥ N tasks;
//! * `--threads N` — worker-pool size (default: available parallelism);
//! * `--out-dir PATH` — artifact directory (default `target/sweep`);
//! * `--store DIR` — persistent result store: append this run's records as a
//!   run-stamped JSONL segment and (re)write the canonical merged artifacts
//!   (`merged.jsonl` / `merged.csv`) from all segments;
//! * `--resume` — skip tasks whose content fingerprints are already in the
//!   store (requires `--store`);
//! * `--shard I/M` — deterministic task partitioning: run only the tasks
//!   whose global index `% M == I`, keeping global indices so that the
//!   segments of `M` independent processes merge losslessly;
//! * `--stream` — print each record's JSONL line to stdout as it completes
//!   (completion order; the on-disk artifact stays sorted by task id);
//! * `--trace OUT.jsonl` — record every task's span tree (root `check`:
//!   build spans, `method`, the proposed test's stages) and export them as
//!   `ds-trace/v1` JSONL (ids = the store fingerprints; render it with the
//!   `ds-trace` binary).  Untraced sweeps record no per-task spans;
//! * `--no-violations` — skip the deterministic Popov-grid sampling;
//! * `--compare-single-thread` — rerun the same matrix on 1 thread and print
//!   the wall-clock speedup.
//!
//! The binary self-validates every artifact it wrote (JSONL and CSV are
//! parsed back with the in-tree parsers) and exits non-zero on any error.

use ds_passivity_suite::harness::artifacts::{self, SweepSummary};
use ds_passivity_suite::harness::{self as ds_harness, golden, prelude::*};
use ds_passivity_suite::{load_deck_scenarios, SuiteError};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

struct Args {
    preset: Option<String>,
    decks_dir: Option<PathBuf>,
    family: Option<String>,
    sizes: Option<Vec<usize>>,
    tasks_target: Option<usize>,
    threads: usize,
    out_dir: PathBuf,
    store_dir: Option<PathBuf>,
    resume: bool,
    shard: Option<(usize, usize)>,
    stream: bool,
    trace_out: Option<PathBuf>,
    sample_violations: bool,
    compare_single_thread: bool,
}

fn parse_shard(text: &str) -> Result<(usize, usize), SuiteError> {
    let (index, modulus) = text
        .split_once('/')
        .ok_or_else(|| SuiteError::InvalidRequest(format!("--shard expects I/M, got '{text}'")))?;
    let index: usize = index
        .parse()
        .map_err(|e| SuiteError::InvalidRequest(format!("--shard index: {e}")))?;
    let modulus: usize = modulus
        .parse()
        .map_err(|e| SuiteError::InvalidRequest(format!("--shard modulus: {e}")))?;
    if modulus == 0 || index >= modulus {
        return Err(SuiteError::InvalidRequest(format!(
            "--shard {index}/{modulus}: index must be < modulus and modulus > 0"
        )));
    }
    Ok((index, modulus))
}

fn parse_args() -> Result<Args, SuiteError> {
    let mut args = Args {
        preset: None,
        decks_dir: None,
        family: None,
        sizes: None,
        tasks_target: None,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: PathBuf::from("target/sweep"),
        store_dir: None,
        resume: false,
        shard: None,
        stream: false,
        trace_out: None,
        sample_violations: true,
        compare_single_thread: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| SuiteError::InvalidRequest(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--preset" => args.preset = Some(value("--preset")?),
            "--decks" => args.decks_dir = Some(PathBuf::from(value("--decks")?)),
            "--family" => args.family = Some(value("--family")?),
            "--sizes" => args.sizes = Some(parse_sizes(&value("--sizes")?)?),
            "--tasks" => {
                args.tasks_target = Some(
                    value("--tasks")?
                        .parse()
                        .map_err(|e| SuiteError::InvalidRequest(format!("--tasks: {e}")))?,
                )
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| SuiteError::InvalidRequest(format!("--threads: {e}")))?
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--store" => args.store_dir = Some(PathBuf::from(value("--store")?)),
            "--resume" => args.resume = true,
            "--shard" => args.shard = Some(parse_shard(&value("--shard")?)?),
            "--stream" => args.stream = true,
            "--trace" => args.trace_out = Some(PathBuf::from(value("--trace")?)),
            "--no-violations" => args.sample_violations = false,
            "--compare-single-thread" => args.compare_single_thread = true,
            "--quick" => args.preset = Some("quick".to_string()),
            other => {
                return Err(SuiteError::InvalidRequest(format!(
                    "unknown argument: {other}"
                )))
            }
        }
    }
    if args.resume && args.store_dir.is_none() {
        return Err(SuiteError::InvalidRequest(
            "--resume requires --store DIR".into(),
        ));
    }
    if args.decks_dir.is_some() && (args.preset.is_some() || args.tasks_target.is_some()) {
        return Err(SuiteError::InvalidRequest(
            "--decks builds the matrix from the deck files; drop --preset/--quick/--tasks".into(),
        ));
    }
    if args.family.is_some()
        && (args.preset.is_some() || args.decks_dir.is_some() || args.tasks_target.is_some())
    {
        return Err(SuiteError::InvalidRequest(
            "--family builds a single-family matrix; drop --preset/--quick/--decks/--tasks".into(),
        ));
    }
    if args.sizes.is_some() && args.family.is_none() {
        return Err(SuiteError::InvalidRequest(
            "--sizes requires --family NAME".into(),
        ));
    }
    Ok(args)
}

fn parse_sizes(text: &str) -> Result<Vec<usize>, SuiteError> {
    let sizes: Result<Vec<usize>, _> = text.split(',').map(str::parse).collect();
    let sizes = sizes.map_err(|e| SuiteError::InvalidRequest(format!("--sizes '{text}': {e}")))?;
    if sizes.is_empty() {
        return Err(SuiteError::InvalidRequest("--sizes needs values".into()));
    }
    Ok(sizes)
}

/// Default size ladder for `--family`.  The `reduced` family climbs to
/// 5000 sections — original MNA order 10001 — exercising the sparse
/// reduce-then-verify path at the paper's "NIL for dense methods" scale.
fn default_family_sizes(family: ds_harness::scenario::FamilyKind) -> Vec<usize> {
    use ds_harness::scenario::FamilyKind;
    match family {
        FamilyKind::Reduced => vec![50, 250, 1000, 5000],
        _ => vec![4, 8, 16],
    }
}

fn build_tasks(args: &Args) -> Result<Vec<SweepTask>, SuiteError> {
    let methods = [Method::Proposed, Method::Weierstrass, Method::Lmi];
    if let Some(dir) = &args.decks_dir {
        let scenarios = load_deck_scenarios(dir)?;
        eprintln!("# decks: {} parsed from {}", scenarios.len(), dir.display());
        return Ok(scenario_matrix(&scenarios, &methods));
    }
    if let Some(name) = &args.family {
        use ds_harness::scenario::{FamilyKind, Scenario};
        let family = FamilyKind::parse(name).ok_or_else(|| {
            let names: Vec<&str> = FamilyKind::ALL.iter().map(|f| f.name()).collect();
            SuiteError::InvalidRequest(format!(
                "unknown family '{name}' (one of: {})",
                names.join(", ")
            ))
        })?;
        if family == FamilyKind::Deck {
            return Err(SuiteError::InvalidRequest(
                "the deck family needs deck files; use --decks DIR".into(),
            ));
        }
        let sizes = args
            .sizes
            .clone()
            .unwrap_or_else(|| default_family_sizes(family));
        let mut scenarios = Vec::new();
        for &size in &sizes {
            for seed in 0..2u64 {
                scenarios.push(Scenario::new(family, size).with_seed(seed));
            }
        }
        let max_order = scenarios.iter().map(Scenario::order).max().unwrap_or(0);
        eprintln!("# family {name}: sizes {sizes:?} x 2 seeds (max order {max_order})");
        return Ok(scenario_matrix(&scenarios, &methods));
    }
    match args.preset.as_deref().unwrap_or("standard") {
        "quick" => Ok(scenario_matrix(
            &quick_scenarios(),
            &[Method::Proposed, Method::Weierstrass],
        )),
        "golden" => Ok(golden::golden_tasks()),
        "standard" => Ok(match args.tasks_target {
            Some(target) => standard_tasks(target),
            None => scenario_matrix(&standard_scenarios(2), &methods),
        }),
        other => Err(SuiteError::InvalidRequest(format!(
            "unknown preset: {other}"
        ))),
    }
}

/// A collision-free stamp for this run's store segment: wall-clock nanos
/// since the epoch plus the process id (two shards launched in the same
/// nanosecond still differ by pid).
fn run_stamp() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("{nanos}-{}", std::process::id())
}

fn run() -> Result<(), SuiteError> {
    let args = parse_args()?;
    let full_matrix = build_tasks(&args)?;
    let matrix_len = full_matrix.len();

    // Deterministic inter-process partitioning: global ids survive into the
    // records so shard segments merge back into the single-process artifact.
    let mut indexed: Vec<(usize, SweepTask)> = match args.shard {
        Some((index, modulus)) => ds_harness::shard_tasks(&full_matrix, index, modulus),
        None => full_matrix.iter().cloned().enumerate().collect(),
    };
    if let Some((index, modulus)) = args.shard {
        eprintln!(
            "# shard {index}/{modulus}: {} of {matrix_len} tasks",
            indexed.len()
        );
    }

    let mut store = match &args.store_dir {
        Some(dir) => Some(ds_harness::ResultStore::open(dir).map_err(SuiteError::Harness)?),
        None => None,
    };
    let mut skipped = 0usize;
    if args.resume {
        let store = store.as_ref().expect("--resume implies --store");
        let (pending, n_skipped) = store.partition_pending(indexed);
        indexed = pending;
        skipped = n_skipped;
        eprintln!(
            "# resume: {} tasks already fingerprinted in {}, {} to run",
            skipped,
            store.dir().display(),
            indexed.len()
        );
    }

    let matrix_source = match (&args.decks_dir, &args.family) {
        (Some(dir), _) => format!("decks:{}", dir.display()),
        (None, Some(family)) => format!("family:{family}"),
        (None, None) => args.preset.clone().unwrap_or_else(|| "standard".into()),
    };
    eprintln!(
        "# ds-sweep: matrix={} tasks={} threads={}",
        matrix_source,
        indexed.len(),
        args.threads
    );

    let task_ids: Vec<usize> = indexed.iter().map(|(id, _)| *id).collect();
    let tasks: Vec<SweepTask> = indexed.into_iter().map(|(_, task)| task).collect();

    let stdout = Mutex::new(std::io::stdout());
    let stream_cb = |record: &SweepRecord| {
        let line = artifacts::jsonl_line(record);
        let mut out = ds_harness::sync::lock_infallible(&stdout);
        let _ = writeln!(out, "{line}");
    };
    let spec = SweepSpec {
        tasks: tasks.clone(),
        threads: args.threads,
        sample_violations: args.sample_violations,
        task_ids: Some(task_ids),
        trace: args.trace_out.is_some(),
    };
    let result = run_sweep_with_progress(&spec, if args.stream { Some(&stream_cb) } else { None });

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| SuiteError::Io(format!("creating {}: {e}", args.out_dir.display())))?;
    let jsonl_path = args.out_dir.join("sweep.jsonl");
    let csv_path = args.out_dir.join("sweep.csv");
    let summary_path = args.out_dir.join("summary.txt");

    let jsonl = ds_harness::render_jsonl(&result.records);
    let csv = ds_harness::render_csv(&result.records);
    std::fs::write(&jsonl_path, &jsonl)
        .map_err(|e| SuiteError::Io(format!("writing {}: {e}", jsonl_path.display())))?;
    std::fs::write(&csv_path, &csv)
        .map_err(|e| SuiteError::Io(format!("writing {}: {e}", csv_path.display())))?;

    // Self-validation: read the artifacts back and parse them.
    let jsonl_back = std::fs::read_to_string(&jsonl_path)
        .map_err(|e| SuiteError::Io(format!("reading back {}: {e}", jsonl_path.display())))?;
    let jsonl_records = ds_harness::validate_jsonl(&jsonl_back)
        .map_err(|e| SuiteError::Harness(format!("JSONL artifact invalid: {e}")))?;
    let csv_back = std::fs::read_to_string(&csv_path)
        .map_err(|e| SuiteError::Io(format!("reading back {}: {e}", csv_path.display())))?;
    let csv_records = ds_harness::validate_csv(&csv_back)
        .map_err(|e| SuiteError::Harness(format!("CSV artifact invalid: {e}")))?;
    if jsonl_records != result.records.len() || csv_records != result.records.len() {
        return Err(SuiteError::Harness(format!(
            "artifact record counts diverge: jsonl={jsonl_records} csv={csv_records} expected={}",
            result.records.len()
        )));
    }

    if let Some(trace_path) = &args.trace_out {
        let traces: Vec<_> = result
            .records
            .iter()
            .filter_map(|r| r.stage_ns.as_ref())
            .collect();
        let text: String = traces.iter().map(|t| t.render_jsonl()).collect();
        std::fs::write(trace_path, &text)
            .map_err(|e| SuiteError::Io(format!("writing {}: {e}", trace_path.display())))?;
        println!(
            "# trace: {} per-task span trees -> {} (render with: cargo run --release --bin ds-trace -- {})",
            traces.len(),
            trace_path.display(),
            trace_path.display()
        );
    }

    if let Some(store) = store.as_mut() {
        if let Some(segment) = store
            .append_segment(&run_stamp(), &result.records)
            .map_err(SuiteError::Harness)?
        {
            eprintln!("# store: appended segment {}", segment.display());
        }
        let (merged_jsonl, merged_csv, merged_count) =
            store.write_merged().map_err(SuiteError::Harness)?;
        println!(
            "# store: {} records across all segments -> {} / {}",
            merged_count,
            merged_jsonl.display(),
            merged_csv.display()
        );
    }

    let summary = SweepSummary::from_result(&result);
    let mut summary_text = summary.render();

    if args.compare_single_thread {
        eprintln!("# rerunning on 1 thread for the speedup comparison…");
        let single = run_sweep(&SweepSpec {
            threads: 1,
            trace: false,
            ..spec.clone()
        });
        summary_text.push_str(&artifacts::render_speedup(&single, &result));
        summary_text.push('\n');
    }

    std::fs::write(&summary_path, &summary_text)
        .map_err(|e| SuiteError::Io(format!("writing {}: {e}", summary_path.display())))?;
    print!("{summary_text}");
    println!(
        "# executed: {} tasks (skipped {} already stored) of {} in matrix",
        result.records.len(),
        skipped,
        matrix_len
    );
    println!(
        "# artifacts validated: {} ({} records), {} ({} records)",
        jsonl_path.display(),
        jsonl_records,
        csv_path.display(),
        csv_records
    );
    println!(
        "# eigen workspace pools: {} hits / {} misses across {} workers ({:.0} KiB resident)",
        result.workspace.hits,
        result.workspace.misses,
        result.threads,
        result.workspace.resident_bytes as f64 / 1024.0
    );
    if summary.total_errors > 0 {
        return Err(SuiteError::Harness(format!(
            "{} tasks errored",
            summary.total_errors
        )));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ds-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
