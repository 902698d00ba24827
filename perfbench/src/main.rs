//! The passivity checker's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one workload in its own process.  Inputs are generated from
//! the seed ([`gen`]) and handed to the checker only through its public
//! entry points.  With `--trace 0` the run measures the workload's
//! end-to-end metrics over a fixed amount of work that `--seconds` sizes;
//! with `--trace 1` it replays the public calls of every layer under the
//! benchmark's own spans ([`layers`]).  Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  See `README.md` in
//! this directory.

mod env;
mod gen;
mod layers;
mod report;
mod serve;
mod single;
mod stats;
mod sweep;
mod trace;

use env::EnvStamp;
use report::{Metric, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = ["table1-o200", "reduce-o10k", "serve-ci", "sweep-resume"];

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (stores, segments); removed at exit.
    pub work: PathBuf,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Run {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Extra report lines (per-input results, trace tables).
    pub notes: Vec<String>,
}

impl Run {
    /// Adds a metric of `BENCHMARK.json` (it goes into the result line).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, true);
    }

    /// Adds a metric that is printed but not bounded (not in the result
    /// line).
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, false);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, bounded: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            bounded,
        });
    }

    /// The latency metrics of a timed phase: the bounded `check_p5_ms`,
    /// and the median and 99th percentile, printed without a bound.  On a
    /// shared host the median flips between a contended and an uncontended
    /// level from run to run; the 5th percentile stays on the uncontended
    /// one (see the README).
    pub fn latencies(&mut self, samples: &[f64]) {
        let quantiles = [
            ("check_p5_ms", 0.05, true),
            ("check_p50_ms", 0.5, false),
            ("check_p99_ms", 0.99, false),
        ];
        for (name, q, bounded) in quantiles {
            if let Some(v) = stats::quantile(samples, q) {
                self.push(name, v, "ms", samples.len(), bounded);
            }
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

const USAGE: &str =
    "usage: perfbench --workload <table1-o200|reduce-o10k|serve-ci|sweep-resume> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok((
        workload,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.unwrap_or(false),
    ))
}

fn run_workload(ctx: &Ctx, env: &mut EnvStamp) -> Result<Run, String> {
    if ctx.trace {
        return layers::run(ctx, env);
    }
    let mut run = match ctx.workload.as_str() {
        "table1-o200" => single::run(ctx, env, &gen::table1_decks(ctx.seed, 4), false, 1.2),
        "reduce-o10k" => single::run(ctx, env, &gen::reduce_decks(ctx.seed, 3), true, 2.0),
        "serve-ci" => serve::run(ctx, env),
        "sweep-resume" => sweep::run(ctx, env),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    let rss = env::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    run.metric("peak_rss_mb", rss, "MB", 1);
    let inputs = run.tally.inputs.len();
    run.metric("ok_share", run.tally.ok_share(), "share", inputs);
    let (failed, attempted) = (run.tally.failed, run.tally.attempted);
    run.info(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
        attempted as usize,
    );
    Ok(run)
}

/// The run's scratch directory, under `.bench_work/` of the checkout.
fn work_dir(workload: &str) -> PathBuf {
    Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        work: work_dir(&workload),
        workload,
        seed,
        seconds,
        trace,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: creating {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let mut env = EnvStamp::begin();
    let result = run_workload(&ctx, &mut env);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "run workload={} seed={} seconds={} trace={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    println!("{env}");
    for note in &run.notes {
        println!("{note}");
    }
    for (input, (reason, count)) in &run.tally.failures {
        println!("failure {input} x{count}: {reason}");
    }
    for violation in &run.tally.violations {
        println!("violation {violation}");
    }
    for m in &run.metrics {
        let bound = if m.bounded { "" } else { " unbounded" };
        println!(
            "metric {} = {} {} (n={}){bound}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", report::result_json(&run.tally, &run.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = parse_args(&args(&[
            "--workload",
            "serve-ci",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed, ("serve-ci".to_string(), 7, 10.0, true));
        assert!(parse_args(&args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--workload", "serve-ci", "--seed"])).is_err());
    }
}
