//! # ds-bench
//!
//! Binaries that regenerate the evaluation artifacts of the DAC 2006 paper
//! on the [`ds_harness`] parallel sweep engine — `table1` (Table 1 CPU
//! times), `fig2` (Figure 2 scaling curves) and `verdicts` (the agreement
//! matrix of the three tests).  Per-stage, per-layer and serving timings
//! come from the repository benchmark (`perfbench/`), which times the
//! proposed test's stages through their public entry points and drives an
//! in-process daemon in its `serve-ci` workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

pub use ds_harness::{Method, LMI_MAX_ORDER};

/// The model orders used in the paper's Table 1.
pub const TABLE1_ORDERS: &[usize] = &[20, 40, 60, 80, 100, 200, 400];

/// Formats a duration in seconds with millisecond resolution, or `"n/a"`.
pub fn format_seconds(value: Option<Duration>) -> String {
    match value {
        Some(d) => format!("{:.4}", d.as_secs_f64()),
        None => "n/a".to_string(),
    }
}

/// Parses the shared `--threads N` flag of the sweep-backed binaries
/// (defaults to 1: single-shot timings, like the paper's measurements).
/// A present-but-invalid value aborts instead of silently running serially —
/// a benchmark on the wrong thread count measures the wrong thing.
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let Some(position) = args.iter().position(|a| a == "--threads") else {
        return 1;
    };
    match args.get(position + 1).map(|v| v.parse::<usize>()) {
        Some(Ok(threads)) => threads,
        Some(Err(e)) => {
            eprintln!("--threads: invalid value {:?}: {e}", args[position + 1]);
            std::process::exit(2);
        }
        None => {
            eprintln!("--threads needs a value");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_seconds(None), "n/a");
        assert!(format_seconds(Some(Duration::from_millis(1500))).starts_with("1.5"));
        assert_eq!(Method::Proposed.name(), "proposed");
        assert_eq!(Method::Lmi.name(), "lmi");
    }
}
