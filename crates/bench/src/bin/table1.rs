//! Regenerates **Table 1** of the paper: CPU times (seconds) of the LMI test,
//! the proposed SHH test and the Weierstrass decomposition for RLC models of
//! order 20–400.  Since PR 2 the sweep runs on the `ds-harness` engine.
//!
//! Run with `cargo run -p ds-bench --release --bin table1`.
//! Pass `--quick` to restrict the sweep to orders ≤ 100 (useful in CI) and
//! `--threads N` to fan the (order × method) matrix across N workers
//! (default 1: single-shot timings, like the paper's measurements).

use ds_bench::{format_seconds, threads_from_args, Method, LMI_MAX_ORDER, TABLE1_ORDERS};
use ds_harness::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_from_args();
    let orders: Vec<usize> = TABLE1_ORDERS
        .iter()
        .copied()
        .filter(|&o| !quick || o <= 100)
        .collect();

    let scenarios: Vec<Scenario> = orders
        .iter()
        .map(|&o| Scenario::new(FamilyKind::ImpulsiveLadder, o))
        .collect();
    let tasks = scenario_matrix(
        &scenarios,
        &[Method::Lmi, Method::Proposed, Method::Weierstrass],
    );
    let result = run_sweep(&SweepSpec {
        sample_violations: false,
        ..SweepSpec::new(tasks, threads)
    });

    // (order, method) → (elapsed, agrees)
    let mut cells: HashMap<(usize, &str), (Duration, bool)> = HashMap::new();
    for record in &result.records {
        if record.passive.is_some() {
            cells.insert(
                (record.order, record.method),
                (record.elapsed, record.agrees == Some(true)),
            );
        } else {
            eprintln!(
                "order {} / {}: {} ({})",
                record.order,
                record.method,
                record.status.name(),
                record.reason
            );
        }
    }

    println!("# Table 1 — CPU times (s) for different passivity tests");
    println!("# workload: rlc_ladder_with_impulsive(order), passive with impulsive modes");
    println!("# engine: ds-harness, threads={}", result.threads);
    println!(
        "{:>8} {:>14} {:>14} {:>14}  verdicts",
        "order", "LMI", "proposed", "weierstrass"
    );
    for &order in &orders {
        let lmi = cells.get(&(order, "lmi"));
        let proposed = cells.get(&(order, "proposed"));
        let weierstrass = cells.get(&(order, "weierstrass"));
        let fmt_flag = |c: Option<&(Duration, bool)>| c.map_or("-".into(), |r| r.1.to_string());
        let verdicts = format!(
            "lmi:{} shh:{} wst:{}",
            fmt_flag(lmi),
            fmt_flag(proposed),
            fmt_flag(weierstrass)
        );
        println!(
            "{:>8} {:>14} {:>14} {:>14}  {}",
            order,
            format_seconds(lmi.map(|r| r.0)),
            format_seconds(proposed.map(|r| r.0)),
            format_seconds(weierstrass.map(|r| r.0)),
            verdicts
        );
    }
    println!(
        "# 'n/a' for the LMI column beyond order {LMI_MAX_ORDER} mirrors the paper's NIL entries"
    );
}
