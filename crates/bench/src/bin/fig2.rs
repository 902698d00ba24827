//! Regenerates **Figure 2** of the paper: CPU-time curves over model order for
//! the three passivity tests (top pane: all methods, log scale; bottom pane:
//! proposed vs Weierstrass, linear scale).  The output is CSV so it can be
//! plotted directly.  Since PR 2 the sweep runs on the `ds-harness` engine.
//!
//! Run with `cargo run -p ds-bench --release --bin fig2 [--quick] [--threads N]`.

use ds_bench::{threads_from_args, Method};
use ds_harness::prelude::*;
use std::collections::HashMap;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_from_args();
    let orders: Vec<usize> = if quick {
        vec![20, 40, 60, 80, 100]
    } else {
        vec![20, 40, 60, 80, 100, 140, 200, 280, 400]
    };

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
    let mut seconds: HashMap<(usize, &str), f64> = HashMap::new();
    for record in &result.records {
        if record.passive.is_some() {
            seconds.insert((record.order, record.method), record.elapsed.as_secs_f64());
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

    println!("# Figure 2 — CPU times for different passivity tests (CSV)");
    println!("# engine: ds-harness, threads={}", result.threads);
    println!("order,lmi_seconds,proposed_seconds,weierstrass_seconds");
    for &order in &orders {
        let fmt = |m: &str| {
            seconds
                .get(&(order, m))
                .map_or(String::new(), |v| format!("{v:.6}"))
        };
        println!(
            "{},{},{},{}",
            order,
            fmt("lmi"),
            fmt("proposed"),
            fmt("weierstrass")
        );
    }
}
