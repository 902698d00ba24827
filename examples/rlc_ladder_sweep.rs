//! Sweep the order of the Table-1 RLC-ladder workload and report the verdict
//! and wall-clock time of the proposed passivity test at each order — a small
//! reproduction of the paper's scaling experiment, one [`PassivityCheck`] per
//! order.
//!
//! Run with `cargo run --release --example rlc_ladder_sweep`.

use ds_passivity_suite::circuits::generators;
use ds_passivity_suite::prelude::*;

fn main() -> Result<(), SuiteError> {
    println!(
        "{:>8} {:>10} {:>12} {:>18}",
        "order", "passive", "time (ms)", "impulsive states"
    );
    for order in [10usize, 20, 40, 60, 80] {
        let model = generators::rlc_ladder_with_impulsive(order)?;
        let outcome = PassivityCheck::model(model).run()?;
        let report = outcome.report.as_ref().expect("full report");
        println!(
            "{:>8} {:>10} {:>12.2} {:>18}",
            order,
            outcome.passive == Some(true),
            outcome.record.elapsed.as_secs_f64() * 1e3,
            report.diagnostics.removed_impulse_states
        );
    }
    Ok(())
}
