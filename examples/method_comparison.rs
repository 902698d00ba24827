//! Runs all three passivity tests (proposed SHH test, Weierstrass baseline,
//! extended-LMI baseline) on the same model and compares verdicts and runtime —
//! a miniature version of the paper's Table 1, driven entirely through the
//! unified [`PassivityCheck`] pipeline.
//!
//! Run with `cargo run --release --example method_comparison`.

use ds_passivity_suite::circuits::generators;
use ds_passivity_suite::prelude::*;

fn main() -> Result<(), SuiteError> {
    let model = generators::rlc_ladder_with_impulsive(20)?;
    println!("model: {} (order {})", model.name, model.system.order());
    println!("{:<14} {:>12} {:>10}", "method", "time (ms)", "passive");

    for method in [Method::Proposed, Method::Weierstrass, Method::Lmi] {
        let outcome = PassivityCheck::model(model.clone()).method(method).run()?;
        println!(
            "{:<14} {:>12.2} {:>10}",
            method.name(),
            outcome.record.elapsed.as_secs_f64() * 1e3,
            outcome.passive == Some(true)
        );
    }
    Ok(())
}
