//! Quickstart: build a small RLC circuit model with MNA and check it through
//! the suite's unified pipeline API — the same [`PassivityCheck`] entry point
//! the `ds-serve` daemon and `ds-sweep` route every verdict through.
//!
//! Run with `cargo run --example quickstart`.

use ds_passivity_suite::circuits::netlist::{Netlist, Port};
use ds_passivity_suite::prelude::*;

fn main() -> Result<(), SuiteError> {
    // A two-node circuit: a series R-L branch connects the port node 1 to
    // node 2 and an R ∥ C tank loads node 2.
    let mut netlist = Netlist::new(2);
    netlist
        .resistor(1, 2, 2.0)
        .inductor(1, 2, 0.5)
        .capacitor(2, 0, 1.0)
        .resistor(2, 0, 10.0)
        .port(Port::to_ground(1));

    let outcome = PassivityCheck::netlist("quickstart", netlist).run()?;
    println!(
        "MNA descriptor model: order {}, {} port(s)",
        outcome.order, outcome.record.ports
    );

    let report = outcome
        .report
        .as_ref()
        .expect("in-memory checks keep the full report");
    println!("{report}");
    println!("verdict: {}", report.verdict);
    println!("passive: {}", outcome.passive == Some(true));
    if let Some(m1) = &report.m1 {
        println!("residue matrix M1 = {:.6}", m1[(0, 0)]);
    }
    if let Some(proper) = &report.proper_part {
        println!(
            "stable proper part: order {}, stable = {}",
            proper.order(),
            proper.is_stable(1e-10)?
        );
    }
    println!("serialized verdict report: {}", outcome.report_json());
    Ok(())
}
