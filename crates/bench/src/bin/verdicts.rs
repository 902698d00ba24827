//! EXP-V1: verdict agreement of the three passivity tests across passive and
//! non-passive model families (the qualitative claim of the paper's Section 4
//! that the proposed test is as reliable as the conventional ones).  Since
//! PR 2 the scenario matrix — now including the multiport, coupled-mesh,
//! transmission-line and near-boundary families — runs on the `ds-harness`
//! engine.
//!
//! Run with `cargo run -p ds-bench --release --bin verdicts [--threads N]`.

use ds_bench::{threads_from_args, Method};
use ds_harness::prelude::*;
use std::collections::HashMap;

fn main() {
    let threads = threads_from_args();
    let mut scenarios = vec![
        Scenario::new(FamilyKind::RcLadder, 7),
        Scenario::new(FamilyKind::RlcLadder, 5),
        Scenario::new(FamilyKind::ImpulsiveLadder, 12),
        Scenario::new(FamilyKind::ImpulsiveLadder, 20),
        Scenario::new(FamilyKind::RcGrid, 3),
        Scenario::new(FamilyKind::MultiportLadder, 3).with_ports(2),
        Scenario::new(FamilyKind::MultiportLadderImpulsive, 2).with_ports(3),
        Scenario::new(FamilyKind::CoupledMesh, 3),
        Scenario::new(FamilyKind::TlineChain, 4),
        Scenario::new(FamilyKind::PerturbedBoundary, 6).with_seed(1),
        Scenario::new(FamilyKind::PerturbedBoundary, 6)
            .with_margin(0.3)
            .with_seed(1),
        Scenario::new(FamilyKind::NonpassiveLadder, 10),
        Scenario::new(FamilyKind::NegativeM1, 10),
    ];
    for seed in 0..3u64 {
        scenarios.push(Scenario::new(FamilyKind::RandomPassive, 6).with_seed(seed));
        scenarios.push(Scenario::new(FamilyKind::RandomNonpassive, 6).with_seed(seed));
    }

    let tasks = scenario_matrix(&scenarios, &Method::ALL);
    let result = run_sweep(&SweepSpec::new(tasks.clone(), threads));

    // Group records back by scenario via their task index.
    let mut by_scenario: HashMap<usize, Vec<&SweepRecord>> = HashMap::new();
    for record in &result.records {
        let scenario = &tasks[record.task_id].scenario;
        let index = scenarios
            .iter()
            .position(|s| s == scenario)
            .expect("task without scenario");
        by_scenario.entry(index).or_default().push(record);
    }

    println!(
        "{:<60} {:>6} {:>10} {:>12} {:>8}",
        "model", "truth", "proposed", "weierstrass", "lmi"
    );
    let mut disagreements = 0usize;
    for (index, scenario) in scenarios.iter().enumerate() {
        let records = by_scenario.remove(&index).unwrap_or_default();
        let mut cell = |method: &str| -> String {
            match records.iter().find(|r| r.method == method) {
                None => "n/a".to_string(),
                Some(r) => match r.passive {
                    Some(passive) if r.agrees == Some(false) => {
                        disagreements += 1;
                        format!("{passive}(!)")
                    }
                    Some(passive) => format!("{passive}"),
                    None => format!("err:{}", r.reason),
                },
            }
        };
        let name = records
            .first()
            .map_or_else(|| format!("{:?}", scenario.family), |r| r.scenario.clone());
        let truth = match records.first().and_then(|r| r.expected_passive) {
            Some(expected) => expected.to_string(),
            None => "?".to_string(),
        };
        let proposed = cell("proposed");
        let weierstrass = cell("weierstrass");
        let lmi = cell("lmi");
        println!("{name:<60} {truth:>6} {proposed:>10} {weierstrass:>12} {lmi:>8}");
    }
    println!("# entries marked (!) disagree with the construction ground truth");
    println!("# total disagreements: {disagreements}");
    println!("# engine: ds-harness, threads={}", result.threads);
}
