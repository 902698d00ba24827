//! The daemon's stage histograms hold only stage spans that actually ran.
//! One test in this binary: the metrics registry is process-wide, so no
//! other check may run while the counts are compared.

use ds_passivity_suite::harness::Method;
use ds_passivity_suite::netlist::parse_deck;
use ds_serve::{CheckJob, CheckReply, CheckService};

/// The count of each `ds_obs::STAGES` entry's histogram (0 if absent).
fn stage_counts() -> Vec<u64> {
    let text = ds_obs::metrics::global().render_prometheus();
    let count = |stage: &str| {
        let series = format!("ds_check_stage_seconds_count{{stage=\"{stage}\"}} ");
        let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
        line.map_or(0, |n| n.parse().unwrap())
    };
    ds_obs::STAGES.iter().map(|s| count(s)).collect()
}

#[test]
fn only_stage_spans_that_ran_feed_the_stage_histograms() {
    let service = CheckService::start(1, 8, 16, None).unwrap();
    let deck = parse_deck("R1 a b 2\nL1 b c 0.5\nC1 c 0 1\nR2 c 0 10\n.port a\n.end\n").unwrap();
    let check = |method| {
        let job = CheckJob {
            name: format!("{:016x}", deck.content_hash()),
            deck: deck.clone(),
            method,
            repair: false,
            reduce: false,
        };
        let reply = service.submit(job).unwrap().recv().unwrap();
        assert!(
            matches!(reply, CheckReply::Done { cache: "miss", .. }),
            "{reply:?}"
        );
    };
    let before = stage_counts();
    check(Method::Weierstrass);
    assert_eq!(stage_counts(), before, "Weierstrass added samples");
    check(Method::Proposed);
    // One sample per proposed-test stage; the reduce-path stages never ran.
    let after = stage_counts();
    let added: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(added, [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
    service.stop().unwrap();
}
