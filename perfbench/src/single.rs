//! The single-caller workloads, `table1-o200` and `reduce-o10k`: one
//! caller checks deck text back to back through
//! `PassivityCheck::deck_text(..).run()` (with `.reduce(ReduceSpec::default())`
//! on the order-10⁴ meshes).  No contention, so each check's latency is the
//! sum of its layers.

use crate::env::EnvStamp;
use crate::gen::GenDeck;
use crate::report::known_method_error;
use crate::{ms, stats, Ctx, Run};
use ds_passivity_suite::harness::sweep::TaskStatus;
use ds_passivity_suite::shh::krylov::ReduceSpec;
use ds_passivity_suite::{CheckOutcome, PassivityCheck, SuiteError};
use std::time::{Duration, Instant};

/// Set-up repetitions.  Each is the first check on its thread (cold
/// per-thread workspace pools); the last runs on the thread that then runs
/// the timed phase.
pub const SETUP_REPEATS: usize = 5;

/// The reduced order `ReduceSpec::default()` targets.
pub const REDUCED_ORDER: usize = 48;

/// Checks in the timed phase: `per_second` for every second of `--seconds`,
/// at least one per input.  The count is fixed by `--seconds`, not by the
/// clock, so every run of a seed makes the same checks (and the same
/// failures), however fast the host runs that day.
pub fn timed_checks(seconds: f64, per_second: f64, inputs: usize) -> usize {
    ((seconds * per_second).round() as usize).max(inputs)
}

/// One check through the public entry point, timed from call to verdict.
pub fn timed_check(deck: &GenDeck, reduce: bool) -> (Duration, Result<CheckOutcome, SuiteError>) {
    let text = deck.text.clone();
    let start = Instant::now();
    let mut check = PassivityCheck::deck_text(text);
    if reduce {
        check = check.reduce(ReduceSpec::default());
    }
    let outcome = check.run();
    (start.elapsed(), outcome)
}

/// Compares one outcome with the deck's exact label.  Returns the reduce
/// diagnostics when present.
pub fn verify(
    run: &mut Run,
    deck: &GenDeck,
    reduce: bool,
    outcome: &Result<CheckOutcome, SuiteError>,
) -> Option<(usize, f64)> {
    run.tally.attempt(&deck.name);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            run.tally.fail(&deck.name, &format!("error: {e}"), false);
            return None;
        }
    };
    if outcome.status != TaskStatus::Ok {
        run.tally.fail(
            &deck.name,
            &format!("{}: {}", outcome.status.name(), outcome.reason),
            outcome.status == TaskStatus::MethodError && known_method_error(&outcome.reason),
        );
    } else if outcome.passive != Some(deck.passive) {
        run.tally.fail(
            &deck.name,
            &format!(
                "verdict {:?}, expected {} ({})",
                outcome.passive, deck.passive, outcome.reason
            ),
            false,
        );
    }
    if outcome.order != deck.order {
        run.tally.violation(format!(
            "{}: order {} reported, {} generated",
            deck.name, outcome.order, deck.order
        ));
    }
    if !reduce {
        return None;
    }
    match (outcome.reduced_order, outcome.residual) {
        (Some(order), Some(residual)) if order == REDUCED_ORDER && residual.is_finite() => {
            Some((order, residual))
        }
        other => {
            run.tally.violation(format!(
                "{}: reduce diagnostics {other:?}, expected order {REDUCED_ORDER} and a finite residual",
                deck.name
            ));
            None
        }
    }
}

pub fn run(
    ctx: &Ctx,
    env: &mut EnvStamp,
    decks: &[GenDeck],
    reduce: bool,
    per_second: f64,
) -> Result<Run, String> {
    let mut run = Run::default();
    let mut diagnostics: Vec<Option<(usize, f64)>> = vec![None; decks.len()];
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let deck = &decks[i % decks.len()];
        let (elapsed, outcome) = if i + 1 < SETUP_REPEATS {
            std::thread::scope(|s| s.spawn(|| timed_check(deck, reduce)).join())
                .map_err(|_| "set-up check panicked".to_string())?
        } else {
            timed_check(deck, reduce)
        };
        setups.push(elapsed.as_secs_f64());
        diagnostics[i % decks.len()] = verify(&mut run, deck, reduce, &outcome);
    }

    env.start_timed();
    let phase = Instant::now();
    let checks = timed_checks(ctx.seconds, per_second, decks.len());
    let mut latencies = Vec::with_capacity(checks);
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); decks.len()];
    for next in 0..checks {
        let index = next % decks.len();
        let deck = &decks[index];
        let (elapsed, outcome) = timed_check(deck, reduce);
        latencies.push(ms(elapsed));
        per_input[index].push(ms(elapsed));
        diagnostics[index] = verify(&mut run, deck, reduce, &outcome).or(diagnostics[index]);
    }
    let phase_s = phase.elapsed().as_secs_f64();
    env.end_timed();

    for ((deck, diag), times) in decks.iter().zip(&diagnostics).zip(&per_input) {
        let mut note = format!(
            "input {} order={} checks={} p50_ms={:.3}",
            deck.name,
            deck.order,
            times.len(),
            stats::median(times).unwrap_or(f64::NAN)
        );
        if let Some((order, residual)) = diag {
            note.push_str(&format!(" reduced_order={order} residual={residual:e}"));
        }
        run.notes.push(note);
    }
    let setup = stats::median(&setups).ok_or("no set-up samples")?;
    run.metric("setup_s", setup, "s", setups.len());
    run.latencies(&latencies);
    run.info(
        "checks_per_s",
        latencies.len() as f64 / phase_s,
        "1/s",
        latencies.len(),
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timed_checks_are_fixed_by_the_run_length() {
        assert_eq!(timed_checks(25.0, 2.0, 3), 50);
        assert_eq!(timed_checks(25.0, 1.2, 4), 30);
        assert_eq!(timed_checks(0.1, 2.0, 3), 3);
    }
}
