//! The traced run (`--trace 1`): replays the public calls of every layer on
//! inputs generated from the seed, each under a span from the benchmark's
//! own [`Tracer`], and reports each layer's time, the span tree, each
//! layer's share of its replay group and the tracing overhead.
//!
//! Every traced run prints every per-layer metric, whichever workload it
//! names: the layers are measured on the inputs of the workload that
//! exercises them (`table1-o200`'s ladders for the dense kernels and the
//! proposed test's stages, `reduce-o10k`'s meshes for parsing and the
//! sparse path, `serve-ci`'s decks and stream for the daemon, and
//! `sweep-resume`'s matrix and store for the harness).  The workload named
//! on the command line selects which entry point the tracing overhead is
//! measured on.
//!
//! The stage replay calls the proposed test's public stage functions in the
//! order `fast::check_passivity` calls them and derives a verdict from
//! their results; the run is marked incorrect when that verdict differs
//! from `check_passivity`'s on the same model.

use crate::env::{nproc, EnvStamp};
use crate::gen::{self, ServeStream};
use crate::trace::{self, Span, Tracer};
use crate::{ms, serve, single, stats, sweep, Ctx, Run};
use ds_passivity_suite::circuits::mna;
use ds_passivity_suite::descriptor::DescriptorSystem;
use ds_passivity_suite::harness::sweep::violation_frequency_count;
use ds_passivity_suite::harness::{ResultStore, SweepTask};
use ds_passivity_suite::linalg::decomp::{svd, symmetric};
use ds_passivity_suite::linalg::sparse::{rcm_order, SparseLu};
use ds_passivity_suite::linalg::{eigen, sign, Matrix};
use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::passivity::fast::{check_passivity, FastTestOptions};
use ds_passivity_suite::passivity::weierstrass_test::{
    check_passivity_weierstrass, WeierstrassTestOptions,
};
use ds_passivity_suite::passivity::{proper, reduction, residue, PassivityError};
use ds_passivity_suite::shh::krylov::{reduce_prima, ReduceSpec};
use ds_passivity_suite::shh::pencil::build_phi;
use ds_passivity_suite::shh::positive_real::{test_positive_real, PositiveRealOptions};
use ds_passivity_suite::shh::ShhError;
use ds_passivity_suite::PassivityCheck;
use ds_serve::{CheckJob, CheckReply, CheckService};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

const TABLE1_INPUTS: usize = 2;
const REDUCE_INPUTS: usize = 2;
const SERVE_INPUTS: usize = 32;
const SERVE_STREAM: usize = 4 * gen::SERVE_BLOCK;

/// Per-layer timings reported as the median of one span under one replay
/// group: `(group, span)`; the metric is the span name plus `_ms`.
const MEDIANS: [(&str, &str); 20] = [
    ("perfbench.reduce", "ds-netlist.parse"),
    ("perfbench.reduce", "ds-netlist.hash"),
    ("perfbench.serve", "ds-circuits.stamp"),
    ("perfbench.reduce", "ds-circuits.stamp_sparse"),
    ("perfbench.table1", "ds-linalg.sign"),
    ("perfbench.table1", "ds-linalg.eig"),
    ("perfbench.table1", "ds-linalg.svd"),
    ("perfbench.reduce", "ds-linalg.rcm"),
    ("perfbench.reduce", "ds-linalg.sparse_lu"),
    ("perfbench.reduce", "ds-linalg.sparse_solve"),
    ("perfbench.reduce", "ds-shh.reduce"),
    ("perfbench.table1", "ds-passivity.check"),
    ("perfbench.table1", "ds-passivity.weierstrass"),
    ("perfbench.sweep", "ds-harness.build"),
    ("perfbench.sweep", "ds-harness.violation"),
    ("perfbench.sweep", "ds-harness.store_open"),
    ("perfbench.sweep", "ds-harness.append"),
    ("perfbench.sweep", "ds-harness.merge"),
    ("perfbench.serve", "ds-serve.service_hit"),
    ("perfbench.serve", "ds-serve.service_miss"),
];

/// The proposed test's stages, in the order `fast::check_passivity` runs
/// them.
pub const STAGES: [&str; 9] = [
    "ds-shh.build_phi",
    "ds-passivity.impulse",
    "ds-passivity.nondynamic",
    "ds-passivity.residue",
    "ds-passivity.restore",
    "ds-passivity.rank_e",
    "ds-passivity.regularize",
    "ds-passivity.split",
    "ds-shh.pr_test",
];

fn text<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// What the stage replay decided, plus the matrix the dense kernels are
/// timed on.
struct Replayed {
    passive: bool,
    a44: Option<Matrix>,
}

/// Calls the proposed test's public stages in `check_passivity`'s order,
/// each under its own span, and derives the verdict from their results
/// (without the Markov-parameter probe, which has no public entry point;
/// its time shows as `ds-passivity.unattributed_ms`).
fn replay_stages(t: &Tracer, sys: &DescriptorSystem) -> Result<Replayed, String> {
    let options = FastTestOptions::default();
    let tol = options.rel_tol.max(1e-13);
    let rejected = Replayed {
        passive: false,
        a44: None,
    };
    let phi = t
        .span(STAGES[0], || build_phi(sys))
        .map_err(text("build_phi"))?;
    let cancelled = t
        .span(STAGES[1], || reduction::cancel_impulsive_modes(&phi, tol))
        .map_err(text("impulse"))?;
    let nondynamic = t
        .span(STAGES[2], || {
            reduction::remove_nondynamic_modes(&cancelled.reduced, tol)
        })
        .map_err(text("nondynamic"))?;
    if !nondynamic.impulse_free {
        return Ok(rejected);
    }
    let indefinite = t
        .span(STAGES[3], || -> Result<bool, PassivityError> {
            let m1 = residue::extract_m1(sys, tol)?.m1;
            if cancelled.removed_states == 0 || m1.rows() == 0 {
                return Ok(false);
            }
            let min = symmetric::min_eigenvalue(&m1.symmetric_part())?;
            Ok(min < -tol.max(1e-10) * sys.scale())
        })
        .map_err(text("residue"))?;
    if indefinite {
        return Ok(rejected);
    }
    let restored = t
        .span(STAGES[4], || reduction::restore_shh(&nondynamic.reduced))
        .map_err(text("restore"))?;
    t.span(STAGES[5], || sys.rank_e(tol))
        .map_err(text("rank_e"))?;
    let regular = t
        .span(STAGES[6], || proper::regularize(&restored.system, tol))
        .map_err(text("regularize"))?;
    let stable = match t.span(STAGES[7], || proper::extract_stable_part(&regular, tol)) {
        Ok(stable) => stable,
        Err(PassivityError::Shh(ShhError::ImaginaryAxisEigenvalues)) => return Ok(rejected),
        Err(e) => return Err(format!("split: {e}")),
    };
    let pr_options = PositiveRealOptions {
        assume_stable: true,
        ..options.positive_real.clone()
    };
    let verdict = t
        .span(STAGES[8], || {
            test_positive_real(&stable.state_space, &pr_options)
        })
        .map_err(text("pr_test"))?;
    Ok(Replayed {
        passive: verdict.is_positive_real(),
        a44: Some(regular.a44),
    })
}

/// `(untraced, traced)` entry-point times of the workload the run names.
#[derive(Default)]
struct EntryTimes {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

fn table1(t: &Tracer, run: &mut Run, seed: u64, entry: &mut EntryTimes) -> Result<(), String> {
    for deck in gen::table1_decks(seed, TABLE1_INPUTS) {
        let (untraced, outcome) = single::timed_check(&deck, false);
        single::verify(run, &deck, false, &outcome);
        entry.untraced.push(ms(untraced));
        t.begin_check(deck.name.clone());
        t.span("perfbench.table1", || -> Result<(), String> {
            let owned = deck.text.clone();
            let outcome = t.span("ds-passivity-suite.run", || PassivityCheck::deck_text(owned).run());
            single::verify(run, &deck, false, &outcome);

            let parsed = t
                .span("ds-netlist.parse", || parse_deck(&deck.text))
                .map_err(text("parse"))?;
            t.span("ds-netlist.hash", || parsed.content_hash());
            let sys = t
                .span("ds-circuits.stamp", || mna::stamp(&parsed.netlist))
                .map_err(text("stamp"))?;
            let report = t
                .span("ds-passivity.check", || {
                    check_passivity(&sys, &FastTestOptions::default())
                })
                .map_err(text("check_passivity"))?;
            let replayed = t.span("perfbench.replay", || replay_stages(t, &sys))?;
            run.tally.attempt(&format!("{}|replay", deck.name));
            if replayed.passive != report.verdict.is_passive() {
                let problem = format!(
                    "REPLAY VERDICT MISMATCH on {}: stage replay says passive={}, check_passivity says {}",
                    deck.name, replayed.passive, report.verdict
                );
                eprintln!("perfbench: {problem}");
                run.tally.fail(&format!("{}|replay", deck.name), &problem, false);
            }
            run.notes.push(format!(
                "replay {} check_passivity={} replay_passive={}",
                deck.name, report.verdict, replayed.passive
            ));
            let weierstrass = t
                .span("ds-passivity.weierstrass", || {
                    check_passivity_weierstrass(&sys, &WeierstrassTestOptions::default())
                })
                .map_err(text("weierstrass"))?;
            run.tally.attempt(&format!("{}|weierstrass", deck.name));
            if weierstrass.verdict.is_passive() != deck.passive {
                run.tally.fail(
                    &format!("{}|weierstrass", deck.name),
                    &format!("verdict {}", weierstrass.verdict),
                    false,
                );
            }
            let a44 = replayed.a44.ok_or("the replay stopped before regularize")?;
            t.span("ds-linalg.sign", || sign::matrix_sign(&a44, &sign::SignOptions::default()))
                .map_err(text("matrix_sign"))?;
            t.span("ds-linalg.eig", || eigen::eigenvalues(&a44))
                .map_err(text("eigenvalues"))?;
            t.span("ds-linalg.svd", || svd::svd(sys.e()))
                .map_err(text("svd"))?;
            Ok(())
        })?;
    }
    Ok(())
}

fn reduce(
    t: &Tracer,
    run: &mut Run,
    seed: u64,
    entry: &mut EntryTimes,
    reduced: &mut Vec<(f64, f64)>,
) -> Result<(), String> {
    for deck in gen::reduce_decks(seed, REDUCE_INPUTS) {
        let (untraced, outcome) = single::timed_check(&deck, true);
        single::verify(run, &deck, true, &outcome);
        entry.untraced.push(ms(untraced));
        t.begin_check(deck.name.clone());
        t.span("perfbench.reduce", || -> Result<(), String> {
            let spec = ReduceSpec::default();
            let owned = deck.text.clone();
            let outcome = t.span("ds-passivity-suite.run", || {
                PassivityCheck::deck_text(owned).reduce(spec).run()
            });
            single::verify(run, &deck, true, &outcome);

            let parsed = t
                .span("ds-netlist.parse", || parse_deck(&deck.text))
                .map_err(text("parse"))?;
            t.span("ds-netlist.hash", || parsed.content_hash());
            let sparse = t
                .span("ds-circuits.stamp_sparse", || {
                    mna::stamp_sparse(&parsed.netlist)
                })
                .map_err(text("stamp_sparse"))?;
            let (c, g, b) = (sparse.c_matrix(), sparse.g_matrix(), sparse.b_dense());
            let k = g.add_scaled(&c, spec.shift).map_err(text("G + s0*C"))?;
            let perm = t.span("ds-linalg.rcm", || rcm_order(&k));
            let permuted = k.permute_symmetric(&perm).map_err(text("permute"))?;
            let mut lu = t
                .span("ds-linalg.sparse_lu", || SparseLu::factor(&permuted))
                .map_err(text("sparse LU"))?;
            let rhs: Vec<f64> = perm.iter().map(|&p| b[(p, 0)]).collect();
            let mut x = vec![0.0; rhs.len()];
            t.span("ds-linalg.sparse_solve", || lu.solve(&rhs, &mut x));
            let reduction = t
                .span("ds-shh.reduce", || reduce_prima(&c, &g, &b, &spec))
                .map_err(text("reduce_prima"))?;
            reduced.push((reduction.reduced_order as f64, reduction.residual));
            run.notes.push(format!(
                "input {} order={} reduced_order={} residual={:e}",
                deck.name,
                sparse.order(),
                reduction.reduced_order,
                reduction.residual
            ));
            let report = t
                .span("ds-passivity.verify_reduced", || {
                    check_passivity(&reduction.system, &FastTestOptions::default())
                })
                .map_err(text("check_passivity on the reduced model"))?;
            run.tally.attempt(&format!("{}|reduced", deck.name));
            if report.verdict.is_passive() != deck.passive {
                run.tally.fail(
                    &format!("{}|reduced", deck.name),
                    &format!("verdict {}", report.verdict),
                    false,
                );
            }
            Ok(())
        })?;
    }
    Ok(())
}

fn serve_layer(
    t: &Tracer,
    run: &mut Run,
    ctx: &Ctx,
    entry: &mut EntryTimes,
) -> Result<serve::Served, String> {
    // The daemon under a short serve-ci stream: set up as the workload
    // does, then 256 requests from closed-loop clients.
    let mut stream = ServeStream::new(ctx.seed);
    let population = stream.population.clone();
    t.begin_check("serve-stream".into());
    let (server, served) = t.span("perfbench.serve-stream", || {
        let store = ctx.work.join("replay-store");
        let (server, _) = serve::set_up(&mut run.tally, &store, &population, nproc())?;
        let mut left = SERVE_STREAM;
        let next = Mutex::new(move || {
            left = left.checked_sub(1)?;
            Some(stream.next_request())
        });
        let served = serve::drive(&server, nproc(), &population, &next, &mut run.tally);
        Ok::<_, String>((server, served))
    })?;

    // Per deck: the service alone (miss, then hit), and the same deck over
    // HTTP (miss, then hit, untraced and traced).
    let service = CheckService::start(nproc(), 64, 1024, None).map_err(text("service"))?;
    for deck in gen::serve_sample(ctx.seed, SERVE_INPUTS) {
        t.begin_check(deck.name.clone());
        t.span("perfbench.serve", || -> Result<(), String> {
            let parsed = t
                .span("ds-netlist.parse", || parse_deck(&deck.text))
                .map_err(text("parse"))?;
            t.span("ds-circuits.stamp", || mna::stamp(&parsed.netlist))
                .map_err(text("stamp"))?;
            let job = CheckJob {
                name: format!("{:016x}", parsed.content_hash()),
                deck: parsed,
                method: ds_passivity_suite::harness::Method::Proposed,
                repair: false,
                reduce: false,
            };
            for name in ["ds-serve.service_miss", "ds-serve.service_hit"] {
                let reply = t.span(name, || {
                    let rx = service
                        .submit(job.clone())
                        .map_err(|e| format!("submit: {e:?}"))?;
                    rx.recv().map_err(|e| format!("reply: {e}"))
                })?;
                match reply {
                    CheckReply::Done { body, .. } => {
                        serve::verify_answer(&mut run.tally, &deck, 200, &body)
                    }
                    CheckReply::Failed { status, body } => {
                        serve::verify_answer(&mut run.tally, &deck, status, &body)
                    }
                }
            }
            let miss = t.span("ds-serve.client_miss", || serve::post(&server, &deck.text));
            serve::verify_response(&mut run.tally, &deck, &miss);
            let hit = t.span("ds-serve.client_hit", || serve::post(&server, &deck.text));
            serve::verify_response(&mut run.tally, &deck, &hit);
            Ok(())
        })?;
        let start = Instant::now();
        let hit = serve::post(&server, &deck.text);
        entry.untraced.push(ms(start.elapsed()));
        serve::verify_response(&mut run.tally, &deck, &hit);
    }
    service.stop().map_err(text("stopping the service"))?;
    server.stop().map_err(text("stopping the daemon"))?;
    Ok(served)
}

fn sweep_layer(
    t: &Tracer,
    run: &mut Run,
    ctx: &Ctx,
    entry: &mut EntryTimes,
) -> Result<f64, String> {
    let dir = ctx.work.join("replay-sweep-store");
    let matrix = sweep::matrix(ctx.seed);
    t.begin_check("sweep-store".into());
    t.span("perfbench.sweep", || -> Result<f64, String> {
        t.span("perfbench.prefill", || sweep::prefill(&dir, &matrix))?;
        let mut store = t.span("ds-harness.store_open", || ResultStore::open(&dir))?;
        let (pending, _) = t.span("ds-harness.partition", || store.partition_pending(matrix));
        // One whole size cycle: every family at every size, both seed parities.
        let cycle = &pending[..gen::sweep_cycle_len()];
        let mut seen = std::collections::HashSet::new();
        for (_, SweepTask { scenario, .. }) in cycle {
            if !seen.insert(scenario.key()) {
                continue;
            }
            let model = t
                .span("ds-harness.build", || scenario.build())
                .map_err(text("Scenario::build"))?;
            t.span("ds-harness.violation", || {
                violation_frequency_count(&model.system)
            })
            .map_err(text("violation_frequency_count"))?;
        }
        let untraced = sweep::timed_sweep(cycle, nproc());
        entry.untraced.push(ms(untraced.wall));
        let timed = t.span("ds-harness.sweep", || sweep::timed_sweep(cycle, nproc()));
        for record in &timed.records {
            sweep::verify_record(run, record);
        }
        t.span("ds-harness.append", || {
            store.append_segment("replay", &timed.records)
        })?;
        t.span("ds-harness.merge", || store.write_merged())?;
        Ok(timed.busy_share)
    })
}

/// Durations of `name` under `root`, keyed by check id.
fn by_check(spans: &[Span], root: &str, name: &str) -> BTreeMap<String, f64> {
    let roots: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == root)
        .map(|(i, _)| i)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| roots.contains(&p)))
        .map(|s| (s.check.clone(), s.ms()))
        .collect()
}

pub fn run(ctx: &Ctx, env: &mut EnvStamp) -> Result<Run, String> {
    let tracer = Tracer::default();
    let mut run = Run::default();
    let mut entries: BTreeMap<&str, EntryTimes> = BTreeMap::new();
    let mut reduced = Vec::new();
    env.start_timed();
    table1(
        &tracer,
        &mut run,
        ctx.seed,
        entries.entry("table1-o200").or_default(),
    )?;
    reduce(
        &tracer,
        &mut run,
        ctx.seed,
        entries.entry("reduce-o10k").or_default(),
        &mut reduced,
    )?;
    let served = serve_layer(
        &tracer,
        &mut run,
        ctx,
        entries.entry("serve-ci").or_default(),
    )?;
    let busy_share = sweep_layer(
        &tracer,
        &mut run,
        ctx,
        entries.entry("sweep-resume").or_default(),
    )?;
    env.end_timed();

    let spans = tracer.spans();
    let entry_span = |root: &str, name: &str| trace::durations(&spans, root, name);
    let traced = match ctx.workload.as_str() {
        "table1-o200" => entry_span("perfbench.table1", "ds-passivity-suite.run"),
        "reduce-o10k" => entry_span("perfbench.reduce", "ds-passivity-suite.run"),
        "serve-ci" => entry_span("perfbench.serve", "ds-serve.client_hit"),
        _ => entry_span("perfbench.sweep", "ds-harness.sweep"),
    };
    if let Some(times) = entries.get_mut(ctx.workload.as_str()) {
        times.traced = traced;
    }

    let plain = MEDIANS
        .iter()
        .copied()
        .chain(STAGES.iter().map(|&stage| ("perfbench.table1", stage)));
    let mut medians: BTreeMap<&str, f64> = BTreeMap::new();
    for (root, span) in plain {
        let samples = trace::durations(&spans, root, span);
        let value = stats::median(&samples).ok_or(format!("no '{span}' spans under '{root}'"))?;
        run.metric(&format!("{span}_ms"), value, "ms", samples.len());
        medians.insert(span, value);
    }
    let check = medians["ds-passivity.check"];
    let stage_sum: f64 = STAGES.iter().map(|stage| medians[stage]).sum();
    run.metric(
        "ds-passivity.unattributed_ms",
        check - stage_sum,
        "ms",
        TABLE1_INPUTS,
    );
    let n = reduced.len();
    let orders: Vec<f64> = reduced.iter().map(|r| r.0).collect();
    let residuals: Vec<f64> = reduced.iter().map(|r| r.1).collect();
    let median_of = |xs: &[f64]| stats::median(xs).ok_or("no reduced meshes");
    run.metric("ds-shh.reduced_order", median_of(&orders)?, "states", n);
    run.metric("ds-shh.residual", median_of(&residuals)?, "ratio", n);

    // PassivityCheck::run minus its parse, stamp and method calls, per deck.
    let per = |name: &str| by_check(&spans, "perfbench.table1", name);
    let (runs, parses, stamps, checks) = (
        per("ds-passivity-suite.run"),
        per("ds-netlist.parse"),
        per("ds-circuits.stamp"),
        per("ds-passivity.check"),
    );
    let overheads: Vec<f64> = runs
        .iter()
        .filter_map(|(id, r)| Some(r - parses.get(id)? - stamps.get(id)? - checks.get(id)?))
        .collect();
    let overhead = stats::median(&overheads).ok_or("no overhead samples")?;
    run.metric(
        "ds-passivity-suite.overhead_ms",
        overhead,
        "ms",
        overheads.len(),
    );

    let client_hit = stats::median(&trace::durations(
        &spans,
        "perfbench.serve",
        "ds-serve.client_hit",
    ))
    .ok_or("no client hits")?;
    let http_overhead = client_hit - medians["ds-serve.service_hit"];
    run.metric(
        "ds-serve.http_overhead_ms",
        http_overhead,
        "ms",
        SERVE_INPUTS,
    );
    for (metric, tier) in [
        ("ds-serve.hit_memory_share", "hit"),
        ("ds-serve.hit_store_share", "hit-store"),
        ("ds-serve.coalesced_share", "coalesced"),
    ] {
        let count = served.tiers.get(tier).copied().unwrap_or(0);
        let share = count as f64 / served.verdicts().max(1) as f64;
        run.metric(metric, share, "share", served.verdicts());
    }
    for (metric, count) in [
        ("ds-serve.status_4xx", served.status_4xx),
        ("ds-serve.status_429", served.status_429),
        ("ds-serve.status_5xx", served.status_5xx),
    ] {
        run.metric(metric, count as f64, "count", SERVE_STREAM);
    }
    run.metric("ds-harness.pool_busy_share", busy_share, "share", 1);

    let times = entries
        .get(ctx.workload.as_str())
        .ok_or("no entry-point times")?;
    let trace_overhead = match (stats::median(&times.traced), stats::median(&times.untraced)) {
        (Some(traced), Some(untraced)) => traced - untraced,
        _ => return Err("no entry-point samples for the tracing overhead".into()),
    };
    run.metric(
        "ds-perfbench.trace_overhead_ms",
        trace_overhead,
        "ms",
        times.traced.len(),
    );

    run.notes.push(format!(
        "serve-stream requests={SERVE_STREAM} verdicts={} tiers={:?}",
        served.verdicts(),
        served.tiers
    ));
    run.notes.push(format!(
        "stage-sum check_ms={check:.3} stages_ms={stage_sum:.3} unattributed_ms={:.3}",
        check - stage_sum
    ));
    for (root, layers) in trace::layer_shares(&spans) {
        for (layer, (self_ms, share)) in layers {
            run.notes.push(format!(
                "layer {root} {layer} self_ms={self_ms:.3} share={share:.4}"
            ));
        }
    }
    // Each call's share of the check it belongs to: median span time over
    // the median entry-point time on the same inputs.
    for (root, entry) in [
        ("perfbench.table1", "ds-passivity-suite.run"),
        ("perfbench.reduce", "ds-passivity-suite.run"),
        ("perfbench.serve", "ds-serve.client_miss"),
    ] {
        let Some(base) = stats::median(&trace::durations(&spans, root, entry)) else {
            continue;
        };
        for name in trace::names_under(&spans, root) {
            if let Some(m) = stats::median(&trace::durations(&spans, root, &name)) {
                run.notes.push(format!(
                    "share {root} {name} median_ms={m:.3} of_{entry}={:.4}",
                    m / base
                ));
            }
        }
    }
    run.notes
        .extend(trace::render_tree(&spans).lines().map(str::to_string));
    let out = std::path::Path::new(".bench_work").join("traces");
    let path = out.join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, trace::render_jsonl(&spans)))
        .map_err(text("writing the trace"))?;
    run.notes
        .push(format!("trace written to {}", path.display()));
    Ok(run)
}
