//! The `serve-ci` workload: an in-process `ds_serve::Server` with a result
//! store, driven over loopback by closed-loop clients (each waits for its
//! verdict before sending the next request), as CI jobs call it.
//!
//! The stream mixes repeats from an unscaled population larger than the LRU
//! (so both the memory and the store tier answer), fresh decks of four
//! templates over the α/β scaling grid, and a few malformed decks that must
//! be answered 400 with the parser's line and column.  Each client checks
//! and counts its answers as they arrive, so the benchmark's own memory
//! does not grow with the daemon's throughput.

use crate::env::{nproc, EnvStamp};
use crate::gen::{GenDeck, Malformed, Request, ServeStream, SERVE_BLOCK};
use crate::report::{known_method_error, Tally};
use crate::{ms, stats, Ctx, Run};
use ds_passivity_suite::harness::json;
use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::{PassivityCheck, SuiteError};
use ds_serve::client::{self, HttpResponse};
use ds_serve::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// LRU entries: fewer than the 128-deck repeat population.
pub const CACHE_CAPACITY: usize = 48;
const SETUP_REPEATS: usize = 5;
/// Requests of the timed phase per second of `--seconds`.  The stream's
/// length is fixed by `--seconds`, not by the clock, so every run of a seed
/// sends the same requests (and meets the same failures); the daemon
/// answers ≈240–250 a second on a 2-vCPU host.
const REQUESTS_PER_SECOND: f64 = 240.0;

/// Requests in the timed phase of a `seconds`-long run: whole stream
/// blocks, so every run sees the same repeat, fresh and malformed mix.
pub fn timed_requests(seconds: f64) -> usize {
    let blocks = (seconds * REQUESTS_PER_SECOND / SERVE_BLOCK as f64).round() as usize;
    blocks.max(1) * SERVE_BLOCK
}

/// Every `BYTE_STRIDE`-th verdict answer is kept, up to `BYTE_SAMPLE` of
/// them, and re-checked byte for byte against the in-process pipeline.
const BYTE_STRIDE: usize = 64;
const BYTE_SAMPLE: usize = 64;

/// The cells where verdicts are known to break: frequency scaling by
/// α ≥ 10⁶.  Verdicts are not yet invariant under scaling (ROADMAP item 1),
/// and today almost every deck there ends in a method error or a wrong
/// verdict.  Such answers are counted and listed, but are not treated as a
/// broken run; a failure on an α = 1 deck (either β) is.
pub fn known_defect(deck: &GenDeck) -> bool {
    deck.scale.alpha >= 1e6
}

pub fn start_server(store: &Path) -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc(),
        queue_capacity: 64,
        cache_capacity: CACHE_CAPACITY,
        store_dir: Some(store.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))
}

pub fn post(server: &Server, text: &str) -> Result<HttpResponse, String> {
    client::post(server.local_addr(), "/check", text)
}

/// What the clients keep of a stream: counts, round-trip times and a fixed
/// sample of answers.  The answers themselves are checked into a [`Tally`]
/// as they arrive and then dropped.
#[derive(Debug, Default)]
pub struct Served {
    pub requests: usize,
    /// Round trips of the verdict (200) answers, in ms.
    pub latencies: Vec<f64>,
    /// Verdict answers by `X-Cache` tier.
    pub tiers: BTreeMap<String, usize>,
    pub status_4xx: usize,
    pub status_429: usize,
    pub status_5xx: usize,
    /// Deck and served body of the sampled verdict answers.
    pub sample: Vec<(GenDeck, String)>,
}

impl Served {
    pub fn verdicts(&self) -> usize {
        self.latencies.len()
    }

    /// Checks one answer into `tally` and counts it.
    fn record(
        &mut self,
        tally: &mut Tally,
        request: &Request,
        population: &[GenDeck],
        ms: f64,
        response: &Result<HttpResponse, String>,
    ) {
        self.requests += 1;
        let deck = match request {
            Request::Repeat(i) => Some(&population[*i]),
            Request::Fresh(deck) => Some(deck),
            Request::Malformed(bad) => {
                verify_malformed(tally, bad, response);
                None
            }
        };
        if let Some(deck) = deck {
            verify_response(tally, deck, response);
        }
        let Ok(r) = response else { return };
        match r.status {
            200 => {
                self.latencies.push(ms);
                let tier = r.header("x-cache").unwrap_or("none").to_string();
                *self.tiers.entry(tier).or_default() += 1;
                let sampled = self.latencies.len() % BYTE_STRIDE == 1;
                if let Some(deck) = deck.filter(|_| sampled && self.sample.len() < BYTE_SAMPLE) {
                    self.sample.push((deck.clone(), r.body.clone()));
                }
            }
            429 => self.status_429 += 1,
            400..=499 => self.status_4xx += 1,
            500.. => self.status_5xx += 1,
            _ => {}
        }
    }
}

/// Runs `clients` closed-loop clients: each takes its next request from
/// `next` only after its previous answer arrived, until `next` returns
/// `None`.  Answers are checked into `tally`.
pub fn drive<F: FnMut() -> Option<Request> + Send>(
    server: &Server,
    clients: usize,
    population: &[GenDeck],
    next: &Mutex<F>,
    tally: &mut Tally,
) -> Served {
    let state = Mutex::new((tally, Served::default()));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let request = match next.lock() {
                    Ok(mut next) => next(),
                    Err(_) => None,
                };
                let Some(request) = request else { break };
                let text = match &request {
                    Request::Repeat(i) => population[*i].text.as_str(),
                    Request::Fresh(deck) => deck.text.as_str(),
                    Request::Malformed(bad) => bad.text.as_str(),
                };
                let start = Instant::now();
                let response = post(server, text);
                let elapsed = ms(start.elapsed());
                if let Ok(mut state) = state.lock() {
                    let (tally, served) = &mut *state;
                    served.record(tally, &request, population, elapsed, &response);
                }
            });
        }
    });
    state.into_inner().unwrap_or_else(PoisonError::into_inner).1
}

/// Fields of a verdict body.
fn verdict_of(body: &str) -> Result<(String, Option<bool>, String), String> {
    let value = json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
    let status = value
        .get("status")
        .and_then(json::Value::as_str)
        .ok_or("body has no status")?
        .to_string();
    let passive = value.get("passive").and_then(json::Value::as_bool);
    let reason = value
        .get("reason")
        .and_then(json::Value::as_str)
        .unwrap_or("")
        .to_string();
    Ok((status, passive, reason))
}

/// Checks one verdict answer (HTTP status and body) against the deck's
/// label.  A status other than 200 always makes the run incorrect; a 200
/// answer that reports an error or a wrong verdict is a known defect only
/// on the cells [`known_defect`] names, or for a known method error.
pub fn verify_answer(tally: &mut Tally, deck: &GenDeck, status: u16, body: &str) {
    tally.attempt(&deck.name);
    if status != 200 {
        return tally.fail(&deck.name, &format!("status {status}: {body}"), false);
    }
    let known = known_defect(deck);
    match verdict_of(body) {
        Err(e) => tally.fail(&deck.name, &e, false),
        Ok((status, _, reason)) if status != "ok" => {
            let known = known || (status == "method_error" && known_method_error(&reason));
            tally.fail(&deck.name, &format!("{status}: {reason}"), known)
        }
        Ok((_, passive, reason)) if passive != Some(deck.passive) => tally.fail(
            &deck.name,
            &format!("verdict {passive:?}, expected {} ({reason})", deck.passive),
            known,
        ),
        Ok(_) => {}
    }
}

/// Checks one client response for a verdict deck.
pub fn verify_response(tally: &mut Tally, deck: &GenDeck, response: &Result<HttpResponse, String>) {
    match response {
        Ok(r) => verify_answer(tally, deck, r.status, &r.body),
        Err(e) => {
            tally.attempt(&deck.name);
            tally.fail(&deck.name, &format!("transport: {e}"), false);
        }
    }
}

/// A malformed deck must be answered 400 with the line and column the
/// parser reports, and the line must be the one the generator corrupted.
pub fn verify_malformed(
    tally: &mut Tally,
    bad: &Malformed,
    response: &Result<HttpResponse, String>,
) {
    tally.attempt(&bad.name);
    let expected = match parse_deck(&bad.text) {
        Err(e) => SuiteError::from(e).parse_location(),
        Ok(_) => None,
    };
    let problem = match (response, expected) {
        (_, None) => Some("the parser accepted the corrupted deck".to_string()),
        (Err(e), _) => Some(format!("transport: {e}")),
        (Ok(r), Some((line, column))) => {
            let body = json::parse(&r.body).ok();
            let field = |key: &str| {
                body.as_ref()
                    .and_then(|b| b.get(key))
                    .and_then(json::Value::as_f64)
            };
            let answered = (field("line"), field("column"));
            if r.status != 400 {
                Some(format!("status {}, expected 400", r.status))
            } else if answered != (Some(line as f64), Some(column as f64)) {
                Some(format!(
                    "answered at {answered:?}, parser says ({line}, {column})"
                ))
            } else if line != bad.line {
                Some(format!(
                    "rejected at line {line}, corrupted line {}",
                    bad.line
                ))
            } else {
                None
            }
        }
    };
    if let Some(problem) = problem {
        tally.fail(&bad.name, &problem, false);
    }
}

/// Byte-compares the sampled answers with the in-process pipeline's
/// report; returns how many were compared.
pub fn verify_bytes(tally: &mut Tally, sample: &[(GenDeck, String)]) -> usize {
    for (deck, body) in sample {
        match PassivityCheck::deck_text(deck.text.clone()).run() {
            Ok(outcome) if outcome.report_json() == *body => {}
            Ok(outcome) => tally.violation(format!(
                "{}: served body differs from report_json()\n  served:   {body}\n  pipeline: {}",
                deck.name,
                outcome.report_json()
            )),
            Err(e) => tally.violation(format!(
                "{}: pipeline error on a served deck: {e}",
                deck.name
            )),
        }
    }
    sample.len()
}

/// Starts a daemon on a fresh store and warms it with the whole repeat
/// population from `clients` clients; returns it with the set-up time.
pub fn set_up(
    tally: &mut Tally,
    store: &Path,
    population: &[GenDeck],
    clients: usize,
) -> Result<(Server, f64), String> {
    let _ = std::fs::remove_dir_all(store);
    let start = Instant::now();
    let server = start_server(store)?;
    let mut queue: Vec<Request> = (0..population.len()).rev().map(Request::Repeat).collect();
    let next = Mutex::new(move || queue.pop());
    drive(&server, clients, population, &next, tally);
    Ok((server, start.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx, env: &mut EnvStamp) -> Result<Run, String> {
    let mut run = Run::default();
    let clients = nproc();
    let stream = ServeStream::new(ctx.seed);
    let population = stream.population.clone();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            Server::stop(previous).map_err(|e| format!("stopping the daemon: {e}"))?;
        }
        let store = ctx.work.join(format!("serve-store-{k}"));
        let (started, elapsed) = set_up(&mut run.tally, &store, &population, clients)?;
        setups.push(elapsed);
        server = Some(started);
    }
    let server = server.ok_or("no daemon started")?;

    env.start_timed();
    let phase = Instant::now();
    let mut stream = stream;
    let mut left = timed_requests(ctx.seconds);
    let next = Mutex::new(move || {
        (left > 0).then(|| {
            left -= 1;
            stream.next_request()
        })
    });
    let served = drive(&server, clients, &population, &next, &mut run.tally);
    let phase_s = phase.elapsed().as_secs_f64();
    env.end_timed();
    server
        .stop()
        .map_err(|e: SuiteError| format!("stopping the daemon: {e}"))?;

    let compared = verify_bytes(&mut run.tally, &served.sample);
    run.notes.push(format!(
        "serve requests={} verdicts={} byte_compared={compared} tiers={:?} status_4xx={} status_429={} status_5xx={}",
        served.requests,
        served.verdicts(),
        served.tiers,
        served.status_4xx,
        served.status_429,
        served.status_5xx
    ));

    let setup = stats::median(&setups).ok_or("no set-up samples")?;
    run.metric("setup_s", setup, "s", setups.len());
    run.latencies(&served.latencies);
    run.info(
        "checks_per_s",
        served.verdicts() as f64 / phase_s,
        "1/s",
        served.verdicts(),
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;

    fn deck(alpha: f64, beta: f64, passive: bool) -> GenDeck {
        GenDeck {
            name: format!("deck-a{alpha:e}-b{beta:e}"),
            text: String::new(),
            passive,
            order: 10,
            scale: Scale { alpha, beta },
        }
    }

    fn body(status: &str, passive: bool, reason: &str) -> String {
        format!("{{\"status\":\"{status}\",\"passive\":{passive},\"reason\":\"{reason}\"}}")
    }

    #[test]
    fn the_timed_stream_is_fixed_by_the_run_length() {
        assert_eq!(timed_requests(25.0), 94 * SERVE_BLOCK);
        assert_eq!(timed_requests(0.01), SERVE_BLOCK);
    }

    #[test]
    fn only_wrong_verdict_bodies_on_high_alpha_cells_are_known_defects() {
        let scaled = deck(1e9, 50.0, true);
        let mut tally = Tally::default();
        verify_answer(
            &mut tally,
            &scaled,
            200,
            &body("method_error", false, "regularization failed"),
        );
        verify_answer(
            &mut tally,
            &scaled,
            200,
            &body("ok", false, "higher_order_markov"),
        );
        assert!(tally.correct());
        assert_eq!(tally.failed, 2);

        // A non-200 answer is a violation on every cell.
        let mut tally = Tally::default();
        verify_answer(&mut tally, &scaled, 500, "{\"kind\":\"panic\"}");
        assert!(!tally.correct());

        // β scaling alone is not exempt.
        let mut tally = Tally::default();
        let impedance = deck(1.0, 50.0, true);
        verify_answer(
            &mut tally,
            &impedance,
            200,
            &body("ok", false, "higher_order_markov"),
        );
        assert!(!tally.correct());

        // The SVD sweep limit is a known method error on any cell.
        let mut tally = Tally::default();
        let svd = "numerical kernel failed: svd::svd failed to converge after 60 iterations";
        verify_answer(
            &mut tally,
            &deck(1.0, 1.0, true),
            200,
            &body("method_error", false, svd),
        );
        assert!(tally.correct());
        verify_answer(
            &mut tally,
            &deck(1.0, 1.0, false),
            200,
            &body("ok", false, ""),
        );
        assert_eq!(tally.failed, 1);
    }
}
