//! Load generator for the `ds-serve` passivity-check daemon (`BENCH_PR9.json`).
//!
//! Replays the committed `examples/decks/` corpus against a daemon at
//! increasing client concurrency and records per-level p50/p99 latency,
//! throughput, and cache-hit rate into one machine-readable artifact.
//!
//! By default the daemon is self-hosted in-process on an ephemeral port (the
//! exact server the `ds-serve` binary runs); `--addr` points the generator at
//! an externally started daemon instead.
//!
//! ```text
//! cargo run -p ds-bench --release --bin serve_load -- [--quick]
//!     [--decks DIR]       # deck corpus (default examples/decks)
//!     [--out PATH]        # artifact path (default BENCH_PR9.json)
//!     [--levels 1,2,4,8]  # client concurrency ladder
//!     [--repeats N]       # corpus passes per client per level (default 4)
//!     [--addr HOST:PORT]  # use an external daemon instead of self-hosting
//! ```
//!
//! The first pass at the first level computes every verdict; every later
//! request is answered from the daemon's two-tier cache, so the artifact
//! records both the cold-path compute latency and the hot-path cache latency
//! the cache-hit rate buys.
//!
//! The artifact also cross-checks the two latency vantage points: the
//! client-observed quantiles measured here against the server-side
//! `check_latency_ms` quantiles from `/stats` (fed by the daemon's ds-obs
//! histogram).  When the run self-hosts, the two must agree within the
//! histogram's bucket resolution — a loud failure if the daemon's
//! observability ever drifts from what clients actually experience.

use ds_harness::json;
use ds_serve::{client, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    decks_dir: PathBuf,
    out_path: PathBuf,
    levels: Vec<usize>,
    repeats: usize,
    addr: Option<SocketAddr>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        decks_dir: PathBuf::from("examples/decks"),
        out_path: PathBuf::from("BENCH_PR9.json"),
        levels: vec![1, 2, 4, 8],
        repeats: 4,
        addr: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--decks" => args.decks_dir = PathBuf::from(value("--decks")?),
            "--out" => args.out_path = PathBuf::from(value("--out")?),
            "--levels" => {
                args.levels = value("--levels")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--levels: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if args.levels.is_empty() || args.levels.contains(&0) {
                    return Err("--levels needs positive concurrency values".into());
                }
            }
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if args.repeats == 0 {
                    return Err("--repeats must be positive".into());
                }
            }
            "--addr" => {
                args.addr = Some(
                    value("--addr")?
                        .parse()
                        .map_err(|e| format!("--addr: {e}"))?,
                )
            }
            "--quick" => {
                args.levels = vec![1, 2, 4];
                args.repeats = 2;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn load_corpus(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cir"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .cir decks under {}", dir.display()));
    }
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            std::fs::read_to_string(&p)
                .map(|text| (name, text))
                .map_err(|e| format!("reading {}: {e}", p.display()))
        })
        .collect()
}

#[derive(Default)]
struct LevelTally {
    latencies_ms: Vec<f64>,
    hits: usize,
    misses: usize,
    retried_429: usize,
    errors: usize,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// One client thread: `repeats` passes over the corpus, one POST per deck.
/// 429 responses are retried after the advertised backoff (and tallied — the
/// artifact records how often backpressure engaged at each level).
fn client_pass(
    addr: SocketAddr,
    corpus: &[(String, String)],
    repeats: usize,
    offset: usize,
) -> LevelTally {
    let mut tally = LevelTally::default();
    for pass in 0..repeats {
        for index in 0..corpus.len() {
            // Stagger the replay order per client so concurrent clients hit
            // different decks first (more coalescing variety than lockstep).
            let (_, text) = &corpus[(index + offset + pass) % corpus.len()];
            loop {
                let start = Instant::now();
                match client::post(addr, "/check", text) {
                    Ok(reply) if reply.status == 200 => {
                        tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                        match reply.header("x-cache") {
                            Some("miss") => tally.misses += 1,
                            Some(_) => tally.hits += 1,
                            None => tally.errors += 1,
                        }
                        break;
                    }
                    Ok(reply) if reply.status == 429 => {
                        tally.retried_429 += 1;
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Ok(_) | Err(_) => {
                        tally.errors += 1;
                        break;
                    }
                }
            }
        }
    }
    tally
}

struct LevelResult {
    concurrency: usize,
    requests: usize,
    wall_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    hit_rate: f64,
    throughput_rps: f64,
    retried_429: usize,
    errors: usize,
    /// Sorted per-request latencies, kept so the run-wide client quantiles
    /// can be cross-checked against the server-side histogram.
    latencies_ms: Vec<f64>,
}

fn run_level(
    addr: SocketAddr,
    corpus: Arc<Vec<(String, String)>>,
    concurrency: usize,
    repeats: usize,
) -> LevelResult {
    let offset = Arc::new(AtomicUsize::new(0));
    let wall = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            let corpus = Arc::clone(&corpus);
            let offset = Arc::clone(&offset);
            std::thread::spawn(move || {
                let skew = offset.fetch_add(1, Ordering::Relaxed);
                client_pass(addr, &corpus, repeats, skew)
            })
        })
        .collect();
    let mut merged = LevelTally::default();
    for handle in handles {
        let tally = handle.join().expect("client thread");
        merged.latencies_ms.extend(tally.latencies_ms);
        merged.hits += tally.hits;
        merged.misses += tally.misses;
        merged.retried_429 += tally.retried_429;
        merged.errors += tally.errors;
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    merged
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = merged.latencies_ms.len();
    let answered = merged.hits + merged.misses;
    LevelResult {
        concurrency,
        requests,
        wall_ms,
        p50_ms: percentile(&merged.latencies_ms, 0.50),
        p99_ms: percentile(&merged.latencies_ms, 0.99),
        hit_rate: if answered == 0 {
            0.0
        } else {
            merged.hits as f64 / answered as f64
        },
        throughput_rps: if wall_ms > 0.0 {
            requests as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        retried_429: merged.retried_429,
        errors: merged.errors,
        latencies_ms: merged.latencies_ms,
    }
}

/// Client-vs-server latency comparison: the run-wide client quantiles
/// against the daemon's own `check_latency_ms` numbers from `/stats`.
struct CrossCheck {
    client_p50_ms: f64,
    client_p99_ms: f64,
    server_p50_ms: f64,
    server_p99_ms: f64,
    server_count: u64,
    client_requests: usize,
    consistent: bool,
}

/// Extracts `check_latency_ms` from the `/stats` body and compares it with
/// the merged client-side distribution.
///
/// The server histogram is log-bucketed (ratio √2) and its quantile reports
/// the bucket's upper bound, so the server number may legitimately sit up to
/// one bucket width *above* the true latency; the client number includes
/// connect/transfer overhead the server never sees, pushing it the other
/// way.  The consistency bound (2x + 5 ms) leaves room for both effects —
/// anything past it means the daemon's histogram is measuring wrongly.
fn cross_check(levels: &[LevelResult], stats_body: &str) -> Result<CrossCheck, String> {
    let mut client: Vec<f64> = levels
        .iter()
        .flat_map(|level| level.latencies_ms.iter().copied())
        .collect();
    client.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let stats = json::parse(stats_body).map_err(|e| format!("/stats body: {e}"))?;
    let latency = stats
        .get("check_latency_ms")
        .ok_or("/stats body is missing check_latency_ms")?;
    let field = |key: &str| {
        latency
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("/stats check_latency_ms is missing '{key}'"))
    };
    let result = CrossCheck {
        client_p50_ms: percentile(&client, 0.50),
        client_p99_ms: percentile(&client, 0.99),
        server_p50_ms: field("p50")?,
        server_p99_ms: field("p99")?,
        server_count: field("count")? as u64,
        client_requests: client.len(),
        consistent: true,
    };
    let within = |server: f64, client: f64| server <= client * 2.0 + 5.0;
    Ok(CrossCheck {
        consistent: within(result.server_p50_ms, result.client_p50_ms)
            && within(result.server_p99_ms, result.client_p99_ms),
        ..result
    })
}

fn round3(value: f64) -> f64 {
    (value * 1000.0).round() / 1000.0
}

fn render_artifact(
    corpus: &[(String, String)],
    self_hosted: bool,
    levels: &[LevelResult],
    repeats: usize,
    stats_body: Option<&str>,
    cross: Option<&CrossCheck>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ds-serve-load/v1\",\n");
    out.push_str("  \"workload\": \"examples/decks corpus replayed via POST /check\",\n");
    out.push_str(&format!(
        "  \"corpus\": [{}],\n",
        corpus
            .iter()
            .map(|(name, _)| json::quote(name))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"self_hosted\": {self_hosted},\n  \"repeats_per_client\": {repeats},\n"
    ));
    out.push_str("  \"levels\": [\n");
    let rows: Vec<String> = levels
        .iter()
        .map(|level| {
            format!(
                "    {{\"concurrency\": {}, \"requests\": {}, \"wall_ms\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"throughput_rps\": {}, \"cache_hit_rate\": {}, \"retried_429\": {}, \"errors\": {}}}",
                level.concurrency,
                level.requests,
                json::number(round3(level.wall_ms)),
                json::number(round3(level.p50_ms)),
                json::number(round3(level.p99_ms)),
                json::number(round3(level.throughput_rps)),
                json::number(round3(level.hit_rate)),
                level.retried_429,
                level.errors
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    match cross {
        Some(c) => out.push_str(&format!(
            "  \"latency_cross_check\": {{\"client_p50_ms\": {}, \"client_p99_ms\": {}, \"server_p50_ms\": {}, \"server_p99_ms\": {}, \"server_count\": {}, \"client_requests\": {}, \"consistent\": {}}},\n",
            json::number(round3(c.client_p50_ms)),
            json::number(round3(c.client_p99_ms)),
            json::number(round3(c.server_p50_ms)),
            json::number(round3(c.server_p99_ms)),
            c.server_count,
            c.client_requests,
            c.consistent
        )),
        None => out.push_str("  \"latency_cross_check\": null,\n"),
    }
    match stats_body {
        Some(stats) => out.push_str(&format!("  \"server_stats\": {stats}\n")),
        None => out.push_str("  \"server_stats\": null\n"),
    }
    out.push_str("}\n");
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let corpus = Arc::new(load_corpus(&args.decks_dir)?);
    eprintln!(
        "# serve_load: {} decks, levels {:?}, {} corpus passes per client",
        corpus.len(),
        args.levels,
        args.repeats
    );

    // Self-host unless an external daemon was given.  Memory-only store: the
    // artifact measures serving latency, not disk persistence.
    let server = match args.addr {
        Some(_) => None,
        None => Some(
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("starting in-process daemon: {e}"))?,
        ),
    };
    let addr = match (args.addr, &server) {
        (Some(addr), _) => addr,
        (None, Some(server)) => server.local_addr(),
        (None, None) => unreachable!(),
    };
    let health = client::get(addr, "/health").map_err(|e| format!("daemon not reachable: {e}"))?;
    if health.status != 200 {
        return Err(format!("daemon /health answered {}", health.status));
    }

    let mut levels = Vec::new();
    for &concurrency in &args.levels {
        let level = run_level(addr, Arc::clone(&corpus), concurrency, args.repeats);
        eprintln!(
            "# c={:<3} requests={:<5} p50={:.2}ms p99={:.2}ms hit-rate={:.1}% rps={:.0} retries-429={} errors={}",
            level.concurrency,
            level.requests,
            level.p50_ms,
            level.p99_ms,
            level.hit_rate * 100.0,
            level.throughput_rps,
            level.retried_429,
            level.errors
        );
        if level.errors > 0 {
            return Err(format!(
                "{} requests failed at concurrency {}",
                level.errors, level.concurrency
            ));
        }
        levels.push(level);
    }

    let stats = client::get(addr, "/stats").ok().map(|reply| reply.body);
    if let Some(server) = server {
        server.stop().map_err(|e| format!("stopping daemon: {e}"))?;
    }

    let cross = match stats.as_deref() {
        Some(body) => Some(cross_check(&levels, body)?),
        None => None,
    };
    if let Some(c) = &cross {
        eprintln!(
            "# latency cross-check: client p50={:.2}ms p99={:.2}ms | server p50={:.2}ms p99={:.2}ms ({} observed)",
            c.client_p50_ms, c.client_p99_ms, c.server_p50_ms, c.server_p99_ms, c.server_count
        );
        // Only a self-hosted daemon saw exactly this run's traffic; an
        // external one may carry other clients' history in its histogram.
        if args.addr.is_none() && !c.consistent {
            return Err(format!(
                "server-side latency quantiles disagree with the client view: \
                 server p50 {:.2} ms / p99 {:.2} ms vs client p50 {:.2} ms / p99 {:.2} ms",
                c.server_p50_ms, c.server_p99_ms, c.client_p50_ms, c.client_p99_ms
            ));
        }
    }

    let artifact = render_artifact(
        &corpus,
        args.addr.is_none(),
        &levels,
        args.repeats,
        stats.as_deref(),
        cross.as_ref(),
    );
    std::fs::write(&args.out_path, &artifact)
        .map_err(|e| format!("writing {}: {e}", args.out_path.display()))?;
    println!("# artifact: {}", args.out_path.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("serve_load: {message}");
            ExitCode::FAILURE
        }
    }
}
