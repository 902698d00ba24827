//! End-to-end smoke test of the `ds-serve` binary — the same scenario the CI
//! `serve-smoke` job runs: start the daemon with a persistent store, POST the
//! committed deck corpus twice (second pass must be 100% cache hits with zero
//! new computations), terminate gracefully with SIGTERM (exit 0, segment
//! flushed), then restart on the same store and verify every verdict replays
//! from disk without recomputation.  It also cross-checks the latency a
//! client sees against the daemon's own `/stats` quantiles, times the exit
//! that follows a `POST /shutdown`, and stops in-process servers: bound to
//! loopback or to the unspecified address, after a `POST /shutdown` already
//! ended the accept loop, and a hundred times in a row with idle workers.

#![cfg(unix)]

use ds_passivity_suite::harness::json;
use ds_serve::{client, Server, ServerConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn decks() -> Vec<(PathBuf, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/decks");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cir"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "deck corpus shrank to {}", paths.len());
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect()
}

fn spawn_daemon(store: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ds-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--store",
            store.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning ds-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut ready = String::new();
    BufReader::new(stdout).read_line(&mut ready).unwrap();
    let addr: SocketAddr = ready
        .trim()
        .strip_prefix("ds-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected ready line: '{}'", ready.trim()))
        .parse()
        .expect("parsing bound address");
    (child, addr)
}

fn stat(stats_body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let rest = &stats_body[stats_body.find(&needle).expect(key) + needle.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn daemon_serves_the_corpus_and_shuts_down_gracefully() {
    let store = std::env::temp_dir().join(format!("ds-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let corpus = decks();

    let (mut child, addr) = spawn_daemon(&store);

    // Pass 1: every deck computes.
    let mut bodies = Vec::new();
    for (path, text) in &corpus {
        let reply = client::post(addr, "/check", text).unwrap();
        assert_eq!(reply.status, 200, "{}: {}", path.display(), reply.body);
        assert_eq!(reply.header("x-cache"), Some("miss"), "{}", path.display());
        bodies.push(reply.body);
    }
    let stats = client::get(addr, "/stats").unwrap().body;
    let computed_after_first = stat(&stats, "computed");
    assert_eq!(computed_after_first, corpus.len() as u64);

    // Pass 2: 100% cache hits, zero new computations, byte-identical bodies.
    for ((path, text), first_body) in corpus.iter().zip(&bodies) {
        let reply = client::post(addr, "/check", text).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-cache"), Some("hit"), "{}", path.display());
        assert_eq!(&reply.body, first_body, "{}", path.display());
    }
    let stats = client::get(addr, "/stats").unwrap().body;
    assert_eq!(stat(&stats, "computed"), computed_after_first);
    assert_eq!(stat(&stats, "hits_memory"), corpus.len() as u64);
    assert!(
        stats.contains("\"check_latency_ms\":{\"count\":"),
        "stats lost the server-side latency quantiles: {stats}"
    );

    // Observability surface: every /check reply carries an X-Trace-Id whose
    // span log is retrievable from the bounded ring.
    let reply = client::post(addr, "/check", &corpus[0].1).unwrap();
    let trace_id = reply.header("x-trace-id").expect("X-Trace-Id").to_string();
    let trace = client::get(addr, &format!("/trace/{trace_id}")).unwrap();
    assert_eq!(trace.status, 200, "{}", trace.body);
    assert!(!trace.body.is_empty());
    for line in trace.body.lines() {
        assert!(
            line.starts_with("{\"schema\":\"ds-trace/v1\""),
            "bad trace line: {line}"
        );
    }
    assert!(trace.body.contains("\"span\":\"check\""));
    let missing = client::get(addr, "/trace/no-such-id").unwrap();
    assert_eq!(missing.status, 404);

    // /metrics speaks the Prometheus text exposition and the computed pass
    // fed the per-stage histograms.
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    assert!(metrics
        .body
        .contains("# TYPE ds_serve_check_seconds histogram"));
    assert!(metrics.body.contains("# TYPE ds_serve_queue_depth gauge"));
    let stage_count_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("ds_check_stage_seconds_count{stage=\"build_phi\"}"))
        .expect("stage histogram sample");
    let observed: u64 = stage_count_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        observed >= corpus.len() as u64,
        "stage histograms missed computed checks: {stage_count_line}"
    );

    // SIGTERM → graceful exit 0 with the segment flushed.
    let pid = child.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(status.success(), "kill -TERM failed");
    let exit = child.wait().unwrap();
    assert!(exit.success(), "daemon exited with {exit:?}");
    let segments = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
        .count();
    assert_eq!(segments, 1, "SIGTERM must flush exactly one segment");
    assert!(store.join("merged.jsonl").is_file());

    // Restart on the same store: verdicts replay from disk, nothing computes.
    let (mut child, addr) = spawn_daemon(&store);
    for ((path, text), first_body) in corpus.iter().zip(&bodies) {
        let reply = client::post(addr, "/check", text).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(
            reply.header("x-cache"),
            Some("hit-store"),
            "{}",
            path.display()
        );
        assert_eq!(&reply.body, first_body, "{}", path.display());
    }
    let stats = client::get(addr, "/stats").unwrap().body;
    assert_eq!(stat(&stats, "computed"), 0);
    assert_eq!(stat(&stats, "hits_store"), corpus.len() as u64);

    // POST /shutdown works as the cross-platform SIGTERM equivalent.
    let reply = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(reply.status, 200);
    let exit = child.wait().unwrap();
    assert!(exit.success(), "daemon exited with {exit:?}");

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn sigint_also_exits_cleanly() {
    let store = std::env::temp_dir().join(format!("ds-serve-smoke-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (mut child, addr) = spawn_daemon(&store);
    assert_eq!(client::get(addr, "/health").unwrap().status, 200);
    let pid = child.id().to_string();
    assert!(Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .unwrap()
        .success());
    // Give the poll loop a moment; wait() then reaps the clean exit.
    std::thread::sleep(Duration::from_millis(10));
    let exit = child.wait().unwrap();
    assert!(exit.success(), "daemon exited with {exit:?}");
    let _ = std::fs::remove_dir_all(&store);
}

/// Sequential memory hits timed by [`client_latency_matches_the_server_quantiles`].
const TIMED_HITS: usize = 64;

/// Loopback overhead a memory hit may add on top of the daemon's own p50.
const LOOPBACK_BUDGET_MS: f64 = 2.0;

#[test]
fn client_latency_matches_the_server_quantiles() {
    // The metrics registry is process-wide, so the daemon runs as its own
    // process: its `/stats` quantiles then hold only this test's requests.
    let store = std::env::temp_dir().join(format!("ds-serve-smoke-lat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (path, text) = &decks()[0];
    let (mut child, addr) = spawn_daemon(&store);

    let warm = client::post(addr, "/check", text).unwrap();
    let mut tiers = Vec::with_capacity(TIMED_HITS);
    let mut client_ms: Vec<f64> = (0..TIMED_HITS)
        .map(|_| {
            let start = Instant::now();
            let reply = client::post(addr, "/check", text).unwrap();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            tiers.push(reply.header("x-cache").map(str::to_string));
            elapsed
        })
        .collect();
    let stats = client::get(addr, "/stats").unwrap().body;
    // Stop the daemon before asserting, so a failing run leaves no process
    // behind.
    let pid = child.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status();
    let exit = child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&store);

    assert_eq!(warm.status, 200, "{}: {}", path.display(), warm.body);
    assert!(
        tiers.iter().all(|tier| tier.as_deref() == Some("hit")),
        "timed requests were not all memory hits: {tiers:?}"
    );
    client_ms.sort_by(f64::total_cmp);
    let client_p50 = client_ms[TIMED_HITS / 2];
    let server_p50 = json::parse(&stats)
        .ok()
        .and_then(|v| v.get("check_latency_ms")?.get("p50")?.as_f64())
        .unwrap_or_else(|| panic!("no check_latency_ms.p50 in /stats: {stats}"));
    // The server times a sub-interval of every client round trip, so its
    // p50 can exceed the client's only by the histogram bucket's
    // overestimate (its √2 ladder) ...
    assert!(
        server_p50 <= std::f64::consts::SQRT_2 * client_p50,
        "server p50 {server_p50} ms exceeds √2 × client p50 {client_p50} ms"
    );
    // ... and a memory hit over loopback must not cost the client much more
    // than the server spent answering it.
    assert!(
        client_p50 <= server_p50 + LOOPBACK_BUDGET_MS,
        "client p50 {client_p50} ms exceeds server p50 {server_p50} ms + {LOOPBACK_BUDGET_MS} ms"
    );
    assert!(
        killed.is_ok_and(|status| status.success()),
        "kill -TERM failed"
    );
    assert!(exit.success(), "daemon exited with {exit:?}");
}

#[test]
fn servers_stop_on_loopback_and_unspecified_addresses() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServerConfig {
            addr: bind.to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let loopback = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
        assert_eq!(client::get(loopback, "/health").unwrap().status, 200);
        // `stop` must wake the blocked accept loop; a hang fails the test
        // instead of wedging the suite.
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || done.send(server.stop()));
        let result = stopped
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("a server bound to {bind} did not stop"));
        assert!(result.is_ok(), "{bind}: {result:?}");
        stopper.join().unwrap().unwrap();
    }
}

#[test]
fn stop_succeeds_after_post_shutdown_ended_the_accept_loop() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    assert_eq!(client::post(addr, "/shutdown", "").unwrap().status, 200);
    assert!(server.shutdown_requested());
    // The next connection ends the accept loop and is dropped unanswered ...
    assert!(client::get(addr, "/health").is_err());
    // ... yet the listener stays bound until `stop` joins the loop, so the
    // wake-up connection still lands and `stop` reports no error.
    server.stop().unwrap();
}

/// Daemon runs timed by [`post_shutdown_exits_without_waiting_out_a_poll`].
const SHUTDOWN_RUNS: usize = 10;

#[test]
fn post_shutdown_exits_without_waiting_out_a_poll() {
    let mut exit_ms: Vec<f64> = (0..SHUTDOWN_RUNS)
        .map(|run| {
            let store = std::env::temp_dir()
                .join(format!("ds-serve-smoke-exit-{}-{run}", std::process::id()));
            let _ = std::fs::remove_dir_all(&store);
            let (mut child, addr) = spawn_daemon(&store);
            let reply = client::post(addr, "/shutdown", "").unwrap();
            let replied = Instant::now();
            let exit = child.wait().unwrap();
            let elapsed = replied.elapsed().as_secs_f64() * 1e3;
            let _ = std::fs::remove_dir_all(&store);
            assert_eq!(reply.status, 200, "run {run}: {}", reply.body);
            assert!(exit.success(), "run {run}: daemon exited with {exit:?}");
            elapsed
        })
        .collect();
    exit_ms.sort_by(f64::total_cmp);
    let median = exit_ms[SHUTDOWN_RUNS / 2];
    assert!(
        median < 10.0,
        "median {median:.1} ms from the /shutdown reply to exit: {exit_ms:?}"
    );
}

#[test]
fn idle_servers_stop_a_hundred_times_in_a_row() {
    let (done, finished) = std::sync::mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for cycle in 0..100 {
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                ..ServerConfig::default()
            })
            .unwrap();
            // One round trip gives the workers time to park on the queue.
            assert_eq!(
                client::get(server.local_addr(), "/health").unwrap().status,
                200,
                "cycle {cycle}"
            );
            server.stop().unwrap();
        }
        let _ = done.send(());
    });
    // A lost wakeup leaves a worker parked forever and `stop` blocked in its
    // join: fail instead of wedging the suite.
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a hundred start/stop cycles did not finish within 60 s");
    cycles.join().unwrap();
}
