//! End-to-end smoke test of the `ds-serve` binary — the same scenario the CI
//! `serve-smoke` job runs: start the daemon with a persistent store, POST the
//! committed deck corpus twice (second pass must be 100% cache hits with zero
//! new computations), terminate gracefully with SIGTERM (exit 0, segment
//! flushed), then restart on the same store and verify every verdict replays
//! from disk without recomputation.

#![cfg(unix)]

use ds_serve::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

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
