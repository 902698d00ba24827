//! Integration tests of the daemon's HTTP surface: routing and framing
//! errors, backpressure, cache-tier behavior across reformats and restarts,
//! concurrency, and byte-identity with the sweep engine.

use ds_passivity_suite::harness::scenario::Scenario;
use ds_passivity_suite::harness::{json, run_sweep, Method, SweepSpec, SweepTask};
use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::CheckOutcome;
use ds_serve::{client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const DECK: &str =
    "* divider\nR1 in mid 2\nL1 mid out 0.5\nC1 out 0 1\nR2 out 0 10\n.port in\n.end\n";

/// The same circuit as [`DECK`] after a formatting storm: comments, blank
/// lines, case changes, engineering-notation values, renamed internal nodes.
/// Element order is untouched — canonical form preserves it — so the
/// canonical content hash is identical and the daemon must treat it as the
/// same deck.
const DECK_REFORMATTED: &str = "* the very same divider, reformatted\n\nr1 in  middle    2000m   ; 2 ohm\nl1   middle o  500m\n\nc1 o 0 1\nR2   o 0    10   ; terminator\n.port in\n.end\n";

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ds-serve-test-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `/stats` counter of `/check` requests whose deck came from the
/// daemon's memo of parsed request bodies.
fn deck_memo_hits(server: &Server) -> f64 {
    let stats = server.stats_json();
    json::parse(&stats)
        .unwrap()
        .get("deck_memo_hits")
        .and_then(json::Value::as_f64)
        .unwrap_or_else(|| panic!("no deck_memo_hits in /stats: {stats}"))
}

fn decks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/decks")
}

#[test]
fn health_stats_and_routing() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();

    let health = client::get(addr, "/health").unwrap();
    assert_eq!(health.status, 200);
    assert!(health
        .body
        .contains("\"report_schema\":\"ds-check-report/v2\""));

    let stats = client::get(addr, "/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"schema\":\"ds-serve-stats/v1\""));

    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    let put = client::request(addr, "PUT", "/check", Some(DECK)).unwrap();
    assert_eq!(put.status, 405);
    assert_eq!(put.header("allow"), Some("POST"));
    let get_check = client::get(addr, "/check").unwrap();
    assert_eq!(get_check.status, 405);
    let post_health = client::post(addr, "/health", "").unwrap();
    assert_eq!(post_health.status, 405);
    assert_eq!(post_health.header("allow"), Some("GET"));

    server.stop().unwrap();
}

#[test]
fn malformed_request_line_answers_400() {
    let server = Server::start(test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 400 "),
        "got: {}",
        response.lines().next().unwrap_or("")
    );
    assert!(response.contains("\"kind\":\"bad_request\""));
    server.stop().unwrap();
}

#[test]
fn oversized_body_answers_413() {
    let server = Server::start(ServerConfig {
        max_body_bytes: 64,
        ..test_config()
    })
    .unwrap();
    let big_deck = format!("* {}\nR1 in 0 50\n.port in\n.end\n", "x".repeat(200));
    let reply = client::post(server.local_addr(), "/check", &big_deck).unwrap();
    assert_eq!(reply.status, 413);
    assert!(reply.body.contains("\"kind\":\"payload_too_large\""));
    server.stop().unwrap();
}

#[test]
fn full_queue_answers_429() {
    // Zero workers: the first request parks in the queue forever, the second
    // (a *different* deck — identical ones would coalesce, not queue) finds
    // the size-1 queue full.
    let server = Server::start(ServerConfig {
        workers: 0,
        queue_capacity: 1,
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr();
    let parked = std::thread::spawn(move || client::post(addr, "/check", DECK).unwrap());
    // Wait until the parked request occupies the queue.
    let mut queued = false;
    for _ in 0..100 {
        if client::get(addr, "/stats")
            .unwrap()
            .body
            .contains("\"queue_depth\":1")
        {
            queued = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(queued, "first request never reached the queue");

    let other_deck = "R1 in 0 50\nC1 in 0 1\n.port in\n.end\n";
    let rejected = client::post(addr, "/check", other_deck).unwrap();
    assert_eq!(rejected.status, 429);
    assert!(rejected.header("retry-after").is_some());
    assert!(rejected.body.contains("\"kind\":\"overloaded\""));

    // Graceful shutdown answers the parked request with 503 instead of
    // hanging the client.
    server.stop().unwrap();
    let parked_reply = parked.join().unwrap();
    assert_eq!(parked_reply.status, 503);
}

#[test]
fn reformatted_deck_is_a_memory_cache_hit() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();

    let first = client::post(addr, "/check", DECK).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));

    // Different bytes: the memo of parsed bodies cannot answer, the parser
    // runs, and the canonical hash still finds the verdict in memory.
    let second = client::post(addr, "/check", DECK_REFORMATTED).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, first.body, "cache hit must be byte-identical");
    assert_eq!(second.header("x-deck-hash"), first.header("x-deck-hash"));
    assert_eq!(deck_memo_hits(&server), 0.0);

    server.stop().unwrap();
}

#[test]
fn byte_identical_repeats_skip_the_parser() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();

    let first = client::post(addr, "/check", DECK).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(deck_memo_hits(&server), 0.0);

    // The same bytes: the deck and its hash come from the memo, and the
    // verdict from the memory tier, as before.
    let repeat = client::post(addr, "/check", DECK).unwrap();
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.header("x-cache"), Some("hit"));
    assert_eq!(repeat.body, first.body);
    assert_eq!(repeat.header("x-deck-hash"), first.header("x-deck-hash"));
    assert_eq!(deck_memo_hits(&server), 1.0);

    // One byte of one value differs: parsed afresh, a deck of its own.
    let changed = DECK.replace("R2 out 0 10", "R2 out 0 11");
    assert_eq!(changed.len(), DECK.len());
    let other = client::post(addr, "/check", &changed).unwrap();
    assert_eq!(other.status, 200, "body: {}", other.body);
    assert_eq!(other.header("x-cache"), Some("miss"));
    assert_ne!(other.header("x-deck-hash"), first.header("x-deck-hash"));
    assert_eq!(deck_memo_hits(&server), 1.0);

    server.stop().unwrap();
}

#[test]
fn restarted_server_answers_from_the_persistent_store() {
    let store = temp_dir("restart");
    let config = || ServerConfig {
        store_dir: Some(store.clone()),
        ..test_config()
    };

    let server = Server::start(config()).unwrap();
    let first = client::post(server.local_addr(), "/check", DECK).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    server.stop().unwrap(); // flushes the segment

    let segments = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
        .count();
    assert_eq!(segments, 1, "shutdown must flush exactly one segment");

    let server = Server::start(config()).unwrap();
    let replay = client::post(server.local_addr(), "/check", DECK_REFORMATTED).unwrap();
    assert_eq!(replay.status, 200);
    assert_eq!(replay.header("x-cache"), Some("hit-store"));
    assert_eq!(
        replay.body, first.body,
        "store replay must be byte-identical"
    );
    server.stop().unwrap();

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn concurrent_identical_decks_get_byte_identical_responses() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();
    let clients: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || client::post(addr, "/check", DECK).unwrap()))
        .collect();
    let replies: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for reply in &replies {
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        assert_eq!(reply.body, replies[0].body, "responses diverged");
        let cache = reply.header("x-cache").unwrap();
        assert!(
            ["miss", "hit", "coalesced"].contains(&cache),
            "unexpected cache tier '{cache}'"
        );
    }
    // Exactly one computation happened for all eight clients.
    let stats = server.stats_json();
    assert!(stats.contains("\"computed\":1"), "stats: {stats}");
    server.stop().unwrap();
}

#[test]
fn served_verdicts_are_byte_identical_to_the_sweep_engine() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();
    let mut checked = 0;
    let mut paths: Vec<PathBuf> = std::fs::read_dir(decks_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cir"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let deck = parse_deck(&text).unwrap();
        for method in [Method::Proposed, Method::Weierstrass, Method::Lmi] {
            // What `ds-sweep --decks` would record for this deck and method.
            let task = SweepTask {
                scenario: Scenario::from_deck(format!("{:016x}", deck.content_hash()), &deck),
                method,
            };
            let record = &run_sweep(&SweepSpec::new(vec![task], 1)).records[0];
            let expected = CheckOutcome::from_record(record).report_json();

            let reply =
                client::post(addr, &format!("/check?method={}", method.name()), &text).unwrap();
            assert_eq!(reply.status, 200, "{}: {}", path.display(), reply.body);
            assert_eq!(
                reply.body,
                expected,
                "{} via {} diverged from the sweep engine",
                path.display(),
                method.name()
            );
            checked += 1;
        }
    }
    assert!(checked >= 12, "deck corpus shrank? checked {checked}");
    server.stop().unwrap();
}

#[test]
fn reduce_auto_serves_a_reduced_report() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();

    let reduced = client::post(addr, "/check?reduce=auto", DECK).unwrap();
    assert_eq!(reduced.status, 200, "body: {}", reduced.body);
    assert_eq!(reduced.header("x-cache"), Some("miss"));
    // The 4-state divider passes through the projection exactly.
    assert!(
        reduced.body.contains("\"reduced_order\":4"),
        "body: {}",
        reduced.body
    );
    assert!(reduced.body.contains("\"residual\":0"), "{}", reduced.body);
    assert!(
        reduced.body.contains("\"passive\":true"),
        "{}",
        reduced.body
    );

    // Reduce and direct checks cache under different keys.
    let direct = client::post(addr, "/check", DECK).unwrap();
    assert_eq!(direct.header("x-cache"), Some("miss"));
    assert!(direct.body.contains("\"reduced_order\":null"));

    let again = client::post(addr, "/check?reduce=auto", DECK).unwrap();
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, reduced.body);

    let bad = client::post(addr, "/check?reduce=yes", DECK).unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"kind\":\"invalid_request\""));

    server.stop().unwrap();
}

#[test]
fn parse_errors_return_400_with_line_and_column() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();

    let malformed = "R1 in 0 nonsense\n.port in\n.end\n";
    let bad = client::post(addr, "/check", malformed).unwrap();
    assert_eq!(bad.status, 400);
    assert!(
        bad.body.contains("\"kind\":\"parse\""),
        "body: {}",
        bad.body
    );
    assert!(bad.body.contains("\"line\":1"), "body: {}", bad.body);
    assert!(bad.body.contains("\"column\":"), "body: {}", bad.body);

    // A malformed deck never enters the memo of parsed bodies: posted
    // again, it is parsed again and fails at the same line and column.
    let again = client::post(addr, "/check", malformed).unwrap();
    assert_eq!(again.status, 400);
    let position = |body: &str| {
        let value = json::parse(body).unwrap();
        let field = |key: &str| value.get(key).and_then(json::Value::as_f64);
        (field("line"), field("column"))
    };
    assert_eq!(position(&again.body), position(&bad.body));
    assert_eq!(deck_memo_hits(&server), 0.0);

    let unknown_method = client::post(addr, "/check?method=magic", DECK).unwrap();
    assert_eq!(unknown_method.status, 400);
    assert!(unknown_method.body.contains("\"kind\":\"invalid_request\""));

    let bad_repair = client::post(addr, "/check?repair=banana", DECK).unwrap();
    assert_eq!(bad_repair.status, 400);

    let not_utf8_free = client::post(addr, "/check", "").unwrap();
    assert_eq!(not_utf8_free.status, 400, "empty deck must not 500");

    server.stop().unwrap();
}

#[test]
fn unstampable_deck_answers_422_and_counts_as_an_error() {
    // Parses, but the joint coupled-inductance matrix is indefinite: the
    // request is well-formed and the circuit is invalid, which is the
    // client's error, not the server's.
    let server = Server::start(test_config()).unwrap();
    let text =
        "LA a 0 1\nLB b 0 1\nLC c 0 1\nK1 LA LB 0.9\nK2 LB LC 0.9\nK3 LA LC -0.9\n.port a\n.end\n";
    let reply = client::post(server.local_addr(), "/check", text).unwrap();
    assert_eq!(reply.status, 422, "body: {}", reply.body);
    assert!(
        reply.body.contains("\"kind\":\"circuit\""),
        "body: {}",
        reply.body
    );
    let stats = server.stats_json();
    assert!(stats.contains("\"errors\":1"), "stats: {stats}");
    server.stop().unwrap();
}

#[test]
fn repair_flag_reports_enforcement() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr();

    // A passive deck asks for no perturbation.
    let passive = client::post(addr, "/check?repair=true", DECK).unwrap();
    assert_eq!(passive.status, 200, "body: {}", passive.body);
    assert!(
        passive
            .body
            .contains("\"repair\":{\"enforced\":false,\"resistance\":0,\"passive_after\":true"),
        "body: {}",
        passive.body
    );

    // The committed non-passive ladder is repairable by series resistance.
    let text = std::fs::read_to_string(decks_dir().join("nonpassive_ladder.cir")).unwrap();
    let repaired = client::post(addr, "/check?repair=true", &text).unwrap();
    assert_eq!(repaired.status, 200, "body: {}", repaired.body);
    assert!(
        repaired.body.contains("\"repair\":{\"enforced\":true"),
        "body: {}",
        repaired.body
    );
    assert!(
        repaired.body.contains("\"passive_after\":true"),
        "body: {}",
        repaired.body
    );

    // Without the flag the report keeps repair null.
    let plain = client::post(addr, "/check", &text).unwrap();
    assert!(plain.body.contains("\"repair\":null"));

    server.stop().unwrap();
}
