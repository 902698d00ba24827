//! The daemon itself: a blocking `TcpListener` accept loop, one thread per
//! connection, work handed to the [`CheckService`] pool.
//!
//! Endpoints:
//!
//! * `GET /health` — liveness probe;
//! * `GET /stats` — cache/queue/worker counters (`ds-serve-stats/v1`) plus
//!   server-side `/check` latency quantiles (`check_latency_ms`);
//! * `GET /metrics` — Prometheus text exposition of the process-wide
//!   registry: request/queue/stage latency histograms, cache-hit counters,
//!   and the queue-depth gauge;
//! * `GET /trace/<id>` — the `ds-trace/v1` span log of a recent check (ids
//!   are handed out per request in the `X-Trace-Id` response header and kept
//!   in a bounded ring);
//! * `POST /check?method=proposed|weierstrass|lmi&repair=true&reduce=auto` —
//!   body is a SPICE deck; answers the `ds-check-report/v2` verdict with
//!   `X-Cache` (tier that answered), `X-Deck-Hash` (full canonical content
//!   hash), and `X-Trace-Id` headers.  `reduce=auto` routes the check through
//!   the sparse-stamp + Krylov reduction (the order-10⁴ path; a reduced
//!   report is stored under its own fingerprint).  Malformed decks get a 400
//!   whose body carries the parser's exact `line`/`column`; a full queue gets
//!   429 + `Retry-After`.
//! * `POST /shutdown` — request graceful shutdown (same path as SIGTERM).
//!
//! The accept loop blocks in `accept` and never polls.  Shutdown (requested
//! by `Server::stop`, by `POST /shutdown`, or — in the binary — by
//! SIGINT/SIGTERM) sets a flag and wakes whoever waits in
//! `Server::wait_for_shutdown`; `Server::stop` then wakes the accept loop
//! with one connection to the server's own address, and the first accept
//! that sees the flag ends it.  Then the server drains: queued checks
//! finish, pending store records flush as a segment, and the merged
//! artifacts are rewritten, so a restarted server answers every verdict it
//! ever computed from its store tier.

use crate::http::{read_request, Request, RequestError, Response};
use crate::service::{error_response, CheckJob, CheckReply, CheckService, SubmitError};
use ds_obs::metrics::names;
use ds_passivity_suite::harness::json;
use ds_passivity_suite::harness::sync::{lock_infallible, wait_timeout_infallible};
use ds_passivity_suite::harness::Method;
use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::{SuiteError, REPORT_SCHEMA};
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs; `Default` is a sensible local daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size (0 is legal and means nothing ever computes — used
    /// by the backpressure tests).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it answer 429.
    pub queue_capacity: usize,
    /// In-memory LRU capacity (entries).
    pub cache_capacity: usize,
    /// Persistent result-store directory (`None` = memory-only).
    pub store_dir: Option<PathBuf>,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_capacity: 64,
            cache_capacity: 1024,
            store_dir: None,
            max_body_bytes: 1 << 20,
        }
    }
}

/// The shutdown request: a flag, set under its mutex before the condvar
/// wakes the threads waiting for it, so no wakeup is lost.
#[derive(Default)]
struct Shutdown {
    requested: Mutex<bool>,
    wake: Condvar,
}

impl Shutdown {
    fn request(&self) {
        *lock_infallible(&self.requested) = true;
        self.wake.notify_all();
    }

    fn requested(&self) -> bool {
        *lock_infallible(&self.requested)
    }
}

struct Ctx {
    service: CheckService,
    shutdown: Arc<Shutdown>,
    max_body_bytes: usize,
}

/// A running daemon; dropped handles keep serving until [`Server::stop`].
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    ctx: Arc<Ctx>,
    accept_handle: Option<JoinHandle<TcpListener>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, starts the worker pool, and begins accepting.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the store cannot open.
    pub fn start(config: ServerConfig) -> Result<Server, SuiteError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| SuiteError::Io(format!("binding {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SuiteError::Io(format!("local addr: {e}")))?;
        let service = CheckService::start(
            config.workers,
            config.queue_capacity,
            config.cache_capacity,
            config.store_dir.as_deref(),
        )?;
        let shutdown = Arc::new(Shutdown::default());
        let ctx = Arc::new(Ctx {
            service,
            shutdown: Arc::clone(&shutdown),
            max_body_bytes: config.max_body_bytes,
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let ctx = Arc::clone(&ctx);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("ds-serve-accept".to_string())
                .spawn(move || {
                    accept_loop(&listener, &shutdown, &ctx, &connections);
                    // Handed back rather than closed: the listener stays
                    // bound until `stop` joins this thread, so the wake-up
                    // connection finds it even when a `POST /shutdown`
                    // already ended the loop.
                    listener
                })
                .map_err(|e| SuiteError::Io(format!("spawning accept thread: {e}")))?
        };
        Ok(Server {
            local_addr,
            shutdown,
            ctx,
            accept_handle: Some(accept_handle),
            connections,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether shutdown has been requested (via [`Server::stop`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.requested()
    }

    /// Blocks until shutdown is requested (via [`Server::stop`] or
    /// `POST /shutdown`), at most for `timeout` (less on a spurious wakeup);
    /// returns whether it was requested.  The request wakes the wait at once.
    pub fn wait_for_shutdown(&self, timeout: Duration) -> bool {
        let requested = lock_infallible(&self.shutdown.requested);
        if *requested {
            return true;
        }
        *wait_timeout_infallible(&self.shutdown.wake, requested, timeout).0
    }

    /// The `/stats` body, for in-process observers.
    pub fn stats_json(&self) -> String {
        self.ctx.service.stats_json()
    }

    /// Graceful shutdown: stop accepting, let in-flight connections finish,
    /// drain the queue, flush the store.
    ///
    /// # Errors
    ///
    /// Reports store-flush failures, and a failed connection to wake the
    /// blocked accept loop (whose thread is then left behind, not joined);
    /// the workers are always torn down.
    pub fn stop(mut self) -> Result<(), SuiteError> {
        self.shutdown.request();
        let wake = wake_addr(self.local_addr);
        let woken = TcpStream::connect_timeout(&wake, Duration::from_secs(5))
            .map(drop)
            .map_err(|e| SuiteError::Io(format!("waking the accept loop at {wake}: {e}")));
        if let Some(handle) = self.accept_handle.take().filter(|_| woken.is_ok()) {
            let _ = handle.join();
        }
        // Unblock queued connections before joining them: draining the
        // service answers every parked request (computed or 503).
        let result = self.ctx.service.stop();
        let handles: Vec<JoinHandle<()>> = lock_infallible(&self.connections).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        result.and(woken)
    }
}

/// Where [`Server::stop`] connects to wake `accept`: the bound address, with
/// an unspecified IP (`0.0.0.0`, `::`) replaced by the loopback of its family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &Shutdown,
    ctx: &Arc<Ctx>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        // The wake-up connection from `Server::stop` (or any client that
        // races it) is dropped unanswered.
        if shutdown.requested() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let ctx = Arc::clone(ctx);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("ds-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &ctx))
                {
                    let mut held = lock_infallible(connections);
                    held.retain(|h| !h.is_finished());
                    held.push(handle);
                }
            }
            // Back off on a real accept error (e.g. out of file descriptors).
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":{},\"kind\":{}}}",
        json::quote(message),
        json::quote(kind)
    )
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    let response = match read_request(&mut reader, ctx.max_body_bytes) {
        Ok(request) => route(&request, ctx),
        Err(RequestError::BadRequest(message)) => {
            Response::json(400, error_body("bad_request", &message))
        }
        Err(RequestError::PayloadTooLarge { limit }) => Response::json(
            413,
            error_body(
                "payload_too_large",
                &format!("request body exceeds the {limit}-byte limit"),
            ),
        ),
        Err(RequestError::Disconnected) => return,
    };
    let _ = response.write_to(&mut write_half);
    let _ = write_half.flush();
}

/// The Prometheus text-exposition content type.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

fn route_slug(path: &str) -> &'static str {
    match path {
        "/health" => "health",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/check" => "check",
        "/shutdown" => "shutdown",
        p if p.starts_with("/trace/") => "trace",
        _ => "other",
    }
}

fn route(request: &Request, ctx: &Ctx) -> Response {
    ds_obs::metrics::global()
        .counter(
            names::REQUESTS_TOTAL,
            "HTTP requests answered, by route",
            Some(("route", route_slug(&request.path))),
        )
        .inc();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"report_schema\":{}}}",
                json::quote(REPORT_SCHEMA)
            ),
        ),
        ("GET", "/stats") => Response::json(200, ctx.service.stats_json()),
        ("GET", "/metrics") => Response::text(
            200,
            PROMETHEUS_CONTENT_TYPE,
            ds_obs::metrics::global().render_prometheus(),
        ),
        ("GET", path) if path.starts_with("/trace/") => {
            let id = &path["/trace/".len()..];
            match ctx.service.trace_body(id) {
                Some(body) => Response::text(200, "application/jsonl; charset=utf-8", body),
                None => Response::json(
                    404,
                    error_body("not_found", &format!("no trace '{id}' in the ring")),
                ),
            }
        }
        ("POST", "/shutdown") => {
            ctx.shutdown.request();
            Response::json(200, "{\"status\":\"shutting-down\"}")
        }
        ("POST", "/check") => check(request, ctx),
        (_, "/health" | "/stats" | "/metrics") => {
            Response::json(405, error_body("method_not_allowed", "use GET"))
                .with_header("Allow", "GET")
        }
        (_, path) if path.starts_with("/trace/") => {
            Response::json(405, error_body("method_not_allowed", "use GET"))
                .with_header("Allow", "GET")
        }
        (_, "/check" | "/shutdown") => {
            Response::json(405, error_body("method_not_allowed", "use POST"))
                .with_header("Allow", "POST")
        }
        (_, path) => Response::json(404, error_body("not_found", &format!("no route '{path}'"))),
    }
}

fn check(request: &Request, ctx: &Ctx) -> Response {
    let started = Instant::now();
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::json(400, error_body("bad_request", "deck body is not UTF-8"));
    };
    let method_name = request.query_param("method").unwrap_or("proposed");
    let Some(method) = Method::parse(method_name) else {
        return Response::json(
            400,
            error_body(
                "invalid_request",
                &format!("unknown method '{method_name}' (expected proposed, weierstrass, or lmi)"),
            ),
        );
    };
    let repair = match request.query_param("repair") {
        None | Some("false") | Some("0") => false,
        Some("true") | Some("1") => true,
        Some(other) => {
            return Response::json(
                400,
                error_body(
                    "invalid_request",
                    &format!("repair must be true or false, got '{other}'"),
                ),
            )
        }
    };
    let reduce = match request.query_param("reduce") {
        None | Some("off") => false,
        Some("auto") => true,
        Some(other) => {
            return Response::json(
                400,
                error_body(
                    "invalid_request",
                    &format!("reduce must be auto or off, got '{other}'"),
                ),
            )
        }
    };
    let deck = match parse_deck(text) {
        Ok(deck) => deck,
        Err(parse_error) => {
            let (status, body) = error_response(&SuiteError::from(parse_error));
            return Response::json(status, body);
        }
    };
    let hash = deck.content_hash();
    let job = CheckJob {
        name: format!("{hash:016x}"),
        deck,
        method,
        repair,
        reduce,
    };
    let trace_id = ds_obs::trace::next_trace_id();
    let receiver = match ctx.service.submit_traced(job, hash, trace_id.clone()) {
        Ok(receiver) => receiver,
        Err(SubmitError::QueueFull) => {
            return Response::json(429, error_body("overloaded", "request queue is full"))
                .with_header("Retry-After", "1")
        }
        Err(SubmitError::ShuttingDown) => {
            return Response::json(503, error_body("shutdown", "server is shutting down"))
        }
    };
    match receiver.recv() {
        Ok(CheckReply::Done { body, cache }) => {
            ctx.service.observe_check_latency(started.elapsed());
            Response::json(200, body)
                .with_header("X-Cache", cache)
                .with_header("X-Deck-Hash", format!("{hash:016x}"))
                .with_header("X-Trace-Id", trace_id)
        }
        Ok(CheckReply::Failed { status, body }) => {
            ctx.service.observe_check_latency(started.elapsed());
            Response::json(status, body)
                .with_header("X-Deck-Hash", format!("{hash:016x}"))
                .with_header("X-Trace-Id", trace_id)
        }
        Err(_) => Response::json(503, error_body("shutdown", "worker pool unavailable")),
    }
}
