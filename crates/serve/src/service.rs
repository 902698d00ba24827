//! The check service: a bounded job queue, a worker pool, a two-tier verdict
//! cache, and the persistent result store.
//!
//! Every deck check is keyed by the same content fingerprint the sweep
//! engine's result store uses (`family|order|ports|seed|margin|method`, with
//! the canonical deck hash riding in the seed, and a `|reduce` suffix for
//! Krylov-reduced checks), so the three tiers answer identically:
//!
//! 1. **memory** — an [`LruCache`] of rendered report bodies (`X-Cache: hit`);
//! 2. **store** — the persistent [`ResultStore`] shared with `ds-sweep`
//!    (`X-Cache: hit-store`): verdicts computed by *any* earlier run, or by a
//!    server process since restarted, are replayed without recomputation;
//! 3. **compute** — the unified pipeline (`X-Cache: miss`), through the very
//!    same record-producing check the sweep workers run, so a served
//!    verdict can never diverge from `ds-sweep --decks`.
//!
//! Identical decks arriving concurrently are *coalesced*: one computes, the
//! rest wait on the in-flight slot and receive the same bytes
//! (`X-Cache: coalesced`).

use crate::cache::LruCache;
use ds_obs::metrics::{names, Counter, Gauge, Histogram};
use ds_obs::trace::{SpanRecord, Trace, TraceRing};
use ds_passivity_suite::harness::json;
use ds_passivity_suite::harness::sync::{lock_infallible, wait_infallible};
use ds_passivity_suite::harness::{Method, ResultStore, Subject, SweepRecord};
use ds_passivity_suite::netlist::Deck;
use ds_passivity_suite::shh::krylov::ReduceSpec;
use ds_passivity_suite::{CheckOutcome, PassivityCheck, RepairOutcome, SuiteError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Version tag of the `/stats` response body.
pub const STATS_SCHEMA: &str = "ds-serve-stats/v1";

/// Prometheus counter of `/check` requests whose deck came from the
/// daemon's memo of parsed request bodies.
pub const DECK_MEMO_HITS_TOTAL: &str = "ds_serve_deck_memo_hits_total";

/// Pending store records are flushed to a segment once this many accumulate
/// (and unconditionally on shutdown).
pub const FLUSH_THRESHOLD: usize = 64;

/// How many recent traces `GET /trace/<id>` can replay before eviction.
pub const TRACE_RING_CAPACITY: usize = 256;

/// One deck check to run.
#[derive(Debug, Clone)]
pub struct CheckJob {
    /// Display name (by convention the canonical hash in hex — names are not
    /// part of the serialized report).
    pub name: String,
    /// The parsed deck.
    pub deck: Deck,
    /// The passivity test to run.
    pub method: Method,
    /// Whether to attempt enforcement on non-passive verdicts.
    pub repair: bool,
    /// Whether to route the check through the sparse-stamp + Krylov
    /// reduction (`?reduce=auto`, with the default [`ReduceSpec`]).
    pub reduce: bool,
}

impl CheckJob {
    /// The store fingerprint of this job, given its deck's canonical hash
    /// `hash` ([`Deck::content_hash`]) — identical to the fingerprint
    /// `ds-sweep --decks` records the same canonical deck under; a reduce
    /// job's ends in `|reduce`, so its record never answers a dense request.
    pub fn fingerprint(&self, hash: u64) -> String {
        let spec = ReduceSpec::default();
        let reduce = self.reduce.then_some(&spec);
        Subject::Deck(&self.name, &self.deck, hash, reduce).fingerprint(self.method)
    }

    /// The cache key: the store fingerprint plus the repair flag (repair
    /// changes the response body, so it caches separately).
    pub fn cache_key(&self, hash: u64) -> String {
        let mut key = self.fingerprint(hash);
        if self.repair {
            key.push_str("|repair");
        }
        key
    }
}

/// What a submitted job resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckReply {
    /// The verdict report, with the cache tier that answered it
    /// (`"hit"`, `"hit-store"`, `"coalesced"`, or `"miss"`).
    Done {
        /// Serialized report body.
        body: String,
        /// Cache tier slug for the `X-Cache` header.
        cache: &'static str,
    },
    /// The check failed; maps directly to an HTTP status + JSON error body.
    Failed {
        /// HTTP status code.
        status: u16,
        /// JSON error body.
        body: String,
    },
}

/// Why a job could not be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — the caller should answer 429.
    QueueFull,
    /// The service is shutting down — the caller should answer 503.
    ShuttingDown,
}

struct QueuedJob {
    job: CheckJob,
    hash: u64,
    fingerprint: String,
    cache_key: String,
    trace_id: String,
    submitted: Instant,
    reply: Sender<CheckReply>,
}

/// A request attached to an identical in-flight computation; it receives the
/// computing job's bytes but keeps its own trace identity.
struct Waiter {
    reply: Sender<CheckReply>,
    trace_id: String,
    submitted: Instant,
}

struct StoreState {
    store: ResultStore,
    pending: Vec<SweepRecord>,
    pending_fingerprints: HashSet<String>,
    flushes: u64,
}

/// Monotone counters exposed on `/stats`.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Total `/check` jobs submitted (all tiers).
    pub checks: AtomicU64,
    /// Answered from the in-memory LRU.
    pub hits_memory: AtomicU64,
    /// Answered from the persistent store.
    pub hits_store: AtomicU64,
    /// Attached to an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Computed fresh through the pipeline.
    pub computed: AtomicU64,
    /// Rejected with 429 because the queue was full.
    pub rejected: AtomicU64,
    /// Jobs that ended in a pipeline error.
    pub errors: AtomicU64,
    /// Jobs answered 503 because shutdown drained them (workers = 0 only;
    /// with workers the queue is drained by computing, not discarding).
    pub drained: AtomicU64,
    /// `/check` requests whose deck came from the daemon's memo of parsed
    /// request bodies instead of the parser (not a verdict tier: such a
    /// request is still answered by one of the tiers above).
    pub deck_memo_hits: AtomicU64,
}

/// Handles into the process-wide [`ds_obs::metrics::global`] registry; one
/// set per service, but names are shared, so a second service in the same
/// process (tests) accumulates into the same series.
struct Metrics {
    deck_memo_hits: Arc<Counter>,
    hits_memory: Arc<Counter>,
    hits_store: Arc<Counter>,
    coalesced: Arc<Counter>,
    errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    check_seconds: Arc<Histogram>,
    queue_wait_seconds: Arc<Histogram>,
    /// One histogram per [`ds_obs::STAGES`] entry, labelled
    /// `stage=<name>`; a computed check feeds the stage spans it ran.
    stage_seconds: Vec<(&'static str, Arc<Histogram>)>,
}

impl Metrics {
    fn register() -> Metrics {
        let reg = ds_obs::metrics::global();
        let hits = |tier: &str| {
            reg.counter(
                names::CACHE_HITS_TOTAL,
                "Checks answered without recomputation, by cache tier",
                Some(("tier", tier)),
            )
        };
        Metrics {
            deck_memo_hits: reg.counter(
                DECK_MEMO_HITS_TOTAL,
                "/check requests whose deck came from the parse memo",
                None,
            ),
            hits_memory: hits("memory"),
            hits_store: hits("store"),
            coalesced: hits("coalesced"),
            errors: reg.counter(
                names::ERRORS_TOTAL,
                "Checks that ended in a pipeline error or panic",
                None,
            ),
            queue_depth: reg.gauge(
                names::QUEUE_DEPTH,
                "Jobs currently waiting in the bounded check queue",
                None,
            ),
            check_seconds: reg.histogram(
                names::CHECK_SECONDS,
                "Server-side /check latency (parse to reply), seconds",
                None,
            ),
            queue_wait_seconds: reg.histogram(
                names::QUEUE_WAIT_SECONDS,
                "Time jobs spent queued before a worker picked them up, seconds",
                None,
            ),
            stage_seconds: ds_obs::STAGES
                .iter()
                .map(|stage| {
                    (
                        *stage,
                        reg.histogram(
                            names::STAGE_SECONDS,
                            "Per-stage pipeline time for computed checks, seconds",
                            Some(("stage", stage)),
                        ),
                    )
                })
                .collect(),
        }
    }
}

struct Inner {
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    queue_capacity: usize,
    workers: usize,
    shutdown: AtomicBool,
    cache: Mutex<LruCache<String>>,
    inflight: Mutex<HashMap<String, Vec<Waiter>>>,
    store: Option<Mutex<StoreState>>,
    stats: ServiceStats,
    metrics: Metrics,
    traces: TraceRing,
}

/// Records a minimal single-span trace for a request answered without a
/// fresh computation (cache tiers), so `GET /trace/<id>` works for every
/// trace id the daemon handed out while it stays in the ring.
fn record_hit_trace(inner: &Inner, trace_id: &str, started: Instant) {
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let check = SpanRecord {
        name: "check".to_string(),
        elapsed_ns,
        ..SpanRecord::default()
    };
    let trace = Trace {
        id: trace_id.to_string(),
        spans: vec![check],
    };
    inner.traces.insert(trace_id, trace.render_jsonl());
}

/// The worker-pool service behind the daemon's `/check` endpoint.
pub struct CheckService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Maps a pipeline error to the HTTP status and JSON body of an error
/// response; parse failures keep their line/column as structured fields.
pub fn error_response(error: &SuiteError) -> (u16, String) {
    let status = match error {
        SuiteError::Parse(_) | SuiteError::InvalidRequest(_) => 400,
        SuiteError::Unsupported(_) | SuiteError::Circuit(_) => 422,
        _ => 500,
    };
    let mut body = format!(
        "{{\"error\":{},\"kind\":{}",
        json::quote(&error.to_string()),
        json::quote(error.kind())
    );
    if let Some((line, column)) = error.parse_location() {
        body.push_str(&format!(",\"line\":{line},\"column\":{column}"));
    }
    body.push('}');
    (status, body)
}

fn immediate(reply: CheckReply) -> Receiver<CheckReply> {
    let (tx, rx) = channel();
    let _ = tx.send(reply);
    rx
}

impl CheckService {
    /// Starts the worker pool.  `store_dir` opens (or creates) the persistent
    /// result store; `None` runs memory-only.
    ///
    /// # Errors
    ///
    /// Fails when the store directory cannot be opened.
    pub fn start(
        workers: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        store_dir: Option<&std::path::Path>,
    ) -> Result<Self, SuiteError> {
        let store = match store_dir {
            Some(dir) => Some(Mutex::new(StoreState {
                store: ResultStore::open(dir).map_err(SuiteError::Harness)?,
                pending: Vec::new(),
                pending_fingerprints: HashSet::new(),
                flushes: 0,
            })),
            None => None,
        };
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            workers,
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            inflight: Mutex::new(HashMap::new()),
            store,
            stats: ServiceStats::default(),
            metrics: Metrics::register(),
            traces: TraceRing::new(TRACE_RING_CAPACITY),
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ds-serve-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
                    // ds-lint: allow(no-panic-in-serve) -- startup-time spawn failure, before any request is accepted
                    .expect("spawning worker thread")
            })
            .collect();
        Ok(CheckService {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Submits a job; the reply arrives on the returned channel (immediately
    /// for cache hits).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] (429) when the bounded queue is at
    /// capacity, [`SubmitError::ShuttingDown`] (503) after shutdown began.
    pub fn submit(&self, job: CheckJob) -> Result<Receiver<CheckReply>, SubmitError> {
        let hash = job.deck.content_hash();
        self.submit_traced(job, hash, ds_obs::trace::next_trace_id())
    }

    /// [`CheckService::submit`] for a deck whose canonical hash `hash`
    /// ([`Deck::content_hash`]) the caller already computed, with a
    /// caller-chosen trace id (the daemon generates one per request and
    /// echoes it as `X-Trace-Id`); the completed check's trace is
    /// retrievable from [`CheckService::trace_body`] while it stays in the
    /// bounded ring.
    ///
    /// # Errors
    ///
    /// Same as [`CheckService::submit`].
    pub fn submit_traced(
        &self,
        job: CheckJob,
        hash: u64,
        trace_id: String,
    ) -> Result<Receiver<CheckReply>, SubmitError> {
        let inner = &self.inner;
        let submitted = Instant::now();
        inner.stats.checks.fetch_add(1, Ordering::Relaxed);
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let fingerprint = job.fingerprint(hash);
        let cache_key = job.cache_key(hash);

        // Tier 1: memory.
        if let Some(body) = lock_infallible(&inner.cache).get(&cache_key) {
            inner.stats.hits_memory.fetch_add(1, Ordering::Relaxed);
            inner.metrics.hits_memory.inc();
            record_hit_trace(inner, &trace_id, submitted);
            return Ok(immediate(CheckReply::Done { body, cache: "hit" }));
        }

        // Tier 2: the persistent store.  Repair requests can only be answered
        // here when the stored verdict is passive (no perturbation to
        // compute); non-passive repairs carry enforcement results that the
        // store's record schema does not persist, so they recompute.
        if let Some(store) = &inner.store {
            let state = lock_infallible(store);
            if let Some(record) = state.store.get(&fingerprint) {
                let passive = record.passive;
                let usable = !job.repair || passive == Some(true);
                if usable {
                    let mut outcome = CheckOutcome::from_record(record);
                    if job.repair {
                        outcome.repair = Some(RepairOutcome::unneeded(true));
                    }
                    let body = outcome.report_json();
                    drop(state);
                    lock_infallible(&inner.cache).put(&cache_key, body.clone());
                    inner.stats.hits_store.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.hits_store.inc();
                    record_hit_trace(inner, &trace_id, submitted);
                    return Ok(immediate(CheckReply::Done {
                        body,
                        cache: "hit-store",
                    }));
                }
            }
        }

        // Tier 3: compute, coalescing identical in-flight decks.
        let (tx, rx) = channel();
        {
            let mut inflight = lock_infallible(&inner.inflight);
            if let Some(waiters) = inflight.get_mut(&cache_key) {
                waiters.push(Waiter {
                    reply: tx,
                    trace_id,
                    submitted,
                });
                inner.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                inner.metrics.coalesced.inc();
                return Ok(rx);
            }
            let mut queue = lock_infallible(&inner.queue);
            if queue.len() >= inner.queue_capacity {
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull);
            }
            inflight.insert(cache_key.clone(), Vec::new());
            queue.push_back(QueuedJob {
                job,
                hash,
                fingerprint,
                cache_key,
                trace_id,
                submitted,
                reply: tx,
            });
            inner.metrics.queue_depth.set(queue.len() as i64);
            inner.available.notify_one();
        }
        Ok(rx)
    }

    /// The `ds-trace/v1` JSONL body for a trace id, while it remains in the
    /// bounded ring (capacity [`TRACE_RING_CAPACITY`], oldest evicted first).
    pub fn trace_body(&self, id: &str) -> Option<String> {
        self.inner.traces.get(id)
    }

    /// Graceful shutdown: workers finish every queued job, leftovers (when
    /// running with zero workers) are answered 503, and all pending store
    /// records are flushed to a segment with the merged artifacts rewritten.
    ///
    /// # Errors
    ///
    /// Reports store-flush failures (the queue is always drained).
    /// Idempotent: a second call finds nothing left to drain or flush.
    pub fn stop(&self) -> Result<(), SuiteError> {
        // Set under the queue mutex, so a worker either sees the flag before
        // it waits or is already waiting when the notification comes.
        {
            let _queue = lock_infallible(&self.inner.queue);
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.available.notify_all();
        let handles: Vec<JoinHandle<()>> = lock_infallible(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // With zero workers the queue may still hold jobs: answer 503.
        let leftovers: Vec<QueuedJob> = lock_infallible(&self.inner.queue).drain(..).collect();
        self.inner.metrics.queue_depth.set(0);
        for queued in leftovers {
            self.inner.stats.drained.fetch_add(1, Ordering::Relaxed);
            lock_infallible(&self.inner.inflight).remove(&queued.cache_key);
            let _ = queued.reply.send(CheckReply::Failed {
                status: 503,
                body: "{\"error\":\"server shutting down\",\"kind\":\"shutdown\"}".to_string(),
            });
        }
        if let Some(store) = &self.inner.store {
            let mut state = lock_infallible(store);
            flush_locked(&mut state).map_err(SuiteError::Harness)?;
            state.store.write_merged().map_err(SuiteError::Harness)?;
        }
        Ok(())
    }

    /// Renders the `/stats` body: the `ds-serve-stats/v1` counters, plus a
    /// compatibly-added `check_latency_ms` object with the server-side
    /// latency quantiles of every `/check` answered so far.
    pub fn stats_json(&self) -> String {
        let inner = &self.inner;
        let stats = &inner.stats;
        let queue_depth = lock_infallible(&inner.queue).len();
        let cache_entries = lock_infallible(&inner.cache).len();
        let store_records = inner.store.as_ref().map(|s| lock_infallible(s).store.len());
        let latency = inner.metrics.check_seconds.snapshot();
        let quantile_ms = |q: f64| {
            if latency.count == 0 {
                0.0
            } else {
                latency.quantile_ms(q)
            }
        };
        format!(
            "{{\"schema\":{},\"checks\":{},\"hits_memory\":{},\"hits_store\":{},\"coalesced\":{},\"computed\":{},\"rejected\":{},\"errors\":{},\"drained\":{},\"deck_memo_hits\":{},\"queue_depth\":{queue_depth},\"queue_capacity\":{},\"workers\":{},\"cache_entries\":{cache_entries},\"store_records\":{},\"check_latency_ms\":{{\"count\":{},\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3}}}}}",
            json::quote(STATS_SCHEMA),
            stats.checks.load(Ordering::Relaxed),
            stats.hits_memory.load(Ordering::Relaxed),
            stats.hits_store.load(Ordering::Relaxed),
            stats.coalesced.load(Ordering::Relaxed),
            stats.computed.load(Ordering::Relaxed),
            stats.rejected.load(Ordering::Relaxed),
            stats.errors.load(Ordering::Relaxed),
            stats.drained.load(Ordering::Relaxed),
            stats.deck_memo_hits.load(Ordering::Relaxed),
            inner.queue_capacity,
            inner.workers,
            json::opt_usize(store_records),
            latency.count,
            quantile_ms(0.5),
            quantile_ms(0.9),
            quantile_ms(0.99),
        )
    }

    /// Records one server-side `/check` latency observation (the daemon calls
    /// this once per answered request, whatever tier answered it).
    pub fn observe_check_latency(&self, elapsed: Duration) {
        self.inner
            .metrics
            .check_seconds
            .observe(elapsed.as_secs_f64());
    }

    /// Counts one `/check` request whose deck the daemon took from its memo
    /// of parsed request bodies instead of parsing it.
    pub fn observe_deck_memo_hit(&self) {
        self.inner
            .stats
            .deck_memo_hits
            .fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.deck_memo_hits.inc();
    }
}

fn flush_locked(state: &mut StoreState) -> Result<(), String> {
    if state.pending.is_empty() {
        return Ok(());
    }
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let stamp = format!("{nanos}-{}-{}", std::process::id(), state.flushes);
    state.flushes += 1;
    let pending = std::mem::take(&mut state.pending);
    state.pending_fingerprints.clear();
    state.store.append_segment(&stamp, &pending)?;
    Ok(())
}

fn worker_loop(inner: &Inner) {
    loop {
        let queued = {
            let mut queue = lock_infallible(&inner.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.metrics.queue_depth.set(queue.len() as i64);
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = wait_infallible(&inner.available, queue);
            }
        };
        inner
            .metrics
            .queue_wait_seconds
            .observe(queued.submitted.elapsed().as_secs_f64());
        let reply = run_job(inner, &queued);
        let waiters = lock_infallible(&inner.inflight)
            .remove(&queued.cache_key)
            .unwrap_or_default();
        let coalesced_reply = match &reply {
            CheckReply::Done { body, .. } => CheckReply::Done {
                body: body.clone(),
                cache: "coalesced",
            },
            failed => failed.clone(),
        };
        for waiter in waiters {
            record_hit_trace(inner, &waiter.trace_id, waiter.submitted);
            let _ = waiter.reply.send(coalesced_reply.clone());
        }
        let _ = queued.reply.send(reply);
    }
}

/// Test-only panic injection: lets the panic-containment test force a job to
/// panic mid-compute without depending on a pipeline crash.
#[cfg(test)]
fn panic_hook(name: &str) {
    if name == "__ds-serve-test-panic__" {
        panic!("injected test panic");
    }
}

#[cfg(not(test))]
fn panic_hook(_name: &str) {}

fn run_job(inner: &Inner, queued: &QueuedJob) -> CheckReply {
    let job = &queued.job;
    // A panicking check must not take down the worker thread (nor poison any
    // service lock): contain it and answer 500, exactly like a pipeline
    // error.  All service state is locked *after* this point, so an unwind
    // here cannot leave a guard mid-update.
    ds_obs::trace::begin(&queued.trace_id);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        panic_hook(&job.name);
        let mut check = PassivityCheck::hashed_deck(&job.name, job.deck.clone(), queued.hash)
            .method(job.method)
            .repair(job.repair);
        if job.reduce {
            check = check.reduce(ReduceSpec::default());
        }
        check.run()
    }));
    // Close the collector even when the check panicked: span guards were
    // dropped during the unwind, so the trace is complete either way, and a
    // leftover collector must not leak into this worker's next job.
    if let Some(trace) = ds_obs::trace::end() {
        for span in &trace.spans {
            if let Some((_, hist)) = inner
                .metrics
                .stage_seconds
                .iter()
                .find(|(name, _)| *name == span.name)
            {
                hist.observe_ns(span.elapsed_ns);
            }
        }
        inner.traces.insert(&trace.id, trace.render_jsonl());
    }
    let result = match result {
        Ok(result) => result,
        Err(_) => {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            inner.metrics.errors.inc();
            return CheckReply::Failed {
                status: 500,
                body: "{\"error\":\"check panicked\",\"kind\":\"panic\"}".to_string(),
            };
        }
    };
    match result {
        Ok(outcome) => {
            inner.stats.computed.fetch_add(1, Ordering::Relaxed);
            let body = outcome.report_json();
            if let Some(store) = &inner.store {
                let mut state = lock_infallible(store);
                if !state.store.contains(&queued.fingerprint)
                    && !state.pending_fingerprints.contains(&queued.fingerprint)
                {
                    state.pending.push(outcome.record.clone());
                    state
                        .pending_fingerprints
                        .insert(queued.fingerprint.clone());
                    if state.pending.len() >= FLUSH_THRESHOLD {
                        if let Err(e) = flush_locked(&mut state) {
                            eprintln!("ds-serve: store flush failed: {e}");
                        }
                    }
                }
            }
            lock_infallible(&inner.cache).put(&queued.cache_key, body.clone());
            CheckReply::Done {
                body,
                cache: "miss",
            }
        }
        Err(error) => {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            inner.metrics.errors.inc();
            let (status, body) = error_response(&error);
            CheckReply::Failed { status, body }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_passivity_suite::netlist::parse_deck;

    const DECK: &str = "R1 in mid 2\nL1 mid out 0.5\nC1 out 0 1\nR2 out 0 10\n.port in\n.end\n";

    fn job(method: Method, repair: bool) -> CheckJob {
        let deck = parse_deck(DECK).unwrap();
        CheckJob {
            name: format!("{:016x}", deck.content_hash()),
            deck,
            method,
            repair,
            reduce: false,
        }
    }

    #[test]
    fn fingerprints_match_the_sweep_engine() {
        use ds_passivity_suite::harness::scenario::Scenario;
        use ds_passivity_suite::harness::{task_fingerprint, SweepTask};
        let job = job(Method::Proposed, false);
        let task = SweepTask {
            scenario: Scenario::from_deck(&job.name, &job.deck),
            method: job.method,
        };
        let hash = job.deck.content_hash();
        assert_eq!(job.fingerprint(hash), task_fingerprint(&task));
        assert!(job.fingerprint(hash).starts_with("deck|"));
        assert!(job.fingerprint(hash).ends_with("|proposed"));
        assert_eq!(job.cache_key(hash), job.fingerprint(hash));
        let repair = CheckJob {
            repair: true,
            ..job
        };
        assert!(repair.cache_key(hash).ends_with("|repair"));
    }

    #[test]
    fn second_submit_hits_the_memory_cache() {
        let service = CheckService::start(1, 8, 16, None).unwrap();
        let first = service.submit(job(Method::Proposed, false)).unwrap();
        let CheckReply::Done { body, cache } = first.recv().unwrap() else {
            panic!("first check failed");
        };
        assert_eq!(cache, "miss");
        let second = service.submit(job(Method::Proposed, false)).unwrap();
        let CheckReply::Done {
            body: cached,
            cache,
        } = second.recv().unwrap()
        else {
            panic!("second check failed");
        };
        assert_eq!(cache, "hit");
        assert_eq!(cached, body);
        service.stop().unwrap();
    }

    #[test]
    fn zero_workers_fill_the_queue_and_reject() {
        let service = CheckService::start(0, 1, 16, None).unwrap();
        let _queued = service.submit(job(Method::Proposed, false)).unwrap();
        // Identical jobs coalesce instead of queueing, so overflow with a
        // different method.
        let err = service.submit(job(Method::Lmi, false)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        service.stop().unwrap();
    }

    #[test]
    fn drained_jobs_answer_503() {
        let service = CheckService::start(0, 4, 16, None).unwrap();
        let rx = service.submit(job(Method::Proposed, false)).unwrap();
        service.stop().unwrap();
        let CheckReply::Failed { status, .. } = rx.recv().unwrap() else {
            panic!("drained job should fail");
        };
        assert_eq!(status, 503);
    }

    #[test]
    fn panicking_job_answers_500_and_queue_keeps_serving() {
        let service = CheckService::start(1, 8, 16, None).unwrap();
        // The injected panic unwinds inside the worker; keep its backtrace
        // noise out of the test output.
        let saved_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut poison = job(Method::Proposed, false);
        poison.name = "__ds-serve-test-panic__".to_string();
        let rx = service.submit(poison).unwrap();
        let CheckReply::Failed { status, body } = rx.recv().unwrap() else {
            panic!("panicking job should fail");
        };
        std::panic::set_hook(saved_hook);
        assert_eq!(status, 500);
        assert!(body.contains("\"kind\":\"panic\""));
        // The same worker (there is only one) must still serve new jobs, and
        // no service mutex may be left poisoned.
        let rx = service.submit(job(Method::Proposed, false)).unwrap();
        let CheckReply::Done { cache, .. } = rx.recv().unwrap() else {
            panic!("check after a panicked job failed");
        };
        assert_eq!(cache, "miss");
        assert_eq!(service.inner.stats.errors.load(Ordering::Relaxed), 1);
        service.stop().unwrap();
    }

    #[test]
    fn computed_checks_leave_a_stage_trace_in_the_ring() {
        let service = CheckService::start(1, 8, 16, None).unwrap();
        let hash = job(Method::Proposed, false).deck.content_hash();
        let rx = service
            .submit_traced(
                job(Method::Proposed, false),
                hash,
                "trace-ring-miss".to_string(),
            )
            .unwrap();
        let CheckReply::Done { cache, .. } = rx.recv().unwrap() else {
            panic!("computed check failed");
        };
        assert_eq!(cache, "miss");
        let body = service.trace_body("trace-ring-miss").unwrap();
        for stage in &ds_obs::STAGES[2..] {
            assert!(
                body.contains(&format!("\"span\":\"{stage}\"")),
                "trace is missing stage '{stage}': {body}"
            );
        }
        assert!(body.contains("\"span\":\"check\""));

        // A memory hit records a minimal single-span trace under its own id.
        let rx = service
            .submit_traced(
                job(Method::Proposed, false),
                hash,
                "trace-ring-hit".to_string(),
            )
            .unwrap();
        let CheckReply::Done { cache, .. } = rx.recv().unwrap() else {
            panic!("cached check failed");
        };
        assert_eq!(cache, "hit");
        let hit = service.trace_body("trace-ring-hit").unwrap();
        assert!(hit.contains("\"span\":\"check\""));
        assert!(!hit.contains("\"span\":\"method\""));
        service.stop().unwrap();
    }

    #[test]
    fn reduce_jobs_compute_reduced_reports_and_cache_separately() {
        // Dense, reduced, dense again, then a restart on the same store:
        // each request gets its own body, from its own store slot.
        let store = std::env::temp_dir().join(format!("ds-serve-reduce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let dense_job = job(Method::Proposed, false);
        let mut reduce = dense_job.clone();
        reduce.reduce = true;
        assert!(reduce
            .cache_key(reduce.deck.content_hash())
            .ends_with("|reduce"));
        let check = |service: &CheckService, job: &CheckJob| {
            let reply = service.submit(job.clone()).unwrap().recv().unwrap();
            let CheckReply::Done { body, cache } = reply else {
                panic!("check failed: {reply:?}");
            };
            (cache, body)
        };
        let service = CheckService::start(1, 8, 16, Some(&store)).unwrap();
        let (cache, dense) = check(&service, &dense_job);
        assert_eq!(cache, "miss");
        assert!(dense.contains("\"reduced_order\":null"), "{dense}");
        let (cache, reduced) = check(&service, &reduce);
        assert_eq!(cache, "miss", "a dense record answered a reduce request");
        // Order 4 passes through the projection exactly.
        assert!(reduced.contains("\"reduced_order\":4"), "{reduced}");
        assert!(reduced.contains("\"passive\":true"), "{reduced}");
        assert_eq!(check(&service, &dense_job), ("hit", dense.clone()));
        assert_eq!(check(&service, &reduce), ("hit", reduced.clone()));
        service.stop().unwrap();
        let service = CheckService::start(1, 8, 16, Some(&store)).unwrap();
        assert_eq!(check(&service, &reduce), ("hit-store", reduced));
        assert_eq!(check(&service, &dense_job), ("hit-store", dense));
        service.stop().unwrap();
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn stats_carry_server_side_latency_quantiles() {
        let service = CheckService::start(1, 8, 16, None).unwrap();
        service.observe_check_latency(Duration::from_millis(5));
        let stats = service.stats_json();
        assert!(stats.contains("\"check_latency_ms\":{\"count\":"));
        assert!(stats.contains("\"p50\":"));
        assert!(stats.contains("\"p99\":"));
        // The 5 ms observation pushes every quantile off zero (the registry
        // is process-global, so other tests can only add observations).
        assert!(!stats.contains("\"p50\":0.000"));
        service.stop().unwrap();
    }

    #[test]
    fn error_responses_carry_parse_positions() {
        let err = SuiteError::from(ds_passivity_suite::netlist::ParseError::new(3, 7, "boom"));
        let (status, body) = error_response(&err);
        assert_eq!(status, 400);
        assert!(body.contains("\"kind\":\"parse\""));
        assert!(body.contains("\"line\":3"));
        assert!(body.contains("\"column\":7"));
    }
}
