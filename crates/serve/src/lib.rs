//! # melreq-serve — the simulator as a service
//!
//! A dependency-free (std-only) HTTP/1.1 front end over the typed
//! facade (`melreq_core::api`): POST a [`SimRequest`] body to `/run`
//! (exactly one policy) or `/compare` (one or more), and a worker pool
//! executes it through the same [`Session`] the CLI uses —
//! fork-per-policy warm-up sharing, the persistent checkpoint store,
//! and byte-deterministic reports. The `"report"` field of a `/run`
//! response is **bit-identical** to `melreq run --json` for the same
//! request (pinned by the golden service test); provenance that may
//! vary run-to-run (cache status, wall time, store statistics) lives in
//! the response envelope around it.
//!
//! Connection handling is a single nonblocking event loop
//! ([`poll::Poller`], over epoll: the service builds on Linux only) with
//! HTTP/1.1 keep-alive, pipelined request parsing on a reusable
//! per-connection buffer, and idle-connection timeouts; only the
//! simulations themselves run on the bounded worker pool, which hands
//! finished responses back to the loop through a completion queue and a
//! pipe-based waker.
//!
//! Robustness model:
//!
//! * **Backpressure** — a bounded job queue; a full queue answers
//!   `429 Too Many Requests` with `Retry-After` instead of wedging.
//! * **Deadlines** — per-request wall-clock budgets (`timeout_ms`, or
//!   the server default); expired runs are cancelled cooperatively at a
//!   simulation epoch boundary and answer `504`.
//! * **Caching + coalescing** — an opt-in LRU response cache keyed by
//!   the canonical schema-versioned request bytes
//!   ([`SimRequest::canonical_bytes`]) answers repeats without touching
//!   the pool (`"cache":"response"`), and concurrent identical requests
//!   coalesce onto one in-flight simulation, every follower receiving
//!   the same report bytes (`"cache":"coalesced"`).
//! * **Graceful drain** — SIGTERM (via [`install_sigterm`]), POST
//!   `/shutdown`, or [`ServerHandle::shutdown`] stop accepting, finish
//!   every admitted job, flush every response, and only then let the
//!   process exit.
//! * **Introspection** — `GET /healthz` and Prometheus text metrics on
//!   `GET /metrics` (request/response/rejection/timeout counters, queue
//!   depth and in-flight gauges, connection and cache/coalescing
//!   counters, simulated cycles, checkpoint-store statistics).

#[cfg(not(target_os = "linux"))]
compile_error!("melreq-serve is Linux-only: its event loop is built on epoll");

pub mod http;
pub mod poll;

use melreq_core::api::json::esc;
use melreq_core::api::{MelreqError, Session, SimReport, SimRequest, SCHEMA_VERSION};
use melreq_core::experiment::RunControl;
use melreq_core::store::CheckpointStore;
use melreq_core::system::CancelToken;
use melreq_obs::metrics::{Counter, Gauge, Histogram, MetricKind, Registry};
use poll::{Interest, Poller, WakeHandle, Waker};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Largest accepted request body.
const MAX_BODY: usize = 1 << 20;

/// Hard ceiling on buffered-but-unparsed bytes per connection (one
/// maximal body plus headroom for pipelined heads).
const MAX_CONN_BUF: usize = MAX_BODY + 32 * 1024;

/// `Retry-After` seconds suggested on queue overflow.
const RETRY_AFTER_S: u64 = 1;

/// Longest the event loop sleeps in the poller — the tick driving idle
/// sweeps, drain progress, and SIGTERM polling.
const TICK_MS: i32 = 100;

/// Histogram bucket upper bounds (seconds) shared by the request and
/// per-stage latency families — sub-millisecond parse/flush stages up
/// through multi-second simulations.
const LATENCY_BUCKETS: [f64; 16] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0,
];

/// Request lifecycle stages, in order, under their profiler span
/// categories; what follows `serve.` ([`stage_label`]) is the `stage` label
/// of `melreq_serve_request_stage_duration_seconds` and the `<stage>_us`
/// key of an access-log line. A request's stage durations are one
/// [`StageTimes`] indexed like this list, in [`ReqTrace`] and
/// [`Completion`] alike.
const STAGES: [&str; 5] =
    ["serve.parse", "serve.queue", "serve.execute", "serve.render", "serve.flush"];
const PARSE: usize = 0;
const QUEUE: usize = 1;
const EXECUTE: usize = 2;
const RENDER: usize = 3;
const FLUSH: usize = 4;
type StageTimes = [Duration; STAGES.len()];

fn stage_label(stage: usize) -> &'static str {
    &STAGES[stage]["serve.".len()..]
}

/// A live profiler span of `stage` for request `id`.
fn stage_span(stage: usize, id: u64) -> melreq_prof::SpanGuard {
    let mut sp = melreq_prof::span(STAGES[stage], || format!("{} #{id}", stage_label(stage)));
    sp.arg("id", id);
    sp
}

/// A finished profiler span of `stage` for request `id`, `took` long.
fn stage_record(stage: usize, id: u64, from: Instant, took: Duration) {
    let start_ns = melreq_prof::ns_of(from);
    let end_ns = start_ns.saturating_add(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
    let name = || format!("{} #{id}", stage_label(stage));
    melreq_prof::record(STAGES[stage], name, start_ns, end_ns, &[("id", id)]);
}

/// Every endpoint: its method, its path and its `endpoint` label in
/// `melreq_requests_total` (registered, so rendered, in this order).
/// `dispatch` routes by it; a path listed here under another method is a
/// 405, a path not listed a 404.
const ENDPOINTS: [(&str, &str, &str); 7] = [
    ("POST", "/run", "run"),
    ("POST", "/compare", "compare"),
    ("GET", "/healthz", "healthz"),
    ("GET", "/metrics", "metrics"),
    ("POST", "/shutdown", "shutdown"),
    ("GET", "/buildinfo", "buildinfo"),
    ("GET", "/policies", "policies"),
];

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Server configuration. The `melreq serve` flag rows write straight into
/// it, so [`ServeConfig::default`] is the only statement of the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it requests get 429.
    pub queue_cap: usize,
    /// Checkpoint-store directory; `None` runs storeless.
    pub store_dir: Option<PathBuf>,
    /// Default wall-clock budget for requests that set no `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Response-cache capacity in entries; 0 disables it (the default —
    /// repeats then exercise the checkpoint store instead).
    pub response_cache: usize,
    /// Close keep-alive connections idle longer than this; 0 disables
    /// the sweep. Connections with a simulation in flight are exempt.
    pub idle_timeout_ms: u64,
    /// Structured JSON access log (one line per answered `/run` or
    /// `/compare` request); `None` disables it.
    pub access_log: Option<PathBuf>,
    /// Host-profile output path: when set, [`serve_forever`] enables
    /// the span profiler for the server's lifetime and writes a
    /// Perfetto trace (with embedded summary and buildinfo) on drain.
    pub prof_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7700".to_string(),
            workers: 2,
            queue_cap: 16,
            store_dir: None,
            default_timeout_ms: None,
            response_cache: 0,
            idle_timeout_ms: 30_000,
            access_log: None,
            prof_out: None,
        }
    }
}

/// One admitted simulation, owned by the worker pool. The connection is
/// referenced by token only — the event loop keeps the socket.
struct Job {
    token: u64,
    /// Request id (process-wide, monotonically assigned at dispatch) —
    /// threads the connection's lifecycle trace through the worker.
    id: u64,
    /// Canonical identity bytes ([`SimRequest::canonical_bytes`]) — the
    /// coalescing and response-cache key.
    key: String,
    req: SimRequest,
    deadline: Option<Instant>,
    /// When the job entered the bounded queue (queue-wait timing).
    queued_at: Instant,
}

/// A finished job (or error), handed from a worker back to the event
/// loop for delivery. The worker's stage durations ride along so the loop
/// can add them to the connection's request trace; followers coalesced
/// onto a successful run carry zeros (they did no work of their own).
#[derive(Clone)]
struct Completion {
    token: u64,
    status: u16,
    body: String,
    /// Cache disposition for the access log ("cold"/"warm"/"partial",
    /// "coalesced", or "none" on errors).
    cache: &'static str,
    stages: StageTimes,
}

struct Metrics {
    registry: Registry,
    /// Indexed like [`ENDPOINTS`].
    requests: Vec<Arc<Counter>>,
    responses: Vec<(u16, Arc<Counter>)>,
    rejected: Arc<Counter>,
    timeouts: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    inflight_requests: Arc<Gauge>,
    open_connections: Arc<Gauge>,
    connections_total: Arc<Counter>,
    sim_cycles: Arc<Counter>,
    simulations: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    coalesced: Arc<Counter>,
    worker_panics: Arc<Counter>,
    request_duration: Arc<Histogram>,
    /// Indexed like [`STAGES`].
    stage_durations: Vec<Arc<Histogram>>,
}

impl Metrics {
    fn new() -> Self {
        let registry = Registry::new();
        let requests = ENDPOINTS
            .iter()
            .map(|(_, _, ep)| {
                registry.counter(
                    &format!("melreq_requests_total{{endpoint=\"{ep}\"}}"),
                    "Requests received, by endpoint.",
                )
            })
            .collect();
        let responses = [200u16, 400, 404, 405, 429, 500, 504]
            .into_iter()
            .map(|code| {
                let c = registry.counter(
                    &format!("melreq_responses_total{{code=\"{code}\"}}"),
                    "Responses sent, by status code.",
                );
                (code, c)
            })
            .collect();
        let rejected = registry
            .counter("melreq_rejected_total", "Requests rejected by queue backpressure (429).");
        let timeouts = registry
            .counter("melreq_timeouts_total", "Requests that exceeded their wall-clock deadline.");
        let queue_depth =
            registry.gauge("melreq_queue_depth", "Jobs waiting in the bounded queue.");
        let inflight_requests = registry.gauge(
            "melreq_inflight_requests",
            "Simulation requests admitted (queued, running, or coalesced) and not yet answered.",
        );
        let open_connections = registry
            .gauge("melreq_open_connections", "Connections currently held by the event loop.");
        let connections_total =
            registry.counter("melreq_connections_total", "Connections accepted since start.");
        let sim_cycles = registry
            .counter("melreq_sim_cycles_total", "Simulated cycles executed on behalf of requests.");
        let simulations = registry.counter(
            "melreq_simulations_total",
            "Simulations actually executed by the worker pool (cached and coalesced requests excluded).",
        );
        let cache_hits = registry
            .counter("melreq_serve_cache_hits_total", "Requests answered from the response cache.");
        let cache_misses = registry.counter(
            "melreq_serve_cache_misses_total",
            "Cache-enabled requests that missed the response cache.",
        );
        let cache_evictions = registry.counter(
            "melreq_serve_cache_evictions_total",
            "Entries evicted from the response cache (LRU, bounded capacity).",
        );
        let coalesced = registry.counter(
            "melreq_serve_coalesced_total",
            "Requests coalesced onto an identical in-flight simulation.",
        );
        let worker_panics = registry.counter(
            "melreq_serve_worker_panics_total",
            "Simulations that panicked; each answered 500 and the worker carried on.",
        );
        let request_duration = registry.histogram(
            "melreq_serve_request_duration_seconds",
            "End-to-end simulation request latency: parse start to final flush.",
            &LATENCY_BUCKETS,
        );
        let stage_durations = (0..STAGES.len())
            .map(|i| {
                let stage = stage_label(i);
                registry.histogram(
                    &format!("melreq_serve_request_stage_duration_seconds{{stage=\"{stage}\"}}"),
                    "Simulation request latency by lifecycle stage.",
                    &LATENCY_BUCKETS,
                )
            })
            .collect();
        Metrics {
            registry,
            requests,
            responses,
            rejected,
            timeouts,
            queue_depth,
            inflight_requests,
            open_connections,
            connections_total,
            sim_cycles,
            simulations,
            cache_hits,
            cache_misses,
            cache_evictions,
            coalesced,
            worker_panics,
            request_duration,
            stage_durations,
        }
    }

    fn count_response(&self, status: u16) {
        if let Some((_, c)) = self.responses.iter().find(|(code, _)| *code == status) {
            c.inc();
        }
    }
}

/// Bounded LRU over `(canonical request bytes → report bytes)`. The
/// stored value is the deterministic report JSON only — envelopes are
/// rendered per response, so `"cache":"response"` answers stay
/// byte-identical to a cold `/run` in their `"report"` field.
struct ResponseCache {
    cap: usize,
    /// Front = most recently used.
    entries: VecDeque<(String, Arc<String>)>,
}

impl ResponseCache {
    fn new(cap: usize) -> Self {
        ResponseCache { cap, entries: VecDeque::new() }
    }

    fn get(&mut self, key: &str) -> Option<Arc<String>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos).expect("position is in range");
        let report = entry.1.clone();
        self.entries.push_front(entry);
        Some(report)
    }

    /// Insert (or refresh) an entry; returns how many entries the
    /// capacity bound evicted.
    fn insert(&mut self, key: String, report: Arc<String>) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let entry = self.entries.remove(pos).expect("position is in range");
            self.entries.push_front(entry);
            return 0;
        }
        self.entries.push_front((key, report));
        let mut evicted = 0u64;
        while self.entries.len() > self.cap {
            self.entries.pop_back();
            evicted += 1;
        }
        evicted
    }
}

struct Shared {
    cfg: ServeConfig,
    session: Session,
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
    draining: AtomicBool,
    metrics: Metrics,
    response_cache: Mutex<ResponseCache>,
    /// In-flight coalescing registry: canonical request bytes → tokens
    /// of follower connections waiting on the leader's run. An entry
    /// exists exactly while a job for that key is queued or executing.
    coalesce: Mutex<BTreeMap<String, Vec<u64>>>,
    /// Finished jobs awaiting delivery by the event loop.
    completions: Mutex<VecDeque<Completion>>,
    /// Jobs admitted to the queue whose completions have not been
    /// published yet (drain barrier).
    jobs_outstanding: AtomicUsize,
    /// Monotonic request-id source for `/run`//`compare` lifecycle
    /// traces (ids start at 1; 0 never appears in a log line).
    next_request_id: AtomicU64,
    waker: WakeHandle,
}

impl Shared {
    fn new(cfg: ServeConfig, session: Session, metrics: Metrics, waker: WakeHandle) -> Self {
        Shared {
            response_cache: Mutex::new(ResponseCache::new(cfg.response_cache)),
            cfg,
            session,
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            draining: AtomicBool::new(false),
            metrics,
            coalesce: Mutex::new(BTreeMap::new()),
            completions: Mutex::new(VecDeque::new()),
            jobs_outstanding: AtomicUsize::new(0),
            next_request_id: AtomicU64::new(0),
            waker,
        }
    }
}

/// A running server: bound address plus the thread handles needed to
/// drain it. Dropping the handle without [`ServerHandle::join`] leaves
/// the threads running for the life of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, let workers finish every
    /// admitted job. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.cond.notify_all();
        self.shared.waker.wake();
    }

    /// Wait for the event loop and every worker to exit (all admitted
    /// work is answered and flushed once this returns).
    pub fn join(self) {
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Bind, spawn the worker pool and the event loop, and return.
pub fn start(cfg: ServeConfig) -> Result<ServerHandle, MelreqError> {
    let session = match &cfg.store_dir {
        Some(dir) => {
            // The one process that outlives its requests: boundaries stay
            // resident between them.
            let store = CheckpointStore::open_resident(dir)
                .map_err(|e| MelreqError::Io(format!("open store {}: {e}", dir.display())))?;
            Session::with_store(Arc::new(store))
        }
        None => Session::new(),
    };
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| MelreqError::Io(format!("bind {}: {e}", cfg.addr)))?;
    let addr = listener.local_addr().map_err(|e| MelreqError::Io(format!("local_addr: {e}")))?;
    listener.set_nonblocking(true).map_err(|e| MelreqError::Io(format!("set_nonblocking: {e}")))?;

    type StatProbe = fn(&melreq_core::StoreStats) -> u64;
    let metrics = Metrics::new();
    if let Some(store) = session.store() {
        use MetricKind::{Counter, Gauge};
        let probes: [(&str, MetricKind, StatProbe); 7] = [
            ("melreq_store_warmup_hits_total", Counter, |s| s.warmup_hits),
            ("melreq_store_warmup_misses_total", Counter, |s| s.warmup_misses),
            ("melreq_store_profile_hits_total", Counter, |s| s.profile_hits),
            ("melreq_store_profile_misses_total", Counter, |s| s.profile_misses),
            ("melreq_store_resident_hits_total", Counter, |s| s.resident_hits),
            ("melreq_store_resident_evictions_total", Counter, |s| s.resident_evictions),
            ("melreq_store_resident_bytes", Gauge, |s| s.resident_bytes),
        ];
        for (name, kind, probe) in probes {
            let store = store.clone();
            #[allow(clippy::cast_precision_loss, reason = "store counters stay far below 2^52")]
            metrics.registry.func(
                name,
                "Checkpoint-store activity since server start.",
                kind,
                move || probe(&store.stats()) as f64,
            );
        }
    }

    let mut poller = Poller::new().map_err(|e| MelreqError::Io(format!("poller: {e}")))?;
    let (waker, wake_handle) =
        poll::wake_pair().map_err(|e| MelreqError::Io(format!("wake pipe: {e}")))?;
    poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)
        .map_err(|e| MelreqError::Io(format!("register listener: {e}")))?;
    poller
        .add(waker.fd(), WAKER_TOKEN, Interest::Read)
        .map_err(|e| MelreqError::Io(format!("register waker: {e}")))?;

    let shared = Arc::new(Shared::new(cfg.clone(), session, metrics, wake_handle));

    let access_log =
        match &cfg.access_log {
            Some(path) => {
                Some(std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(
                    |e| MelreqError::Io(format!("open access log {}: {e}", path.display())),
                )?)
            }
            None => None,
        };

    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("melreq-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn worker thread")
        })
        .collect();
    let event_loop = {
        let state = EventLoop {
            shared: shared.clone(),
            poller,
            waker,
            listener: Some(listener),
            conns: BTreeMap::new(),
            next_token: FIRST_CONN_TOKEN,
            access_log,
        };
        std::thread::Builder::new()
            .name("melreq-netio".to_string())
            .spawn(move || state.run())
            .expect("spawn event-loop thread")
    };
    Ok(ServerHandle { addr, shared, event_loop, workers })
}

/// Run a server in the foreground until it drains (SIGTERM, or POST
/// `/shutdown`). Prints the listening line up front; returns a final
/// summary for the CLI to print.
pub fn serve_forever(cfg: ServeConfig) -> Result<String, MelreqError> {
    install_sigterm();
    if cfg.prof_out.is_some() {
        melreq_prof::enable();
    }
    let store_note = match &cfg.store_dir {
        Some(dir) => format!("store {}", dir.display()),
        None => "no store".to_string(),
    };
    let handle = start(cfg.clone())?;
    println!(
        "melreq-serve listening on {} ({} workers, queue {}, cache {}, {})",
        handle.addr(),
        cfg.workers.max(1),
        cfg.queue_cap,
        cfg.response_cache,
        store_note
    );
    handle.join();
    if let Some(path) = &cfg.prof_out {
        let summary =
            melreq_obs::finish_host_profile(path, "melreq serve", buildinfo_json(&cfg))
                .map_err(|e| MelreqError::Io(format!("write profile {}: {e}", path.display())))?;
        return Ok(format!(
            "{}\nhost profile written to {}\nmelreq-serve drained cleanly",
            summary.render_text(),
            path.display()
        ));
    }
    Ok("melreq-serve drained cleanly".to_string())
}

/// Render the `/buildinfo` body: crate version, request schema version,
/// poller (always epoll), and the effective worker/queue/feature
/// configuration. The same block is embedded in `--profile` artifacts
/// so a trace records which build and configuration produced it.
pub fn buildinfo_json(cfg: &ServeConfig) -> String {
    format!(
        "{{\"name\":\"melreq-serve\",\"version\":\"{}\",\"schema_version\":{SCHEMA_VERSION},\
         \"poller\":\"epoll\",\"workers\":{},\"queue_cap\":{},\"response_cache\":{},\"store\":{},\
         \"profiling\":{},\"access_log\":{}}}",
        env!("CARGO_PKG_VERSION"),
        cfg.workers.max(1),
        cfg.queue_cap,
        cfg.response_cache,
        cfg.store_dir.is_some(),
        cfg.prof_out.is_some(),
        cfg.access_log.is_some(),
    )
}

/// Per-connection event-loop state. `rbuf` accumulates unparsed input
/// (possibly several pipelined requests); `wbuf`/`wpos` hold rendered
/// but unflushed responses.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// One simulation request outstanding (leader or coalesced
    /// follower); parsing pauses until its response is sent, which
    /// keeps pipelined responses in order.
    busy: bool,
    /// The current request asked for `Connection: close`.
    close_requested: bool,
    /// Close once `wbuf` is fully flushed.
    close_after_write: bool,
    /// Peer closed its write side (EOF seen).
    read_closed: bool,
    /// Write interest currently registered in the poller.
    want_write: bool,
    last_activity: Instant,
    /// Lifecycle trace of the simulation request currently in flight on
    /// this connection. At most one exists because `busy` pauses
    /// parsing until the previous response is delivered.
    trace: Option<ReqTrace>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            busy: false,
            close_requested: false,
            close_after_write: false,
            read_closed: false,
            want_write: false,
            last_activity: Instant::now(),
            trace: None,
        }
    }
}

/// Per-request lifecycle record: stage timings accumulate as the
/// request moves parse → queue → execute → render → flush, and the
/// whole record is finalized (histograms, profiler spans, access log)
/// once the response bytes have fully left the process.
struct ReqTrace {
    id: u64,
    endpoint: &'static str,
    /// When parsing of this request began (the request's time zero).
    start: Instant,
    stages: StageTimes,
    /// Cache disposition ("response" for cache hits, worker-reported
    /// otherwise; "none" until known).
    cache: &'static str,
    status: u16,
    /// When the response was queued on the connection (flush begins).
    sent_at: Option<Instant>,
}

impl ReqTrace {
    fn new(id: u64, endpoint: &'static str, start: Instant, parse: Duration) -> Self {
        let mut stages = StageTimes::default();
        stages[PARSE] = parse;
        ReqTrace { id, endpoint, start, stages, cache: "none", status: 0, sent_at: None }
    }
}

enum FlushOutcome {
    /// Everything written; close if that was requested.
    Flushed,
    /// Socket buffer full; need write readiness.
    Pending,
    /// Connection is unusable.
    Dead,
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    listener: Option<TcpListener>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Open `--access-log` sink (append mode); one JSON line per
    /// finalized simulation request.
    access_log: Option<std::fs::File>,
}

impl EventLoop {
    fn run(mut self) {
        melreq_prof::set_thread_track(|| "serve netio".to_string());
        let mut events: Vec<poll::Event> = Vec::new();
        loop {
            if sigterm_received() || self.shared.draining.load(Ordering::SeqCst) {
                self.begin_drain();
                if self.drained() {
                    break;
                }
            }
            if self.poller.wait(&mut events, TICK_MS).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    token => {
                        if ev.readable {
                            self.on_readable(token);
                        }
                        if ev.writable {
                            self.on_writable(token);
                        }
                        if ev.hangup {
                            self.on_hangup(token);
                        }
                    }
                }
            }
            self.drain_completions();
            self.sweep_idle();
        }
        // Exit: make sure workers observe the drain too.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.cond.notify_all();
        // Thread join does not wait for TLS destructors; flush the span
        // recorder explicitly so a post-join drain sees this thread.
        melreq_prof::flush_thread();
    }

    /// Idempotent drain entry: stop accepting, wake workers, drop
    /// connections with nothing pending.
    fn begin_drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.cond.notify_all();
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.remove(listener.as_raw_fd());
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && c.wbuf.is_empty())
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    /// All admitted work answered and flushed?
    fn drained(&self) -> bool {
        self.shared.jobs_outstanding.load(Ordering::SeqCst) == 0
            && self.shared.completions.lock().expect("completions poisoned").is_empty()
            && self.conns.values().all(|c| c.wbuf.is_empty() && !c.busy)
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(stream.as_raw_fd(), token, Interest::Read).is_err() {
                        continue;
                    }
                    self.shared.metrics.connections_total.inc();
                    self.shared.metrics.open_connections.inc();
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn on_readable(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let mut chunk = [0u8; 8192];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        if conn.rbuf.len() > MAX_CONN_BUF {
                            dead = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            conn.last_activity = Instant::now();
        }
        if dead {
            self.close_conn(token);
            return;
        }
        self.advance(token);
    }

    fn on_writable(&mut self, token: u64) {
        self.flush(token);
    }

    fn on_hangup(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.read_closed = true;
        // A busy connection keeps its socket: the response may still be
        // deliverable, and the completion path needs the token.
        if !conn.busy && conn.wbuf.is_empty() {
            self.close_conn(token);
        }
    }

    /// Parse every complete pipelined request the connection is allowed
    /// to start (at most one simulation in flight per connection), then
    /// flush.
    fn advance(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.busy || conn.close_after_write {
                break;
            }
            let parse_started = Instant::now();
            match http::parse_request(&conn.rbuf, MAX_BODY) {
                Ok(None) => break,
                Ok(Some((request, consumed))) => {
                    let parse = parse_started.elapsed();
                    conn.rbuf.drain(..consumed);
                    if request.close {
                        conn.close_requested = true;
                    }
                    self.dispatch(token, &request, parse_started, parse);
                }
                Err(e) => {
                    let body = error_body(400, "usage", &format!("bad request: {e}"));
                    self.send_close(token, 400, "application/json", &[], &body);
                    break;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.read_closed && !conn.busy && conn.wbuf.is_empty() {
            self.close_conn(token);
            return;
        }
        self.flush(token);
    }

    fn dispatch(
        &mut self,
        token: u64,
        request: &http::HttpRequest,
        started: Instant,
        parse: Duration,
    ) {
        let shared = self.shared.clone();
        let Some(at) = ENDPOINTS.iter().position(|(_, path, _)| *path == request.path) else {
            let body = error_body(404, "usage", &format!("unknown endpoint '{}'", request.path));
            return self.send(token, 404, "application/json", &[], &body);
        };
        let (method, _, endpoint) = ENDPOINTS[at];
        if request.method != method {
            let body = error_body(405, "usage", "method not allowed");
            return self.send(token, 405, "application/json", &[], &body);
        }
        shared.metrics.requests[at].inc();
        match endpoint {
            "healthz" => {
                let body = format!(
                    "{{\"status\":\"ok\",\"schema_version\":{SCHEMA_VERSION},\"queue_depth\":{}}}",
                    shared.queue.lock().expect("queue poisoned").len()
                );
                self.send(token, 200, "application/json", &[], &body);
            }
            "metrics" => {
                let body = shared.metrics.registry.render();
                self.send(token, 200, "text/plain; version=0.0.4", &[], &body);
            }
            "shutdown" => {
                shared.draining.store(true, Ordering::SeqCst);
                self.send(token, 200, "application/json", &[], "{\"status\":\"draining\"}");
                self.begin_drain();
            }
            "buildinfo" => {
                let body = buildinfo_json(&shared.cfg);
                self.send(token, 200, "application/json", &[], &body);
            }
            "policies" => {
                let body = format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"policies\":{}}}",
                    melreq_core::api::registry_json()
                );
                self.send(token, 200, "application/json", &[], &body);
            }
            _ => {
                let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
                // Replacing a not-yet-finalized trace (possible only
                // when a pipelined response is still flushing) settles
                // the old one now rather than losing it.
                let prev = self.conns.get_mut(&token).and_then(|conn| {
                    conn.trace.replace(ReqTrace::new(id, endpoint, started, parse))
                });
                if let Some(t) = prev.filter(|t| t.sent_at.is_some()) {
                    self.finalize_request(t);
                }
                match parse_sim_request(&request.body, endpoint) {
                    Ok(req) => self.admit(token, id, req),
                    Err(e) => self.send_error(token, &e),
                }
            }
        }
    }

    /// Admit one parsed simulation request: response cache, then
    /// coalescing, then the bounded queue (or 429).
    fn admit(&mut self, token: u64, id: u64, req: SimRequest) {
        let shared = self.shared.clone();
        let key = req.canonical_bytes();

        if shared.cfg.response_cache > 0 {
            let hit = shared.response_cache.lock().expect("response cache poisoned").get(&key);
            match hit {
                Some(report) => {
                    shared.metrics.cache_hits.inc();
                    if let Some(t) = self.conns.get_mut(&token).and_then(|conn| conn.trace.as_mut())
                    {
                        t.cache = "response";
                    }
                    let body = envelope(&report, "response", &shared);
                    self.send(token, 200, "application/json", &[], &body);
                    return;
                }
                None => shared.metrics.cache_misses.inc(),
            }
        }

        {
            let mut coalesce = shared.coalesce.lock().expect("coalesce poisoned");
            if let Some(waiters) = coalesce.get_mut(&key) {
                waiters.push(token);
                drop(coalesce);
                shared.metrics.inflight_requests.inc();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.busy = true;
                }
                return;
            }
        }

        let timeout_ms = req.timeout_ms.or(shared.cfg.default_timeout_ms);
        let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if queue.len() >= shared.cfg.queue_cap || shared.draining.load(Ordering::SeqCst) {
            drop(queue);
            self.send_error(token, &MelreqError::Overload { retry_after_s: RETRY_AFTER_S });
            return;
        }
        // Publish the coalescing entry before the job becomes visible:
        // a worker finishing the job resolves the entry, so it must
        // exist first.
        shared.coalesce.lock().expect("coalesce poisoned").insert(key.clone(), Vec::new());
        queue.push_back(Job { token, id, key, req, deadline, queued_at: Instant::now() });
        shared.jobs_outstanding.fetch_add(1, Ordering::SeqCst);
        shared.metrics.queue_depth.set(i64::try_from(queue.len()).unwrap_or(i64::MAX));
        shared.metrics.inflight_requests.inc();
        drop(queue);
        shared.cond.notify_one();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.busy = true;
        }
    }

    /// Deliver every pending worker completion, then let the affected
    /// connections resume parsing pipelined input.
    fn drain_completions(&mut self) {
        loop {
            let completion =
                self.shared.completions.lock().expect("completions poisoned").pop_front();
            let Some(c) = completion else { break };
            self.shared.metrics.inflight_requests.dec();
            if self.conns.contains_key(&c.token) {
                if let Some(conn) = self.conns.get_mut(&c.token) {
                    conn.busy = false;
                    if let Some(t) = conn.trace.as_mut() {
                        t.cache = c.cache;
                        for (mine, workers) in t.stages.iter_mut().zip(c.stages) {
                            *mine += workers;
                        }
                    }
                }
                self.send(c.token, c.status, "application/json", &[], &c.body);
                self.advance(c.token);
            }
        }
    }

    fn sweep_idle(&mut self) {
        if self.shared.cfg.idle_timeout_ms == 0 {
            return;
        }
        let idle = Duration::from_millis(self.shared.cfg.idle_timeout_ms);
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.busy && c.wbuf.is_empty() && now.duration_since(c.last_activity) >= idle
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.close_conn(token);
        }
    }

    fn send_error(&mut self, token: u64, err: &MelreqError) {
        let (status, body) = error_response(err, &self.shared.metrics);
        let retry_after = match err {
            MelreqError::Overload { retry_after_s } => {
                vec![("Retry-After", retry_after_s.to_string())]
            }
            _ => Vec::new(),
        };
        self.send(token, status, "application/json", &retry_after, &body);
    }

    /// Queue a response on the connection and flush what the socket
    /// accepts. The `Connection` header honors the request's
    /// keep-alive/close choice; during a drain every response closes.
    fn send(
        &mut self,
        token: u64,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &str,
    ) {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if let Some(t) = conn.trace.as_mut() {
            if t.sent_at.is_none() {
                t.sent_at = Some(Instant::now());
                t.status = status;
            }
        }
        let close = conn.close_requested || draining;
        self.shared.metrics.count_response(status);
        conn.wbuf.extend_from_slice(&http::response_bytes(
            status,
            content_type,
            extra_headers,
            body,
            close,
        ));
        if close {
            conn.close_after_write = true;
        }
        self.flush(token);
    }

    /// Like [`EventLoop::send`] but always closes afterwards (protocol
    /// errors poison the parse state).
    fn send_close(
        &mut self,
        token: u64,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &str,
    ) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.close_requested = true;
        }
        self.send(token, status, content_type, extra_headers, body);
    }

    fn flush(&mut self, token: u64) {
        let (outcome, finished) = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let mut outcome = FlushOutcome::Flushed;
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        outcome = FlushOutcome::Dead;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        outcome = FlushOutcome::Pending;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        outcome = FlushOutcome::Dead;
                        break;
                    }
                }
            }
            let mut finished = None;
            if matches!(outcome, FlushOutcome::Flushed) {
                conn.wbuf.clear();
                conn.wpos = 0;
                // The traced response (if any) has fully left the
                // process — settle its lifecycle record. `sent_at` set
                // distinguishes answered requests from one still with
                // the worker pool.
                if conn.trace.as_ref().is_some_and(|t| t.sent_at.is_some()) {
                    finished = conn.trace.take();
                }
                if conn.close_after_write {
                    outcome = FlushOutcome::Dead;
                }
            }
            (outcome, finished)
        };
        if let Some(trace) = finished {
            self.finalize_request(trace);
        }
        match outcome {
            FlushOutcome::Dead => self.close_conn(token),
            FlushOutcome::Pending => self.set_write_interest(token, true),
            FlushOutcome::Flushed => self.set_write_interest(token, false),
        }
    }

    /// A traced request's response bytes are on the wire: observe the
    /// request and per-stage latency histograms, emit the profiler's
    /// lifecycle spans, and write the access-log line.
    fn finalize_request(&mut self, mut t: ReqTrace) {
        let now = Instant::now();
        let sent_at = t.sent_at.unwrap_or(now);
        t.stages[FLUSH] = now.duration_since(sent_at);
        let total = now.duration_since(t.start);
        let m = &self.shared.metrics;
        m.request_duration.observe(total.as_secs_f64());
        for (histogram, took) in m.stage_durations.iter().zip(t.stages) {
            histogram.observe(took.as_secs_f64());
        }
        if melreq_prof::enabled() {
            // The two stages this thread timed itself; a worker recorded
            // the other three on its own track.
            stage_record(PARSE, t.id, t.start, t.stages[PARSE]);
            stage_record(FLUSH, t.id, sent_at, t.stages[FLUSH]);
            melreq_prof::record(
                "serve.request",
                || format!("{} #{}", t.endpoint, t.id),
                melreq_prof::ns_of(t.start),
                melreq_prof::ns_of(now),
                &[("id", t.id), ("status", u64::from(t.status))],
            );
        }
        if let Some(log) = self.access_log.as_mut() {
            let mut line = format!(
                "{{\"id\":{},\"endpoint\":\"{}\",\"status\":{},\"cache\":\"{}\"",
                t.id, t.endpoint, t.status, t.cache
            );
            for (stage, took) in t.stages.into_iter().enumerate() {
                let _ = write!(line, ",\"{}_us\":{}", stage_label(stage), took.as_micros());
            }
            let _ = writeln!(line, ",\"total_us\":{}}}", total.as_micros());
            let _ = log.write_all(line.as_bytes());
        }
    }

    fn set_write_interest(&mut self, token: u64, on: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.want_write == on {
            return;
        }
        conn.want_write = on;
        let interest = if on { Interest::ReadWrite } else { Interest::Read };
        let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.shared.metrics.open_connections.dec();
        }
    }
}

fn parse_sim_request(body: &str, endpoint: &str) -> Result<SimRequest, MelreqError> {
    let req = SimRequest::from_json(body)?;
    if endpoint == "run" && req.policies.len() != 1 {
        return Err(MelreqError::Usage(format!(
            "/run takes exactly one policy (got {}); POST policy sets to /compare",
            req.policies.len()
        )));
    }
    Ok(req)
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    melreq_prof::set_thread_track(|| format!("serve-worker-{idx}"));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.queue_depth.set(i64::try_from(queue.len()).unwrap_or(i64::MAX));
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .cond
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue poisoned");
                queue = guard;
            }
        };
        let Some(job) = job else { break };
        execute_job(job, shared, |req, ctl| shared.session.run(req, ctl));
    }
    // Thread join does not wait for TLS destructors; flush the span
    // recorder explicitly so a post-join drain sees this worker.
    melreq_prof::flush_thread();
}

/// Run one job (`run` is [`Session::run`]; the containment test passes a
/// closure that panics), resolve its coalescing entry, and publish a
/// completion for the leader plus every coalesced follower. A run that
/// panics is answered like any other failed run — a 500 naming the
/// request — so no request can take its worker, its followers or the
/// drain barrier down with it. No lock is held across `run`.
fn execute_job(
    job: Job,
    shared: &Shared,
    run: impl FnOnce(&SimRequest, &RunControl) -> Result<SimReport, MelreqError>,
) {
    let Job { token, id, key, req, deadline, queued_at } = job;
    let mut stages = StageTimes::default();
    stages[QUEUE] = queued_at.elapsed();
    stage_record(QUEUE, id, queued_at, stages[QUEUE]);
    // A deadline that expired while the job sat in the queue is still a
    // timeout — the simulation is simply never started.
    let outcome: Result<(Arc<String>, &'static str), MelreqError> =
        if deadline.is_some_and(|d| Instant::now() >= d) {
            Err(MelreqError::Timeout(
                "request deadline expired while queued; the run was not started".to_string(),
            ))
        } else {
            let ctl = RunControl {
                cancel: deadline.map(CancelToken::with_deadline),
                max_cycles: None,
                threads: None,
            };
            let exec_started = Instant::now();
            let ran = {
                let _sp = stage_span(EXECUTE, id);
                catch_unwind(AssertUnwindSafe(|| run(&req, &ctl))).unwrap_or_else(|payload| {
                    shared.metrics.worker_panics.inc();
                    let what = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("a non-string panic payload");
                    Err(MelreqError::Divergence(format!("request #{id} panicked: {what}")))
                })
            };
            stages[EXECUTE] = exec_started.elapsed();
            ran.map(|report| {
                let cycles = report.policies.iter().map(|p| p.result.sim_cycles);
                shared.metrics.sim_cycles.add(cycles.fold(0, u64::saturating_add));
                shared.metrics.simulations.inc();
                let cache_status = if report.all_warm() {
                    "warm"
                } else if report.any_warm() {
                    "partial"
                } else {
                    "cold"
                };
                let render_started = Instant::now();
                let report_json = {
                    let _sp = stage_span(RENDER, id);
                    Arc::new(report.to_json())
                };
                stages[RENDER] = render_started.elapsed();
                if shared.cfg.response_cache > 0 {
                    let evicted = shared
                        .response_cache
                        .lock()
                        .expect("response cache poisoned")
                        .insert(key.clone(), report_json.clone());
                    if evicted > 0 {
                        shared.metrics.cache_evictions.add(evicted);
                    }
                }
                (report_json, cache_status)
            })
        };

    // Resolve the coalescing entry before publishing: requests arriving
    // after this point either hit the response cache or start a fresh
    // run — they can no longer join this one.
    let waiters =
        shared.coalesce.lock().expect("coalesce poisoned").remove(&key).unwrap_or_default();

    let (status, body, cache) = match &outcome {
        Ok((report_json, cache_status)) => {
            (200, envelope(report_json, cache_status, shared), *cache_status)
        }
        Err(err) => {
            let (status, body) = error_response(err, &shared.metrics);
            (status, body, "none")
        }
    };
    let mut batch = vec![Completion { token, status, body, cache, stages }];
    if !waiters.is_empty() {
        // A follower of a failed run is told what its leader is told; a
        // follower of a successful one gets the same report bytes, marked
        // coalesced, with no stage time of its own.
        let mut follower = batch[0].clone();
        if let Ok((report_json, _)) = &outcome {
            shared.metrics.coalesced.add(waiters.len() as u64);
            follower.body = envelope(report_json, "coalesced", shared);
            follower.cache = "coalesced";
            follower.stages = StageTimes::default();
        }
        batch.extend(waiters.into_iter().map(|token| Completion { token, ..follower.clone() }));
    }
    shared.completions.lock().expect("completions poisoned").extend(batch);
    shared.jobs_outstanding.fetch_sub(1, Ordering::SeqCst);
    shared.waker.wake();
}

/// The response envelope: provenance fields first, the deterministic
/// report verbatim last — `"report":` up to the final `}` is exactly
/// [`melreq_core::api::SimReport::to_json`]'s bytes.
fn envelope(report_json: &str, cache: &str, shared: &Shared) -> String {
    let store = match shared.session.store() {
        Some(store) => {
            let s = store.stats();
            format!(
                "{{\"warmup_hits\":{},\"warmup_misses\":{},\"profile_hits\":{},\"profile_misses\":{}}}",
                s.warmup_hits, s.warmup_misses, s.profile_hits, s.profile_misses
            )
        }
        None => "null".to_string(),
    };
    format!("{{\"cache\":\"{cache}\",\"store\":{store},\"report\":{report_json}}}")
}

/// The status and body that answer a failed request, and the only place
/// such a failure is counted: `melreq_timeouts_total`,
/// `melreq_rejected_total`.
fn error_response(err: &MelreqError, metrics: &Metrics) -> (u16, String) {
    match err {
        MelreqError::Timeout(_) => metrics.timeouts.inc(),
        MelreqError::Overload { .. } => metrics.rejected.inc(),
        _ => {}
    }
    let status = err.http_status();
    (status, error_body(status, err.kind(), &err.to_string()))
}

fn error_body(status: u16, kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"status\":{status},\"kind\":\"{kind}\",\"message\":\"{}\",\"schema_version\":{SCHEMA_VERSION}}}}}",
        esc(message)
    )
}

mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }
}

/// Install a SIGTERM handler that begins a graceful drain of every
/// server in this process (the event loop polls the flag). The handler
/// is process-global — the embedding tests use
/// [`ServerHandle::shutdown`] / `POST /shutdown` instead.
pub fn install_sigterm() {
    sig::install();
}

fn sigterm_received() -> bool {
    sig::TERM.load(Ordering::SeqCst)
}

/// Split a server response body into `(envelope_prefix, report_bytes)`:
/// everything before `"report":`, and the report JSON itself (the
/// envelope's trailing `}` removed). Shared by the golden tests and
/// `melreq client`.
pub fn split_envelope(body: &str) -> Option<(&str, &str)> {
    let marker = "\"report\":";
    let at = body.find(marker)?;
    let report = &body[at + marker.len()..];
    let report = report.strip_suffix('}')?;
    Some((&body[..at], report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_core::api::PolicyKind;
    use melreq_core::experiment::ExperimentOptions;

    /// What the event loop leaves behind when it admits request `id` as the
    /// leader (token 10) of `followers`: the coalescing entry and the job.
    fn admit(shared: &Shared, req: &SimRequest, id: u64, followers: Vec<u64>) -> Job {
        let key = req.canonical_bytes();
        shared.coalesce.lock().unwrap().insert(key.clone(), followers);
        shared.jobs_outstanding.fetch_add(1, Ordering::SeqCst);
        Job { token: 10, id, key, req: req.clone(), deadline: None, queued_at: Instant::now() }
    }

    fn published(shared: &Shared) -> Vec<Completion> {
        shared.completions.lock().unwrap().drain(..).collect()
    }

    fn quick_request() -> SimRequest {
        SimRequest::new("2MEM-1").policy(PolicyKind::MeLreq).opts(ExperimentOptions::quick())
    }

    #[test]
    fn a_panicking_run_answers_500_to_everyone_waiting_and_the_worker_serves_the_next_job() {
        let (_waker, wake_handle) = poll::wake_pair().expect("wake pipe");
        let shared =
            Shared::new(ServeConfig::default(), Session::new(), Metrics::new(), wake_handle);
        let req = quick_request();

        execute_job(admit(&shared, &req, 7, vec![11, 12]), &shared, |_, _| {
            panic!("boom at decision 3")
        });
        let answers = published(&shared);
        assert_eq!(answers.iter().map(|c| c.token).collect::<Vec<_>>(), [10, 11, 12]);
        for c in &answers {
            assert_eq!(c.status, 500, "{}", c.body);
            assert!(c.body.contains("request #7 panicked: boom at decision 3"), "{}", c.body);
        }
        assert_eq!(shared.metrics.worker_panics.get(), 1);
        assert!(shared.coalesce.lock().unwrap().is_empty(), "the entry must be resolved");
        assert_eq!(shared.jobs_outstanding.load(Ordering::SeqCst), 0, "or a drain never ends");

        // Same thread, same shared state, next job: a real run.
        execute_job(admit(&shared, &req, 8, vec![]), &shared, |req, ctl| {
            shared.session.run(req, ctl)
        });
        let answers = published(&shared);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].status, 200, "{}", answers[0].body);
        assert_eq!(shared.metrics.worker_panics.get(), 1);
        assert_eq!(shared.jobs_outstanding.load(Ordering::SeqCst), 0);
    }

    /// The server's store keeps a boundary and its op tapes between
    /// requests, so a run can now die with state in hand that the next
    /// request on that mix will use: it must find it usable, and answer
    /// with the bytes a storeless run gives. (A run that dies *inside* a
    /// tape's generator poisons the tape; `melreq_core`'s experiment tests
    /// cover the store dropping such an entry for the disk record. Here,
    /// not in `tests/service.rs`: only `execute_job` can be handed a run
    /// that panics — no request body makes one.)
    #[test]
    fn a_run_that_panics_on_a_resident_boundary_leaves_it_usable_for_the_next_request() {
        use melreq_core::experiment::{run_tapped, Measured, Taps};
        let dir = std::env::temp_dir().join(format!("melreq-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CheckpointStore::open_resident(&dir).expect("store"));
        let (_waker, wake_handle) = poll::wake_pair().expect("wake pipe");
        let session = Session::with_store(store.clone());
        let shared = Shared::new(ServeConfig::default(), session, Metrics::new(), wake_handle);
        let req = quick_request();
        let want = Session::new().run(&req, &RunControl::default()).expect("storeless").to_json();
        let serve = |id: u64| {
            execute_job(admit(&shared, &req, id, vec![]), &shared, |req, ctl| {
                shared.session.run(req, ctl)
            });
            published(&shared).pop().expect("one answer")
        };
        // First use simulates and keeps the boundary, the second records
        // its tapes; the third has restored it and reads them when its
        // policy blows up.
        assert_eq!((serve(1).status, serve(2).status), (200, 200));
        execute_job(admit(&shared, &req, 3, vec![]), &shared, |req, ctl| {
            let mix = melreq_core::api::resolve_mix(&req.mix)?;
            let build = |_: &[f64], _: usize, _: u64| panic!("policy bug on {}", mix.name);
            let doomed = Measured::Custom { name: "DOOMED", build: &build };
            let (cache, taps) = (shared.session.cache(), Taps::default());
            run_tapped(&mix, doomed, &req.opts, cache, Some(&store), ctl, taps);
            unreachable!("the policy's constructor panics")
        });
        let answer = published(&shared).pop().expect("one answer");
        assert_eq!(answer.status, 500, "{}", answer.body);
        assert!(
            answer.body.contains("request #3 panicked: policy bug on 2MEM-1"),
            "{}",
            answer.body
        );

        let next = serve(4);
        assert_eq!(next.status, 200, "{}", next.body);
        assert_eq!(split_envelope(&next.body).expect("an envelope").1, want);
        assert_eq!(shared.metrics.worker_panics.get(), 1);
        let st = store.stats();
        assert_eq!((st.warmup_misses, st.resident_hits), (1, 3), "memory answered 2, 3 and 4");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
