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
//! simulations themselves run on worker threads: the loop is the seeder
//! of a [`melreq_exec`] job pool, a `/compare` forks its policy windows
//! onto that same pool (so `workers` bounds every simulation thread), and
//! each request's last job hands its one outcome (a rendered report or an
//! error) back through a completion queue and a pipe-based waker. The
//! loop owns every answer: the response cache, the in-flight registry and
//! request ids are its own state, behind no lock.
//!
//! Robustness model:
//!
//! * **Backpressure** — at most `queue_cap` jobs wait for a worker; one
//!   more answers `429 Too Many Requests` with `Retry-After` instead of
//!   wedging.
//! * **Deadlines** — per-request wall-clock budgets (`timeout_ms`, or
//!   the server default); expired runs are cancelled cooperatively at a
//!   simulation epoch boundary, single-core profiling included, and
//!   answer `504`.
//! * **Caching + coalescing** — an opt-in LRU response cache keyed by
//!   the canonical schema-versioned request bytes
//!   ([`SimRequest::canonical_bytes`]) answers repeats without touching
//!   the pool (`"cache":"response"`), and identical requests arriving
//!   before the loop has answered the first coalesce onto its simulation,
//!   every follower receiving the same report bytes
//!   (`"cache":"coalesced"`) or the same error. With the cache on,
//!   the event loop memoizes each body's canonical key per endpoint, so
//!   a repeated body finds its entry without being decoded again.
//! * **Graceful drain** — SIGTERM (via [`install_sigterm`]), POST
//!   `/shutdown`, or [`ServerHandle::shutdown`] stop accepting, finish
//!   every admitted job, flush every response, and only then let the
//!   process exit.
//! * **Introspection** — `GET /healthz` and Prometheus text metrics on
//!   `GET /metrics` (request/response/rejection/timeout counters, queue
//!   depth and in-flight gauges, connection and cache/coalescing
//!   counters, simulated cycles, checkpoint-store statistics). The loop
//!   keeps every count as a plain field, reads each gauge from the state
//!   it describes, and renders the page itself.

#[cfg(not(target_os = "linux"))]
compile_error!("melreq-serve is Linux-only: its event loop is built on epoll");

pub mod http;
pub mod poll;

use melreq_core::api::json::esc;
use melreq_core::api::{Done, MelreqError, Session, SimReport, SimRequest, SCHEMA_VERSION};
use melreq_core::experiment::RunControl;
use melreq_core::store::CheckpointStore;
use melreq_core::system::CancelToken;
use melreq_exec::Scope;
use poll::{Interest, Poller, WakeHandle, Waker};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// One admitted simulation, owned by a pool job. It names no connection:
/// the event loop keeps who waits on `key`.
struct Job {
    /// Request id (monotonically assigned at dispatch) — threads the
    /// leader's lifecycle trace through the worker.
    id: u64,
    /// Canonical identity bytes ([`SimRequest::canonical_bytes`]) — the
    /// coalescing and response-cache key.
    key: String,
    req: SimRequest,
    deadline: Option<Instant>,
    /// When the job was admitted to the pool (queue-wait timing).
    queued_at: Instant,
}

/// A finished job, handed from a worker back to the event loop: the
/// rendered report and its cache disposition ("cold"/"warm"/"partial"),
/// or the error. The worker's stage durations ride along for the leader's
/// request trace; followers did no work of their own and carry none. So do
/// the worker's counts, which the loop adds before it answers anyone.
struct Completion {
    key: String,
    outcome: Result<(Arc<String>, &'static str), MelreqError>,
    stages: StageTimes,
    /// Cycles the run simulated (0 unless it reported).
    sim_cycles: u64,
    /// The run panicked (its outcome is the error that says so).
    panicked: bool,
}

/// What `/metrics` counts, kept by the event loop alone: a worker's
/// counts arrive on its [`Completion`]. It holds no gauge: the page reads
/// each gauge from the state it describes.
#[derive(Default)]
struct Counts {
    /// Indexed like [`ENDPOINTS`].
    requests: [u64; ENDPOINTS.len()],
    /// Indexed like [`http::STATUSES`].
    responses: [u64; http::STATUSES.len()],
    rejected: u64,
    timeouts: u64,
    connections: u64,
    sim_cycles: u64,
    simulations: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    coalesced: u64,
    worker_panics: u64,
    request_duration: Latency,
    /// Indexed like [`STAGES`].
    stage_durations: [Latency; STAGES.len()],
}

/// A latency histogram over [`LATENCY_BUCKETS`]: per-bucket counts, and
/// the total `count` (which includes what no bound takes).
#[derive(Default)]
struct Latency {
    buckets: [u64; LATENCY_BUCKETS.len()],
    sum: f64,
    count: u64,
}

impl Latency {
    fn observe(&mut self, took: Duration) {
        let secs = took.as_secs_f64();
        if let Some(i) = LATENCY_BUCKETS.iter().position(|bound| secs <= *bound) {
            self.buckets[i] += 1;
        }
        self.sum += secs;
        self.count += 1;
    }

    /// Append the cumulative `_bucket` samples, `le="+Inf"` (equal to
    /// `_count`) last, then `_sum` and `_count`, each labelled `label` (such
    /// as `stage="parse"`) if not empty. An `f64` displays an integral
    /// value without a fraction (`1`, not `1.0`) and any other in full.
    fn render(&self, out: &mut String, family: &str, label: &str) {
        let sep = if label.is_empty() { "" } else { "," };
        let braced = if label.is_empty() { String::new() } else { format!("{{{label}}}") };
        let mut cumulative = 0;
        for (bound, n) in LATENCY_BUCKETS.iter().zip(self.buckets) {
            cumulative += n;
            let _ = writeln!(out, "{family}_bucket{{{label}{sep}le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{family}_bucket{{{label}{sep}le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{family}_sum{braced} {}", self.sum);
        let _ = writeln!(out, "{family}_count{braced} {}", self.count);
    }
}

/// Append a metric family's `# HELP` and `# TYPE` lines.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
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

/// The event loop's memo of (simulation endpoint, raw body) → canonical
/// key, so a repeated body probes the response cache without a JSON
/// decode. It holds only bodies that parsed at that endpoint: one body can
/// be a valid `/compare` and an invalid `/run`. It caches a pure function,
/// so dropping every entry is always safe, and that is how it stays within
/// its bounds: `cap` entries (the response cache's capacity; 0 keeps
/// nothing) and [`MAX_BODY`] bytes of bodies and keys.
struct KeyMemo {
    cap: usize,
    len: usize,
    bytes: usize,
    by_endpoint: BTreeMap<&'static str, BTreeMap<String, String>>,
}

impl KeyMemo {
    fn new(cap: usize) -> Self {
        KeyMemo { cap, len: 0, bytes: 0, by_endpoint: BTreeMap::new() }
    }

    fn get(&self, endpoint: &str, body: &str) -> Option<&str> {
        self.by_endpoint.get(endpoint)?.get(body).map(String::as_str)
    }

    fn insert(&mut self, endpoint: &'static str, body: &str, key: &str) {
        let size = body.len() + key.len();
        if self.cap == 0 || size > MAX_BODY || self.get(endpoint, body).is_some() {
            return;
        }
        if self.len == self.cap || self.bytes + size > MAX_BODY {
            *self = KeyMemo::new(self.cap);
        }
        self.by_endpoint.entry(endpoint).or_default().insert(body.to_string(), key.to_string());
        self.len += 1;
        self.bytes += size;
    }
}

/// What the event loop and the workers both read.
struct Shared {
    cfg: ServeConfig,
    session: Session,
    draining: AtomicBool,
    /// Jobs admitted to the pool and not yet started (`melreq_queue_depth`):
    /// admission raises it, a job's start lowers it. `Relaxed`: it
    /// publishes no other data.
    queued: AtomicUsize,
    /// Finished jobs awaiting delivery by the event loop.
    completions: Mutex<VecDeque<Completion>>,
    waker: WakeHandle,
}

impl Shared {
    fn new(cfg: ServeConfig, session: Session, waker: WakeHandle) -> Self {
        let (draining, queued) = (AtomicBool::new(false), AtomicUsize::new(0));
        let completions = Mutex::new(VecDeque::new());
        Shared { cfg, session, draining, queued, completions, waker }
    }
}

/// The completion queue stays whole when a holder of its lock panics
/// (each critical section is one push or pop on a std collection), so a
/// poisoned lock is taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server: bound address plus the thread that owns its event
/// loop and, through the loop's job pool, its workers. Dropping the
/// handle without [`ServerHandle::join`] leaves them running for the life
/// of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: std::thread::JoinHandle<()>,
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
        self.shared.waker.wake();
    }

    /// Wait for the event loop and every worker to exit (all admitted
    /// work is answered and flushed once this returns).
    pub fn join(self) {
        let _ = self.event_loop.join();
    }
}

/// Bind, spawn the event loop (which runs the worker pool), and return.
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

    let mut poller = Poller::new().map_err(|e| MelreqError::Io(format!("poller: {e}")))?;
    let (waker, wake_handle) =
        poll::wake_pair().map_err(|e| MelreqError::Io(format!("wake pipe: {e}")))?;
    poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)
        .map_err(|e| MelreqError::Io(format!("register listener: {e}")))?;
    poller
        .add(waker.fd(), WAKER_TOKEN, Interest::Read)
        .map_err(|e| MelreqError::Io(format!("register waker: {e}")))?;

    let shared = Arc::new(Shared::new(cfg.clone(), session, wake_handle));

    let access_log =
        match &cfg.access_log {
            Some(path) => {
                Some(std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(
                    |e| MelreqError::Io(format!("open access log {}: {e}", path.display())),
                )?)
            }
            None => None,
        };

    let loop_shared = shared.clone();
    let event_loop = std::thread::Builder::new()
        .name("melreq-netio".to_string())
        .spawn(move || {
            // The loop seeds the pool; once it returns drained, the scope
            // joins the workers. Every job borrows `Shared` from here.
            let shared = &*loop_shared;
            melreq_exec::run_scope(cfg.workers.max(1), |scope| {
                let state = EventLoop {
                    scope,
                    shared,
                    poller,
                    waker,
                    listener: Some(listener),
                    conns: BTreeMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    next_request_id: 0,
                    access_log,
                    cache: ResponseCache::new(cfg.response_cache),
                    memo: KeyMemo::new(cfg.response_cache),
                    inflight: BTreeMap::new(),
                    counts: Counts::default(),
                };
                state.run();
            });
        })
        .expect("spawn event-loop thread");
    Ok(ServerHandle { addr, shared, event_loop })
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
    /// When parsing of this request began (the request's time zero). Its
    /// parse stage ends once the body is decoded: by a memo lookup, or by
    /// a JSON parse and a canonical key.
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
    fn new(id: u64, endpoint: &'static str, start: Instant) -> Self {
        let stages = StageTimes::default();
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

struct EventLoop<'s, 'env> {
    /// The job pool this loop seeds: one root job per admitted request.
    scope: &'s Scope<'s, 'env>,
    shared: &'env Shared,
    poller: Poller,
    waker: Waker,
    listener: Option<TcpListener>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Last `/run`//`compare` request id handed out (ids start at 1; 0
    /// never appears in a log line).
    next_request_id: u64,
    /// Open `--access-log` sink (append mode); one JSON line per
    /// finalized simulation request.
    access_log: Option<std::fs::File>,
    cache: ResponseCache,
    memo: KeyMemo,
    /// Canonical key → tokens of the connections waiting on its job,
    /// leader first. An entry lives from the job's admission until the
    /// loop answers its completion, so an empty map means every
    /// completion has been delivered.
    inflight: BTreeMap<String, Vec<u64>>,
    counts: Counts,
}

impl EventLoop<'_, '_> {
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
        // Thread join does not wait for TLS destructors; flush the span
        // recorder explicitly so a post-join drain sees this thread.
        melreq_prof::flush_thread();
    }

    /// Idempotent drain entry: stop accepting, drop connections with
    /// nothing pending.
    fn begin_drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
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
        self.inflight.is_empty() && self.conns.values().all(|c| c.wbuf.is_empty())
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
                    self.counts.connections += 1;
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
                        // A short read took all there was. Epoll is
                        // level-triggered, so bytes that arrive later, or
                        // the FIN, are reported again on the next wait: no
                        // read that can only answer `WouldBlock`.
                        dead = conn.rbuf.len() > MAX_CONN_BUF;
                        if dead || n < chunk.len() {
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
                    conn.rbuf.drain(..consumed);
                    if request.close {
                        conn.close_requested = true;
                    }
                    self.dispatch(token, &request, parse_started);
                }
                Err(e) => {
                    // Where the next request starts is not known: close.
                    conn.close_requested = true;
                    let body = error_body(400, "usage", &format!("bad request: {e}"));
                    self.send(token, 400, "application/json", &[], &[&body]);
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

    fn dispatch(&mut self, token: u64, request: &http::HttpRequest, started: Instant) {
        let shared = self.shared;
        let Some(at) = ENDPOINTS.iter().position(|(_, path, _)| *path == request.path) else {
            let body = error_body(404, "usage", &format!("unknown endpoint '{}'", request.path));
            return self.send(token, 404, "application/json", &[], &[&body]);
        };
        let (method, _, endpoint) = ENDPOINTS[at];
        if request.method != method {
            let body = error_body(405, "usage", "method not allowed");
            return self.send(token, 405, "application/json", &[], &[&body]);
        }
        self.counts.requests[at] += 1;
        match endpoint {
            "healthz" => {
                let body = format!(
                    "{{\"status\":\"ok\",\"schema_version\":{SCHEMA_VERSION},\"queue_depth\":{}}}",
                    shared.queued.load(Ordering::Relaxed)
                );
                self.send(token, 200, "application/json", &[], &[&body]);
            }
            "metrics" => {
                let body = self.render_metrics();
                self.send(token, 200, "text/plain; version=0.0.4", &[], &[&body]);
            }
            "shutdown" => {
                shared.draining.store(true, Ordering::SeqCst);
                self.send(token, 200, "application/json", &[], &["{\"status\":\"draining\"}"]);
                self.begin_drain();
            }
            "buildinfo" => {
                let body = buildinfo_json(&shared.cfg);
                self.send(token, 200, "application/json", &[], &[&body]);
            }
            "policies" => {
                let body = format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"policies\":{}}}",
                    melreq_core::api::registry_json()
                );
                self.send(token, 200, "application/json", &[], &[&body]);
            }
            _ => {
                self.next_request_id += 1;
                let id = self.next_request_id;
                // Replacing a not-yet-finalized trace (possible only
                // when a pipelined response is still flushing) settles
                // the old one now rather than losing it.
                let prev = self
                    .conns
                    .get_mut(&token)
                    .and_then(|conn| conn.trace.replace(ReqTrace::new(id, endpoint, started)));
                if let Some(t) = prev.filter(|t| t.sent_at.is_some()) {
                    self.finalize_request(t);
                }
                self.admit(token, id, endpoint, &request.body);
            }
        }
    }

    /// Admit one simulation request body: response cache, then
    /// coalescing, then the pool's queue (or 429 once `queue_cap` jobs
    /// wait there). A body whose key is memoized and cached is answered
    /// without being decoded; any other is parsed, and its key memoized.
    fn admit(&mut self, token: u64, id: u64, endpoint: &'static str, body: &str) {
        let shared = self.shared;
        let probe = self.memo.get(endpoint, body).map(|key| (Instant::now(), self.cache.get(key)));
        if let Some((parsed, Some(report))) = probe {
            self.end_parse(token, parsed);
            return self.answer_hit(token, parsed, &report);
        }
        let parsed = parse_sim_request(body, endpoint).map(|req| {
            let key = req.canonical_bytes();
            (req, key)
        });
        let parse_end = Instant::now();
        self.end_parse(token, parse_end);
        let (req, key) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return self.send_error(token, &e),
        };

        if shared.cfg.response_cache > 0 {
            self.memo.insert(endpoint, body, &key);
            match self.cache.get(&key) {
                Some(report) => return self.answer_hit(token, parse_end, &report),
                None => self.counts.cache_misses += 1,
            }
        }

        if let Some(waiting) = self.inflight.get_mut(&key) {
            waiting.push(token);
        } else {
            // Only this thread raises the depth, so the bound cannot be
            // overrun between the check and the increment.
            let queued = shared.queued.load(Ordering::Relaxed);
            if queued >= shared.cfg.queue_cap || shared.draining.load(Ordering::SeqCst) {
                return self
                    .send_error(token, &MelreqError::Overload { retry_after_s: RETRY_AFTER_S });
            }
            let timeout_ms = req.timeout_ms.or(shared.cfg.default_timeout_ms);
            let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            self.inflight.insert(key.clone(), vec![token]);
            shared.queued.fetch_add(1, Ordering::Relaxed);
            let job = Job { id, key, req, deadline, queued_at: Instant::now() };
            // One priority for every job: the pool starts them in
            // admission order.
            self.scope.submit(0, move |ctx| {
                execute_job(job, shared, |req, ctl, done| {
                    shared.session.run_on(req, ctl, &ctx, done);
                });
            });
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.busy = true;
        }
    }

    /// The parse stage of the request on `token` ended at `at`.
    fn end_parse(&mut self, token: u64, at: Instant) {
        if let Some(t) = self.conns.get_mut(&token).and_then(|conn| conn.trace.as_mut()) {
            t.stages[PARSE] = at.duration_since(t.start);
        }
    }

    /// Answer from the response cache. What follows the parse stage, which
    /// ended at `parsed`, up to the answer (the cache probe) is the
    /// request's render stage.
    fn answer_hit(&mut self, token: u64, parsed: Instant, report: &str) {
        self.counts.cache_hits += 1;
        let mut stages = StageTimes::default();
        stages[RENDER] = parsed.elapsed();
        self.answer(token, "response", stages, Ok(report));
    }

    /// Answer the simulation request on `token` with a report, in an
    /// envelope saying `cache`, or with an error's status and body; add
    /// `stages` to its trace.
    fn answer(
        &mut self,
        token: u64,
        cache: &'static str,
        stages: StageTimes,
        body: Result<&str, &(u16, String)>,
    ) {
        if let Some(t) = self.conns.get_mut(&token).and_then(|conn| conn.trace.as_mut()) {
            t.cache = cache;
            for (mine, theirs) in t.stages.iter_mut().zip(stages) {
                *mine += theirs;
            }
        }
        match body {
            Ok(report) => {
                let open = envelope_open(cache, self.shared);
                self.send(token, 200, "application/json", &[], &[&open, report, "}"]);
            }
            Err((status, error)) => self.send(token, *status, "application/json", &[], &[error]),
        }
    }

    /// Deliver every finished job to the connections waiting on its key,
    /// leader first: the worker's counts are added and a report enters the
    /// response cache before anyone is answered, and an error is rendered
    /// (and counted) once. Then let those connections resume parsing
    /// pipelined input.
    fn drain_completions(&mut self) {
        loop {
            let completion = lock(&self.shared.completions).pop_front();
            let Some(Completion { key, outcome, stages, sim_cycles, panicked }) = completion else {
                break;
            };
            let waiting = self.inflight.remove(&key).unwrap_or_default();
            let c = &mut self.counts;
            c.worker_panics += u64::from(panicked);
            c.simulations += u64::from(outcome.is_ok());
            c.sim_cycles = c.sim_cycles.saturating_add(sim_cycles);
            let (leader_cache, body) = match outcome {
                Ok((report, cache)) => {
                    c.coalesced += waiting.len().saturating_sub(1) as u64;
                    // A disabled cache (capacity 0) keeps nothing and evicts 0.
                    c.cache_evictions += self.cache.insert(key, report.clone());
                    (cache, Ok(report))
                }
                Err(err) => ("none", Err(error_response(&err, c))),
            };
            for (i, token) in waiting.into_iter().enumerate() {
                let (cache, stages) = match (i, &body) {
                    (0, _) => (leader_cache, stages),
                    (_, Ok(_)) => ("coalesced", StageTimes::default()),
                    (_, Err(_)) => ("none", StageTimes::default()),
                };
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.busy = false;
                }
                self.answer(token, cache, stages, body.as_ref().map(|report| report.as_str()));
                self.advance(token);
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
        let (status, body) = error_response(err, &mut self.counts);
        let retry_after = match err {
            MelreqError::Overload { retry_after_s } => {
                vec![("Retry-After", retry_after_s.to_string())]
            }
            _ => Vec::new(),
        };
        self.send(token, status, "application/json", &retry_after, &[&body]);
    }

    /// Queue a response, its body the concatenation of `body`'s pieces, on
    /// the connection and flush what the socket accepts. The `Connection`
    /// header honors the request's keep-alive/close choice; during a drain
    /// every response closes.
    fn send(
        &mut self,
        token: u64,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[&str],
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
        if let Some(i) = http::STATUSES.iter().position(|(code, _)| *code == status) {
            self.counts.responses[i] += 1;
        }
        http::write_response(&mut conn.wbuf, status, content_type, extra_headers, body, close);
        if close {
            conn.close_after_write = true;
        }
        self.flush(token);
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
        self.counts.request_duration.observe(total);
        for (latency, took) in self.counts.stage_durations.iter_mut().zip(t.stages) {
            latency.observe(took);
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
        }
    }

    /// The `/metrics` page (Prometheus text format 0.0.4): each family's
    /// `# HELP` and `# TYPE` lines once, its samples below them. Gauges
    /// are read from the state they describe, and a store's statistics
    /// when the page is rendered.
    fn render_metrics(&self) -> String {
        let (c, mut out) = (&self.counts, String::new());
        let name = "melreq_requests_total";
        family(&mut out, name, "counter", "Requests received, by endpoint.");
        for ((_, _, endpoint), n) in ENDPOINTS.iter().zip(c.requests) {
            let _ = writeln!(out, "{name}{{endpoint=\"{endpoint}\"}} {n}");
        }
        let name = "melreq_responses_total";
        family(&mut out, name, "counter", "Responses sent, by status code.");
        for ((code, _), n) in http::STATUSES.iter().zip(c.responses) {
            let _ = writeln!(out, "{name}{{code=\"{code}\"}} {n}");
        }
        let queued = self.shared.queued.load(Ordering::Relaxed) as u64;
        let inflight = self.inflight.values().map(Vec::len).sum::<usize>() as u64;
        #[rustfmt::skip]
        let scalars = [
            ("melreq_rejected_total", "counter", c.rejected,
                "Requests rejected by queue backpressure (429)."),
            ("melreq_timeouts_total", "counter", c.timeouts,
                "Requests that exceeded their wall-clock deadline."),
            ("melreq_queue_depth", "gauge", queued, "Jobs waiting in the bounded queue."),
            ("melreq_inflight_requests", "gauge", inflight,
                "Simulation requests admitted (queued, running, or coalesced) and not yet \
                 answered."),
            ("melreq_open_connections", "gauge", self.conns.len() as u64,
                "Connections currently held by the event loop."),
            ("melreq_connections_total", "counter", c.connections,
                "Connections accepted since start."),
            ("melreq_sim_cycles_total", "counter", c.sim_cycles,
                "Simulated cycles executed on behalf of requests."),
            ("melreq_simulations_total", "counter", c.simulations,
                "Simulations actually executed by the worker pool (cached and coalesced \
                 requests excluded)."),
            ("melreq_serve_cache_hits_total", "counter", c.cache_hits,
                "Requests answered from the response cache."),
            ("melreq_serve_cache_misses_total", "counter", c.cache_misses,
                "Cache-enabled requests that missed the response cache."),
            ("melreq_serve_cache_evictions_total", "counter", c.cache_evictions,
                "Entries evicted from the response cache (LRU, bounded capacity)."),
            ("melreq_serve_coalesced_total", "counter", c.coalesced,
                "Requests coalesced onto an identical in-flight simulation."),
            ("melreq_serve_worker_panics_total", "counter", c.worker_panics,
                "Simulations that panicked; each answered 500 and the worker carried on."),
        ];
        for (name, kind, n, help) in scalars {
            family(&mut out, name, kind, help);
            let _ = writeln!(out, "{name} {n}");
        }
        let name = "melreq_serve_request_duration_seconds";
        let help = "End-to-end simulation request latency: parse start to final flush.";
        family(&mut out, name, "histogram", help);
        c.request_duration.render(&mut out, name, "");
        let name = "melreq_serve_request_stage_duration_seconds";
        family(&mut out, name, "histogram", "Simulation request latency by lifecycle stage.");
        for (stage, latency) in c.stage_durations.iter().enumerate() {
            latency.render(&mut out, name, &format!("stage=\"{}\"", stage_label(stage)));
        }
        if let Some(store) = self.shared.session.store() {
            let s = store.stats();
            for (name, kind, n) in [
                ("melreq_store_warmup_hits_total", "counter", s.warmup_hits),
                ("melreq_store_warmup_misses_total", "counter", s.warmup_misses),
                ("melreq_store_profile_hits_total", "counter", s.profile_hits),
                ("melreq_store_profile_misses_total", "counter", s.profile_misses),
                ("melreq_store_resident_hits_total", "counter", s.resident_hits),
                ("melreq_store_resident_evictions_total", "counter", s.resident_evictions),
                ("melreq_store_resident_bytes", "gauge", s.resident_bytes),
            ] {
                family(&mut out, name, kind, "Checkpoint-store activity since server start.");
                let _ = writeln!(out, "{name} {n}");
            }
        }
        out
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

/// Start one job (`start` is [`Session::run_on`]; the containment tests
/// pass closures that panic) and publish its one completion, from
/// whichever job ends the request. A run that panics fails like any other
/// run — an error naming the request, answered 500 — whether it is caught
/// here or, in a forked window, by the group; a poisoned lock is taken as
/// it is, so nothing unwinds out of here: a job that did would drain the
/// whole pool. No lock is held across `start`.
fn execute_job<'env>(
    job: Job,
    shared: &'env Shared,
    start: impl FnOnce(&SimRequest, &RunControl, Done<'env>),
) {
    let Job { id, key, req, deadline, queued_at } = job;
    shared.queued.fetch_sub(1, Ordering::Relaxed);
    let started = Instant::now();
    stage_record(QUEUE, id, queued_at, started - queued_at);
    let answer = Arc::new(Mutex::new(Some((id, key, queued_at, started))));
    // A deadline that expired while the job sat in the queue is still a
    // timeout — the simulation is simply never started.
    if deadline.is_some_and(|d| started >= d) {
        let expired = "request deadline expired while queued; the run was not started";
        return publish(shared, &answer, Ok(Err(MelreqError::Timeout(expired.to_string()))));
    }
    let ctl = RunControl { cancel: deadline.map(CancelToken::with_deadline), ..Default::default() };
    let mine = Arc::clone(&answer);
    let done = Box::new(move |outcome| publish(shared, &mine, outcome));
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| start(&req, &ctl, done))) {
        publish(shared, &answer, Err(payload));
    }
}

/// Who a job answers — request id, key, admission and start instants —
/// until its one completion is published.
type Answer = Mutex<Option<(u64, String, Instant, Instant)>>;

/// Render `outcome` — a report, an error, or the payload of a run's panic —
/// and publish it as the job's completion, unless one has been published.
fn publish(
    shared: &Shared,
    answer: &Answer,
    outcome: std::thread::Result<Result<SimReport, MelreqError>>,
) {
    let Some((id, key, queued_at, started)) = lock(answer).take() else { return };
    let mut stages = StageTimes::default();
    stages[QUEUE] = started - queued_at;
    stages[EXECUTE] = started.elapsed();
    stage_record(EXECUTE, id, started, stages[EXECUTE]);
    let (panicked, mut sim_cycles) = (outcome.is_err(), 0);
    let outcome = outcome.unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("a non-string panic payload");
        Err(MelreqError::Divergence(format!("request #{id} panicked: {what}")))
    });
    let outcome = outcome.map(|report| {
        let cycles = report.policies.iter().map(|p| p.result.sim_cycles);
        sim_cycles = cycles.fold(0, u64::saturating_add);
        let cache_status = match (report.all_warm(), report.any_warm()) {
            (true, _) => "warm",
            (_, true) => "partial",
            _ => "cold",
        };
        let rendered = Instant::now();
        let report_json = Arc::new(report.to_json());
        stages[RENDER] = rendered.elapsed();
        stage_record(RENDER, id, rendered, stages[RENDER]);
        (report_json, cache_status)
    });
    let completion = Completion { key, outcome, stages, sim_cycles, panicked };
    lock(&shared.completions).push_back(completion);
    shared.waker.wake();
}

/// The envelope up to its report: `{"cache":…,"store":…,"report":`.
fn envelope_open(cache: &str, shared: &Shared) -> String {
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
    format!("{{\"cache\":\"{cache}\",\"store\":{store},\"report\":")
}

/// The status and body that answer a failed request, and the only place
/// such a failure is counted: `melreq_timeouts_total`,
/// `melreq_rejected_total`.
fn error_response(err: &MelreqError, counts: &mut Counts) -> (u16, String) {
    match err {
        MelreqError::Timeout(_) => counts.timeouts += 1,
        MelreqError::Overload { .. } => counts.rejected += 1,
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

    /// What the event loop leaves behind when it admits request `id`: the
    /// queue count and the job.
    fn admit(shared: &Shared, req: &SimRequest, id: u64) -> Job {
        shared.queued.fetch_add(1, Ordering::Relaxed);
        let key = req.canonical_bytes();
        Job { id, key, req: req.clone(), deadline: None, queued_at: Instant::now() }
    }

    /// The one completion the last job published, as its leader is
    /// answered: status, the report bytes or the error's message, and
    /// whether the run panicked.
    fn published(shared: &Shared) -> (u16, String, bool) {
        let mut completions = lock(&shared.completions);
        assert_eq!(completions.len(), 1, "a job publishes exactly one completion");
        let c = completions.pop_front().expect("one completion");
        assert_eq!(c.key, quick_request().canonical_bytes());
        match c.outcome {
            Ok((report, _)) => (200, report.to_string(), c.panicked),
            Err(err) => (err.http_status(), err.to_string(), c.panicked),
        }
    }

    /// Execute `job` as the server does: a root job of a pool (of one
    /// worker here), started by [`Session::run_on`].
    fn serve_job(shared: &Shared, job: Job) {
        melreq_exec::run_scope(1, |scope| {
            scope.submit(0, move |ctx| {
                execute_job(job, shared, |req, ctl, done| {
                    shared.session.run_on(req, ctl, &ctx, done);
                });
            });
        });
    }

    fn quick_request() -> SimRequest {
        SimRequest::new("2MEM-1").policy(PolicyKind::MeLreq).opts(ExperimentOptions::quick())
    }

    /// A latency histogram's lines: cumulative buckets, `+Inf` equal to the
    /// count (it takes what no bound does), the label first in every
    /// sample's labels, and bounds and sum written integral when they are.
    #[test]
    fn a_latency_histogram_renders_cumulative_buckets_its_label_and_its_sum() {
        let mut staged = Latency::default();
        for ms in [0, 250, 500, 2_000, 64_000] {
            staged.observe(Duration::from_millis(ms));
        }
        let mut out = String::new();
        staged.render(&mut out, "t", "stage=\"parse\"");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), LATENCY_BUCKETS.len() + 3, "{out}");
        for (at, want) in [
            (0, "t_bucket{stage=\"parse\",le=\"0.0005\"} 1"),
            (7, "t_bucket{stage=\"parse\",le=\"0.1\"} 1"),
            (8, "t_bucket{stage=\"parse\",le=\"0.25\"} 2"),
            (9, "t_bucket{stage=\"parse\",le=\"0.5\"} 3"),
            (10, "t_bucket{stage=\"parse\",le=\"1\"} 3"),
            (11, "t_bucket{stage=\"parse\",le=\"2.5\"} 4"),
            (15, "t_bucket{stage=\"parse\",le=\"60\"} 4"),
            (16, "t_bucket{stage=\"parse\",le=\"+Inf\"} 5"),
            (17, "t_sum{stage=\"parse\"} 66.75"),
            (18, "t_count{stage=\"parse\"} 5"),
        ] {
            assert_eq!(lines[at], want, "{out}");
        }

        let mut total = Latency::default();
        total.observe(Duration::from_secs(1));
        total.observe(Duration::from_secs(2));
        let mut out = String::new();
        total.render(&mut out, "r", "");
        assert!(out.starts_with("r_bucket{le=\"0.0005\"} 0\n"), "{out}");
        assert!(out.ends_with("r_bucket{le=\"+Inf\"} 2\nr_sum 3\nr_count 2\n"), "{out}");
    }

    /// A panicking run publishes one failed completion, which the event
    /// loop answers 500 to everyone waiting on its key (the fan-out is
    /// `tests/service.rs`'s), and the worker takes the next job.
    #[test]
    fn a_panicking_run_answers_500_to_everyone_waiting_and_the_worker_serves_the_next_job() {
        let (_waker, wake_handle) = poll::wake_pair().expect("wake pipe");
        let shared = Shared::new(ServeConfig::default(), Session::new(), wake_handle);
        let req = quick_request();

        execute_job(admit(&shared, &req, 7), &shared, |_, _, _| panic!("boom at decision 3"));
        let (status, message, panicked) = published(&shared);
        assert_eq!(status, 500, "{message}");
        assert!(message.contains("request #7 panicked: boom at decision 3"), "{message}");
        assert!(panicked);
        assert_eq!(shared.queued.load(Ordering::Relaxed), 0);

        // Same thread, same shared state, next job: a real run.
        serve_job(&shared, admit(&shared, &req, 8));
        let (status, report, panicked) = published(&shared);
        assert_eq!(status, 200, "{report}");
        assert_eq!(report, Session::new().run(&req, &RunControl::default()).unwrap().to_json());
        assert!(!panicked);
    }

    /// A thread that panics while holding a server lock poisons it. The job
    /// path takes such a lock as it is, so the completion is still
    /// published, and the event loop's drain barrier still falls — and no
    /// panic leaves the job to drain the whole pool.
    #[test]
    fn a_poisoned_completions_lock_still_publishes_every_answer() {
        let (_waker, wake_handle) = poll::wake_pair().expect("wake pipe");
        let shared = Shared::new(ServeConfig::default(), Session::new(), wake_handle);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = shared.completions.lock();
                panic!("a panic while holding the completions lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(shared.completions.is_poisoned());

        let req = quick_request();
        serve_job(&shared, admit(&shared, &req, 5));
        let (status, report, _) = published(&shared);
        assert_eq!(status, 200, "{report}");
        assert_eq!(shared.queued.load(Ordering::Relaxed), 0);
    }

    /// The server's store keeps a boundary and its op tapes between
    /// requests, so a job can die between two uses of it: the next request
    /// on that mix must find it usable, and answer with the bytes a
    /// storeless run gives. The doomed job panics before it touches the
    /// store; a window that panics on a resident boundary is
    /// `melreq_core`'s experiment tests' (a group's window, and a tape its
    /// generator's panic poisoned). Here, not in `tests/service.rs`: only
    /// `execute_job` can be handed a run that panics — no request body
    /// makes one.
    #[test]
    fn a_run_that_panics_between_resident_uses_leaves_the_boundary_usable() {
        let dir = melreq_core::store::TempDir::new("serve-panic");
        let store = Arc::new(CheckpointStore::open_resident(&*dir).expect("store"));
        let (_waker, wake_handle) = poll::wake_pair().expect("wake pipe");
        let session = Session::with_store(store.clone());
        let shared = Shared::new(ServeConfig::default(), session, wake_handle);
        let req = quick_request();
        let want = Session::new().run(&req, &RunControl::default()).expect("storeless").to_json();
        let serve = |id: u64| {
            serve_job(&shared, admit(&shared, &req, id));
            published(&shared)
        };
        // First use simulates and keeps the boundary, the second records
        // its tapes; then a run blows up as it starts.
        assert_eq!((serve(1).0, serve(2).0), (200, 200));
        execute_job(admit(&shared, &req, 3), &shared, |req, _, _| {
            let mix = melreq_core::api::resolve_mix(&req.mix).expect("a roster mix");
            panic!("policy bug on {}", mix.name)
        });
        let (status, message, panicked) = published(&shared);
        assert_eq!(status, 500, "{message}");
        assert!(message.contains("request #3 panicked: policy bug on 2MEM-1"), "{message}");
        assert!(panicked);

        let (status, report, panicked) = serve(4);
        assert_eq!(status, 200, "{report}");
        assert_eq!(report, want);
        assert!(!panicked);
        let st = store.stats();
        assert_eq!((st.warmup_misses, st.resident_hits), (1, 2), "memory answered 2 and 4");
    }
}
