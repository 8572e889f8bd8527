//! # melreq-loadgen — deterministic open-loop load generation
//!
//! Drives `melreq-serve` with a seeded, reproducible arrival process
//! and measures what the paper-adjacent serving literature says matters
//! under contention: tail latency (p50/p95/p99), sustained throughput,
//! and shed/timeout counts. Two phases run back to back in one
//! invocation and land in one artifact (`BENCH_serve.json`):
//!
//! 1. **`baseline_close`** — every request opens a fresh connection,
//!    sends `Connection: close`, and carries a unique identity (a
//!    rotating `max_cycles` salt over a deterministic mixture of
//!    workload mixes), so nothing caches and nothing coalesces. This is
//!    the cold thread-per-connection model the event loop replaced.
//! 2. **`keepalive_cached`** — every connection is kept alive for the
//!    whole phase and every request is byte-identical, so after the
//!    first completion the response cache (and, while it is in flight,
//!    request coalescing) answers without simulating.
//!
//! The arrival process is open-loop: exponential inter-arrival gaps
//! drawn from the vendored xoshiro `SmallRng` at a fixed seed, request
//! latency measured from the *scheduled* arrival time — queueing delay
//! under overload shows up in the tail, as it should. The full arrival
//! stream (offsets and request bodies) is precomputed and hashed into
//! the artifact (`stream_hash`), so two runs with the same flags offer
//! byte-identical load.
//!
//! The requests run on the `melreq-exec` job pool, `conns` workers wide,
//! with the pacer as its seeder: each arrival is submitted at its
//! scheduled instant as a root job at priority 0, so arrivals start in
//! schedule order. When the offer window closes, a job not yet started
//! is counted in `dropped_at_cutoff` instead of sent; running ones
//! complete.

use melreq_core::api::{resolve_mix, MelreqError, PolicyKind, SimRequest, SCHEMA_VERSION};
use melreq_core::experiment::ExperimentOptions;
use melreq_serve::http::ClientConn;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-request socket timeout — generous, so slow (queued) responses
/// count as latency rather than transport errors.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

/// The deterministic workload mixture the unique-identity phase cycles
/// through (all 2-core mixes: cheap enough that the pool, not the
/// simulator, is the interesting bottleneck).
const MIXTURE: [&str; 4] = ["2MEM-1", "2MEM-2", "2MIX-1", "2MIX-2"];

/// Base for the rotating `max_cycles` salt that makes baseline-phase
/// requests unique without changing their cost (quick runs finish far
/// below a billion cycles).
const SALT_BASE: u64 = 1 << 40;

/// Load-generator configuration (`melreq loadbench` flags map onto it).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Offered arrival rate, requests per second (open loop).
    pub rps: f64,
    /// Client connections: the width of the job pool issuing requests,
    /// and so the most connections open at once.
    pub conns: usize,
    /// Arrival-window length per phase, seconds.
    pub duration_s: f64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Mix for the repeated identical request of the cached phase.
    pub mix: String,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7700".to_string(),
            rps: 200.0,
            conns: 16,
            duration_s: 2.0,
            seed: 42,
            mix: "2MEM-1".to_string(),
        }
    }
}

/// How one phase offers its load.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Phase name in the artifact.
    pub name: &'static str,
    /// Keep connections alive between requests (vs reconnect per request).
    pub keepalive: bool,
    /// Give every request a unique identity (vs byte-identical repeats).
    pub unique: bool,
}

/// The two standard phases, in measurement order.
pub const PHASES: [PhaseSpec; 2] = [
    PhaseSpec { name: "baseline_close", keepalive: false, unique: true },
    PhaseSpec { name: "keepalive_cached", keepalive: true, unique: false },
];

/// Everything one phase measured.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub name: &'static str,
    pub keepalive: bool,
    pub unique: bool,
    /// Arrivals generated for the phase window.
    pub offered: u64,
    /// Requests actually issued (offered minus `dropped_at_cutoff`).
    pub sent: u64,
    /// What the phase's requests came back as.
    pub tally: Tally,
    /// Latency of completed (any status) requests, milliseconds, from
    /// scheduled arrival to full response.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    pub mean_ms: f64,
    /// Wall clock from first scheduled arrival to last response.
    pub elapsed_s: f64,
    /// Successful (200) responses per second of elapsed time.
    pub throughput_rps: f64,
    /// FNV-1a over the precomputed arrival stream (offsets + bodies).
    pub stream_hash: u64,
}

/// The outcome counts of one phase's arrivals.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub completed_200: u64,
    pub http_429: u64,
    pub http_504: u64,
    pub http_5xx: u64,
    pub http_other: u64,
    pub transport_errors: u64,
    /// Arrivals not yet started when the phase window closed, so never sent.
    pub dropped_at_cutoff: u64,
    /// 200s answered from the response cache (`"cache":"response"`).
    pub cache_responses: u64,
    /// 200s coalesced onto an in-flight run (`"cache":"coalesced"`).
    pub coalesced: u64,
    /// Latency of every answered request, sorted ascending.
    pub latencies_ms: Vec<f64>,
}

/// One precomputed arrival: scheduled offset from phase start plus the
/// fully rendered request body.
struct PlannedArrival {
    offset: Duration,
    body: String,
}

/// Render the request body for the repeated identical request of the
/// cached phase.
fn repeated_body(mix: &str) -> String {
    SimRequest::new(mix)
        .policy(PolicyKind::parse("me-lreq").expect("known policy token"))
        .opts(ExperimentOptions::quick())
        .to_json()
}

/// Precompute the phase's full arrival stream from the seed: offsets
/// via exponential inter-arrival gaps, bodies via the mixture + salt
/// rotation (unique phase) or verbatim repetition (cached phase).
fn plan_arrivals(cfg: &LoadConfig, spec: PhaseSpec) -> Vec<PlannedArrival> {
    let tag = u64::from_le_bytes(*b"loadgen\0");
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ tag ^ spec.name.len() as u64);
    let repeated = repeated_body(&cfg.mix);
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    let mut salt = 0u64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / cfg.rps.max(1e-9);
        if t >= cfg.duration_s {
            break;
        }
        let body = if spec.unique {
            let mix = MIXTURE[rng.gen_range(0..MIXTURE.len())];
            salt += 1;
            SimRequest::new(mix)
                .policy(PolicyKind::parse("me-lreq").expect("known policy token"))
                .opts(ExperimentOptions::quick())
                .max_cycles(SALT_BASE + salt)
                .to_json()
        } else {
            repeated.clone()
        };
        arrivals.push(PlannedArrival { offset: Duration::from_secs_f64(t), body });
    }
    arrivals
}

/// FNV-hash the planned stream so the artifact can prove two runs
/// offered identical load.
fn stream_hash(arrivals: &[PlannedArrival]) -> u64 {
    let mut desc = String::new();
    for a in arrivals {
        let _ = write!(
            desc,
            "{}us:{:016x};",
            a.offset.as_micros(),
            melreq_snap::keyed("loadgen-req", &a.body)
        );
    }
    melreq_snap::keyed("loadgen-stream", &desc)
}

fn classify(tally: &mut Tally, status: u16, body: &str, latency_ms: f64) {
    tally.latencies_ms.push(latency_ms);
    match status {
        200 => {
            tally.completed_200 += 1;
            if body.contains("\"cache\":\"response\"") {
                tally.cache_responses += 1;
            } else if body.contains("\"cache\":\"coalesced\"") {
                tally.coalesced += 1;
            }
        }
        429 => tally.http_429 += 1,
        504 => tally.http_504 += 1,
        500..=599 => tally.http_5xx += 1,
        _ => tally.http_other += 1,
    }
}

/// Send one arrival's request — on an idle kept-alive connection when
/// the phase keeps them, else on a fresh one — and classify the answer.
/// A kept-alive connection goes back on `idle` unless the exchange
/// failed.
fn issue(
    addr: &str,
    keepalive: bool,
    scheduled: Instant,
    body: &str,
    idle: &Mutex<Vec<ClientConn>>,
    tally: &Mutex<Tally>,
) {
    let reused = if keepalive { lock(idle).pop() } else { None };
    let outcome = reused.map_or_else(|| ClientConn::connect(addr, REQUEST_TIMEOUT), Ok).and_then(
        |mut conn| {
            let answer = conn.request("POST", "/run", Some(body), !keepalive)?;
            if keepalive {
                lock(idle).push(conn);
            }
            Ok(answer)
        },
    );
    let latency_ms = scheduled.elapsed().as_secs_f64() * 1e3;
    let mut tally = lock(tally);
    match outcome {
        Ok((status, body)) => classify(&mut tally, status, &body, latency_ms),
        Err(_) => tally.transport_errors += 1,
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Nearest-rank: the smallest value with at least q of the mass at
    // or below it.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a sample count is far below 2^52 and the rank is at least 1"
    )]
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Run one phase against the server: pace the planned arrivals in real
/// time onto a `cfg.conns`-wide job pool, and aggregate.
pub fn run_phase(cfg: &LoadConfig, spec: PhaseSpec) -> PhaseStats {
    let arrivals = plan_arrivals(cfg, spec);
    let hash = stream_hash(&arrivals);
    let offered = arrivals.len() as u64;
    let cutoff = AtomicBool::new(false);
    let idle = Mutex::new(Vec::new());
    let tally = Mutex::new(Tally::default());

    // The pacer seeds the pool, submitting each arrival at its scheduled
    // offset. Wall clock is the whole point of a load generator.
    #[expect(clippy::disallowed_methods, reason = "load generation is real-time measurement")]
    let start = Instant::now();
    melreq_exec::run_scope(cfg.conns.max(1), |scope| {
        for a in arrivals {
            let scheduled = start + a.offset;
            #[expect(
                clippy::disallowed_methods,
                reason = "pacing sleeps until the scheduled arrival"
            )]
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let (cutoff, idle, tally) = (&cutoff, &idle, &tally);
            scope.submit(0, move |_| {
                if cutoff.load(Ordering::SeqCst) {
                    lock(tally).dropped_at_cutoff += 1;
                } else {
                    issue(&cfg.addr, spec.keepalive, scheduled, &a.body, idle, tally);
                }
            });
        }
        // The offer window is over: unstarted arrivals are dropped (and
        // counted); in-flight requests run to completion.
        cutoff.store(true, Ordering::SeqCst);
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut tally = tally.into_inner().unwrap_or_else(PoisonError::into_inner);
    tally.latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let lat = &tally.latencies_ms;
    let mean_ms = if lat.is_empty() { 0.0 } else { lat.iter().sum::<f64>() / lat.len() as f64 };
    #[allow(clippy::cast_precision_loss, reason = "a request count is far below 2^52")]
    let throughput_rps = if elapsed_s > 0.0 { tally.completed_200 as f64 / elapsed_s } else { 0.0 };

    PhaseStats {
        name: spec.name,
        keepalive: spec.keepalive,
        unique: spec.unique,
        offered,
        sent: offered - tally.dropped_at_cutoff,
        p50_ms: percentile(lat, 0.50),
        p90_ms: percentile(lat, 0.90),
        p95_ms: percentile(lat, 0.95),
        p99_ms: percentile(lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(0.0),
        mean_ms,
        elapsed_s,
        throughput_rps,
        stream_hash: hash,
        tally,
    }
}

/// The full two-phase benchmark.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub phases: Vec<PhaseStats>,
    pub baseline_throughput_rps: f64,
    pub cached_throughput_rps: f64,
    pub speedup_cached_vs_baseline: f64,
}

/// Run both standard phases back to back and compute the headline
/// speedup (cached keep-alive throughput over the cold
/// connection-per-request baseline).
pub fn run(cfg: &LoadConfig) -> Result<BenchReport, MelreqError> {
    resolve_mix(&cfg.mix)?;
    if cfg.rps <= 0.0 || cfg.duration_s <= 0.0 {
        return Err(MelreqError::Usage("loadbench needs --rps > 0 and --duration > 0".into()));
    }
    let phases: Vec<PhaseStats> = PHASES.iter().map(|&spec| run_phase(cfg, spec)).collect();
    let baseline = phases[0].throughput_rps;
    let cached = phases[1].throughput_rps;
    Ok(BenchReport {
        phases,
        baseline_throughput_rps: baseline,
        cached_throughput_rps: cached,
        speedup_cached_vs_baseline: if baseline > 0.0 { cached / baseline } else { 0.0 },
    })
}

fn phase_json(p: &PhaseStats) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{name}\",\n",
            "      \"keepalive\": {keepalive},\n",
            "      \"unique_requests\": {unique},\n",
            "      \"offered\": {offered},\n",
            "      \"sent\": {sent},\n",
            "      \"completed_200\": {completed}, \n",
            "      \"http_429\": {h429},\n",
            "      \"http_504\": {h504},\n",
            "      \"http_5xx\": {h5xx},\n",
            "      \"http_other\": {hother},\n",
            "      \"transport_errors\": {terr},\n",
            "      \"dropped_at_cutoff\": {dropped},\n",
            "      \"cache_responses\": {cacher},\n",
            "      \"coalesced\": {coal},\n",
            "      \"latency_ms\": {{\"p50\": {p50:.3}, \"p90\": {p90:.3}, \"p95\": {p95:.3}, \"p99\": {p99:.3}, \"max\": {max:.3}, \"mean\": {mean:.3}}},\n",
            "      \"elapsed_s\": {elapsed:.3},\n",
            "      \"throughput_rps\": {tput:.2},\n",
            "      \"stream_hash\": \"{hash:016x}\"\n",
            "    }}"
        ),
        name = p.name,
        keepalive = p.keepalive,
        unique = p.unique,
        offered = p.offered,
        sent = p.sent,
        completed = p.tally.completed_200,
        h429 = p.tally.http_429,
        h504 = p.tally.http_504,
        h5xx = p.tally.http_5xx,
        hother = p.tally.http_other,
        terr = p.tally.transport_errors,
        dropped = p.tally.dropped_at_cutoff,
        cacher = p.tally.cache_responses,
        coal = p.tally.coalesced,
        p50 = p.p50_ms,
        p90 = p.p90_ms,
        p95 = p.p95_ms,
        p99 = p.p99_ms,
        max = p.max_ms,
        mean = p.mean_ms,
        elapsed = p.elapsed_s,
        tput = p.throughput_rps,
        hash = p.stream_hash,
    )
}

/// Render the artifact (`BENCH_serve.json` content).
pub fn render_json(cfg: &LoadConfig, report: &BenchReport) -> String {
    let phases: Vec<String> = report.phases.iter().map(phase_json).collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema_version\": {schema},\n",
            "  \"tool\": \"loadbench\",\n",
            "  \"addr\": \"{addr}\",\n",
            "  \"rps\": {rps:.1},\n",
            "  \"conns\": {conns},\n",
            "  \"duration_s\": {duration:.1},\n",
            "  \"seed\": {seed},\n",
            "  \"mix\": \"{mix}\",\n",
            "  \"phases\": [\n{phases}\n  ],\n",
            "  \"baseline_throughput_rps\": {base:.2},\n",
            "  \"cached_throughput_rps\": {cached:.2},\n",
            "  \"speedup_cached_vs_baseline\": {speedup:.2}\n",
            "}}\n"
        ),
        schema = SCHEMA_VERSION,
        addr = cfg.addr,
        rps = cfg.rps,
        conns = cfg.conns,
        duration = cfg.duration_s,
        seed = cfg.seed,
        mix = cfg.mix,
        phases = phases.join(",\n"),
        base = report.baseline_throughput_rps,
        cached = report.cached_throughput_rps,
        speedup = report.speedup_cached_vs_baseline,
    )
}

/// Guard this run's cached throughput (`current`, requests per second)
/// against a committed baseline artifact's `cached_throughput_rps`
/// (`base`): fail when it drops below `ratio` of it. Returns the OK line
/// to print.
pub fn guard_check(current: f64, base: f64, ratio: f64) -> Result<String, MelreqError> {
    let floor = base * ratio;
    if current < floor {
        return Err(MelreqError::Timeout(format!(
            "loadbench guard FAILED: cached throughput {current:.2} rps is below \
             {floor:.2} rps (baseline {base:.2} rps x ratio {ratio})"
        )));
    }
    Ok(format!(
        "load guard OK: cached throughput {current:.2} rps >= {floor:.2} rps \
         (baseline {base:.2} rps x ratio {ratio})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_core::api::json::Json;

    fn cfg() -> LoadConfig {
        LoadConfig { rps: 100.0, duration_s: 1.0, seed: 7, ..LoadConfig::default() }
    }

    #[test]
    fn arrival_streams_are_deterministic_per_seed_and_phase() {
        let a = plan_arrivals(&cfg(), PHASES[0]);
        let b = plan_arrivals(&cfg(), PHASES[0]);
        assert!(!a.is_empty());
        assert_eq!(stream_hash(&a), stream_hash(&b), "same seed, same stream");
        let other_seed = LoadConfig { seed: 8, ..cfg() };
        let c = plan_arrivals(&other_seed, PHASES[0]);
        assert_ne!(stream_hash(&a), stream_hash(&c), "different seed, different stream");

        // The streams CI's load smoke offers (`--rps 150 --duration 2`,
        // default seed and mix), pinned so a run's artifact can be
        // checked against them.
        let ci = LoadConfig { rps: 150.0, duration_s: 2.0, ..LoadConfig::default() };
        let hashes = PHASES.map(|spec| format!("{:016x}", stream_hash(&plan_arrivals(&ci, spec))));
        assert_eq!(hashes, ["e2801b3d5c8019cf", "c8c9852a6022d363"]);
    }

    #[test]
    fn baseline_phase_requests_are_unique_and_cached_phase_repeats() {
        let unique = plan_arrivals(&cfg(), PHASES[0]);
        let mut bodies: Vec<&str> = unique.iter().map(|a| a.body.as_str()).collect();
        bodies.sort_unstable();
        let before = bodies.len();
        bodies.dedup();
        assert_eq!(bodies.len(), before, "every baseline request has a unique identity");

        let repeated = plan_arrivals(&cfg(), PHASES[1]);
        assert!(repeated.iter().all(|a| a.body == repeated[0].body), "cached phase repeats");
    }

    #[test]
    fn percentiles_and_classification_work() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.99), 0.0);

        let mut tally = Tally::default();
        classify(&mut tally, 200, "{\"cache\":\"response\",...}", 1.0);
        classify(&mut tally, 200, "{\"cache\":\"coalesced\",...}", 2.0);
        classify(&mut tally, 200, "{\"cache\":\"cold\",...}", 3.0);
        classify(&mut tally, 429, "", 4.0);
        classify(&mut tally, 504, "", 5.0);
        classify(&mut tally, 500, "", 6.0);
        assert_eq!(tally.completed_200, 3);
        assert_eq!(tally.cache_responses, 1);
        assert_eq!(tally.coalesced, 1);
        assert_eq!(tally.http_429, 1);
        assert_eq!(tally.http_504, 1);
        assert_eq!(tally.http_5xx, 1);
        assert_eq!(tally.latencies_ms.len(), 6);
    }

    #[test]
    fn artifact_renders_and_guard_reads_it_back() {
        let report = BenchReport {
            phases: vec![],
            baseline_throughput_rps: 10.0,
            cached_throughput_rps: 80.0,
            speedup_cached_vs_baseline: 8.0,
        };
        let json = render_json(&cfg(), &report);
        let field = |key| Json::parse(&json).ok()?.get(key)?.as_f64();
        assert_eq!(field("cached_throughput_rps"), Some(80.0));
        assert_eq!(field("speedup_cached_vs_baseline"), Some(8.0));

        // What a later `--guard` reads back is what this run measured.
        let base = field("cached_throughput_rps").expect("baseline field");
        let ok = guard_check(report.cached_throughput_rps, base, 0.25).expect("guard passes");
        assert!(ok.contains("load guard OK"), "{ok}");
        let err = guard_check(1.0, base, 0.25).unwrap_err();
        assert_eq!(err.exit_code(), 6, "guard failure is timeout-class: {err}");
    }

    /// Scrape `/metrics` on a connection of its own and return the value
    /// of a single-sample family.
    fn metric(addr: &str, name: &str) -> f64 {
        let timeout = Duration::from_secs(60);
        let (status, text) =
            melreq_serve::http::exchange(addr, "GET", "/metrics", None, timeout).expect("metrics");
        assert_eq!(status, 200);
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
    }

    #[test]
    fn both_phases_run_against_an_in_process_server() {
        let server = melreq_serve::start(melreq_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            response_cache: 64,
            ..melreq_serve::ServeConfig::default()
        })
        .expect("start server");
        let cfg = LoadConfig {
            addr: server.addr().to_string(),
            rps: 20.0,
            conns: 4,
            duration_s: 0.5,
            seed: 42,
            ..LoadConfig::default()
        };
        for spec in PHASES {
            let before = metric(&cfg.addr, "melreq_connections_total");
            let p = run_phase(&cfg, spec);
            // Less the connection of the scrape that reads the count.
            let opened = metric(&cfg.addr, "melreq_connections_total") - before - 1.0;
            let t = &p.tally;
            assert!(p.offered > 1, "{}: the seed offers several arrivals", p.name);
            assert_eq!(p.sent + t.dropped_at_cutoff, p.offered, "{}", p.name);
            assert_eq!((t.http_5xx, t.transport_errors), (0, 0), "{}: {t:?}", p.name);
            assert_eq!(p.stream_hash, stream_hash(&plan_arrivals(&cfg, spec)), "{}", p.name);
            if spec.keepalive {
                assert!(t.cache_responses + t.coalesced > 0, "no warm answers: {t:?}");
                #[allow(clippy::cast_precision_loss, reason = "a connection count is small")]
                let conns = cfg.conns as f64;
                assert!(opened <= conns, "{opened} connections opened, at most {conns} kept");
            }
        }
        server.shutdown();
        server.join();
    }
}
