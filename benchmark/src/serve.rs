//! The two service workloads, `serve_hit` and `serve_miss`, and the load
//! generator they share.
//!
//! The server runs in this process (`melreq_serve::start`); the client is
//! the benchmark's own: one `write_all` per request on a `TCP_NODELAY`
//! keep-alive connection, at most one request outstanding per connection,
//! latency timed from just before the write to the last body byte. The repo's `http::ClientConn` writes head and body
//! separately without `TCP_NODELAY`, so Nagle holds the body until the
//! server's delayed ACK (≈ 40 ms); `serve.clientconn_hit_p50_ms` keeps that
//! cost visible without letting it hide the server's.

use crate::report::{peak_rss_mb, scratch_dir, Report};
use crate::spans::Spans;
use crate::spec::SETUPS;
use crate::stats::{median, quantile, sorted, Fastest, Rng};
use melreq_core::api::{PolicyKind, Session, SimRequest};
use melreq_core::experiment::{ExperimentOptions, RunControl};
use melreq_core::CheckpointStore;
use melreq_serve::http::ClientConn;
use melreq_serve::{split_envelope, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The 2-core mixes requests cycle through, as `melreq-loadgen` does.
const MIXTURE: [&str; 4] = ["2MEM-1", "2MEM-2", "2MIX-1", "2MIX-2"];
/// Distinct request bodies `serve_hit` repeats.
const HOT_SET: usize = 32;
/// A `max_cycles` budget far above any quick run: salting it makes a
/// request unique without changing its cost or its report.
const SALT_BASE: u64 = 1 << 40;
/// Requests per window of `serve_hit`: the unit the estimator keeps the
/// fastest of. About 40 ms, short enough that some window of a run is clean.
const HIT_WINDOW: usize = 4096;
/// Untraced seconds a traced run spends measuring tails.
const TAIL_SECONDS: f64 = 5.0;

/// A keep-alive HTTP/1.1 client that sends each request whole. A spinning
/// client polls its socket instead of sleeping in `read`, so its vCPU never
/// halts and no response waits for the hypervisor to wake it.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Client {
    fn connect(addr: std::net::SocketAddr, spin: bool) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_nonblocking(spin).expect("set O_NONBLOCK");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
        Client { stream, buf: Vec::with_capacity(4096) }
    }

    fn send(&mut self, request: &[u8]) -> Result<(), String> {
        self.stream.write_all(request).map_err(|e| format!("write: {e}"))
    }

    /// Read one `Content-Length`-framed response: status and body.
    fn recv(&mut self) -> Result<(u16, &str), String> {
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let mut head_end = None;
        let (mut status, mut total) = (0u16, usize::MAX);
        while self.buf.len() < total {
            let n = loop {
                match self.stream.read(&mut chunk) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                    Err(e) => return Err(format!("read: {e}")),
                }
            };
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if head_end.is_none() {
                let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else { continue };
                let head = std::str::from_utf8(&self.buf[..at]).map_err(|_| "non-utf8 head")?;
                status = head.get(9..12).and_then(|s| s.parse().ok()).ok_or("bad status line")?;
                let length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse())
                    })
                    .ok_or("no content-length")?
                    .map_err(|_| "bad content-length")?;
                head_end = Some(at + 4);
                total = at + 4 + length;
            }
        }
        let body = std::str::from_utf8(&self.buf[head_end.unwrap_or(0)..total])
            .map_err(|_| "non-utf8 body")?;
        Ok((status, body))
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(u16, &str), String> {
        self.send(request)?;
        self.recv()
    }

    fn metrics(&mut self) -> String {
        match self.exchange(&render_request("GET", "/metrics", "")) {
            Ok((200, body)) => body.to_string(),
            other => panic!("GET /metrics failed: {other:?}"),
        }
    }
}

/// Value of one series in Prometheus text, 0 when absent.
fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Whether an answer is a 200 carrying `report`, from the response cache
/// (`cached`, as `serve_hit` wants) or freshly simulated, never coalesced.
fn verify(status: u16, body: &str, report: &str, cached: bool) -> bool {
    let Some((envelope, got)) = split_envelope(body) else { return false };
    let from_cache = envelope.contains("\"cache\":\"response\"");
    let coalesced = envelope.contains("\"cache\":\"coalesced\"");
    status == 200 && got == report && from_cache == cached && !coalesced
}

struct Server {
    handle: ServerHandle,
    dir: PathBuf,
    clients: Vec<Client>,
    /// Seconds `start` and connecting took, then each warm-up request: the
    /// parts of one set-up.
    parts: Vec<f64>,
}

impl Server {
    /// Graceful drain; returns how long it took, in ms.
    fn stop(self) -> f64 {
        let started = Instant::now();
        drop(self.clients);
        self.handle.shutdown();
        self.handle.join();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_dir_all(self.dir);
        ms
    }
}

/// A request awaiting its answer.
struct Flight {
    id: u64,
    pick: usize,
    sent_at: Instant,
}

#[derive(Default)]
struct Loop {
    latencies_ms: Vec<f64>,
    /// Fastest time of each part of a window: the whole window on
    /// `serve_hit` (a 13 µs request has jitter of its own, which belongs in
    /// the figure), each of the four requests on `serve_miss`.
    windows: Fastest,
    /// Lowest median latency any window saw.
    best_median_ms: f64,
    ok: u64,
    failed: u64,
    wall_s: f64,
    bytes: u64,
}

impl Loop {
    /// Requests per second of a window made of each part's fastest time.
    fn rps(&self, window: usize) -> f64 {
        window as f64 / self.windows.sum()
    }
}

pub struct ServeWorkload {
    name: &'static str,
    hit: bool,
    seed: u64,
    /// The hot set (`serve_hit`) or the four priming requests (`serve_miss`).
    warm_bodies: Vec<String>,
}

pub fn plan(name: &'static str, seed: u64) -> ServeWorkload {
    let hit = name == "serve_hit";
    let mut w = ServeWorkload { name, hit, seed, warm_bodies: Vec::new() };
    let count = if hit { HOT_SET } else { MIXTURE.len() };
    w.warm_bodies = (0..count).map(|i| w.body(i % MIXTURE.len(), i as u64)).collect();
    w
}

impl ServeWorkload {
    /// The `/run` body for `MIXTURE[mix]`, made unique by `salt`.
    fn body(&self, mix: usize, salt: u64) -> String {
        SimRequest::new(MIXTURE[mix])
            .policy(PolicyKind::parse("me-lreq").expect("registered policy"))
            .opts(ExperimentOptions::quick())
            .max_cycles(SALT_BASE + ((self.seed & 0xFFFF) << 24) + salt)
            .to_json()
    }

    /// Start a server on a fresh store and warm it: every hot body once
    /// (`serve_hit`), or one request per mix so the store holds the
    /// profiles and warm-up boundaries (`serve_miss`).
    fn setup(&self, tag: &str, report: &mut Report) -> Server {
        let dir = scratch_dir(self.name, tag);
        let started = Instant::now();
        let handle = melreq_serve::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 16,
            store_dir: Some(dir.clone()),
            response_cache: 256,
            ..ServeConfig::default()
        })
        .expect("start the in-process server");
        let mut clients: Vec<Client> =
            (0..self.connections()).map(|_| Client::connect(handle.addr(), self.hit)).collect();
        let mut parts = vec![started.elapsed().as_secs_f64()];
        for body in &self.warm_bodies {
            let started = Instant::now();
            let answer = clients[0].exchange(&render_request("POST", "/run", body));
            report.check(matches!(answer, Ok((200, _))), || format!("warm-up request: {answer:?}"));
            parts.push(started.elapsed().as_secs_f64());
        }
        Server { handle, dir, clients, parts }
    }

    /// The report each mix's requests must carry, from an in-process run.
    fn expected(&self, store_dir: &Path) -> Vec<String> {
        let store = Arc::new(CheckpointStore::open(store_dir).expect("open the server's store"));
        let session = Session::with_store(store);
        (0..MIXTURE.len())
            .map(|mix| {
                let req = SimRequest::from_json(&self.body(mix, 0)).expect("own body parses");
                session.run(&req, &RunControl::default()).expect("in-process run").to_json()
            })
            .collect()
    }

    /// Requests per window: the unit of repeated identical work.
    fn window(&self) -> usize {
        if self.hit {
            HIT_WINDOW
        } else {
            MIXTURE.len()
        }
    }

    /// Requests kept outstanding, one per connection, by the one load
    /// thread. `serve_hit` keeps two and spins: with one, the netio thread
    /// sleeps between requests and every request pays two vCPU wake-ups,
    /// 13 µs or 65 µs a round trip as the hypervisor's halt-polling comes
    /// and goes; with two, the next request is waiting when an answer is
    /// flushed, nobody sleeps, and the server's own cost is what is timed.
    fn connections(&self) -> usize {
        if self.hit {
            2
        } else {
            1
        }
    }

    /// Read the answer to the request outstanding on `client`, if any, and
    /// book it.
    fn collect(
        &self,
        client: &mut Client,
        flight: &mut Option<Flight>,
        expected: &[String],
        sp: &mut Spans,
        out: &mut Loop,
    ) {
        let Some(Flight { id, pick, sent_at }) = flight.take() else { return };
        let report = &expected[pick % MIXTURE.len()];
        let answer = sp.scope("read", id, |_| client.recv());
        out.latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
        match answer {
            Ok((status, body))
                if sp.scope("verify", id, |_| verify(status, body, report, self.hit)) =>
            {
                out.ok += 1;
                out.bytes += body.len() as u64;
            }
            _ => out.failed += 1,
        }
    }

    /// Closed loop from one thread, a window at a time, until `stop` (given
    /// windows done and seconds elapsed) says so. Every window sends the
    /// same requests in the same seeded order, round-robin over `clients`,
    /// and ends with nothing outstanding: `serve_hit` a fixed draw from the
    /// hot set, `serve_miss` one request per mix, salted anew (from
    /// `first_salt` up) so none repeats.
    fn drive(
        &self,
        clients: &mut [Client],
        expected: &[String],
        first_salt: u64,
        sp: &mut Spans,
        mut stop: impl FnMut(&Fastest, f64) -> bool,
    ) -> Loop {
        let hot: Vec<Vec<u8>> =
            self.warm_bodies.iter().map(|b| render_request("POST", "/run", b)).collect();
        let mut rng = Rng(self.seed);
        let picks: Vec<usize> = if self.hit {
            (0..HIT_WINDOW).map(|_| rng.below(HOT_SET)).collect()
        } else {
            let mut mixes: Vec<usize> = (0..MIXTURE.len()).collect();
            rng.shuffle(&mut mixes);
            mixes
        };
        let mut out = Loop { best_median_ms: f64::INFINITY, ..Loop::default() };
        let mut flights: Vec<Option<Flight>> = clients.iter().map(|_| None).collect();
        let started = Instant::now();
        let mut sent = 0u64;
        while !stop(&out.windows, started.elapsed().as_secs_f64()) {
            let from = out.latencies_ms.len();
            let window_started = Instant::now();
            for (slot, &pick) in picks.iter().enumerate() {
                let c = slot % clients.len();
                self.collect(&mut clients[c], &mut flights[c], expected, sp, &mut out);
                let fresh;
                let request: &[u8] = if self.hit {
                    &hot[pick]
                } else {
                    fresh = render_request("POST", "/run", &self.body(pick, first_salt + sent));
                    &fresh
                };
                sent += 1;
                let sent_at = Instant::now();
                match sp.scope("write", sent, |_| clients[c].send(request)) {
                    Ok(()) => flights[c] = Some(Flight { id: sent, pick, sent_at }),
                    Err(_) => out.failed += 1,
                }
            }
            // Oldest first: the connection after the last one written to.
            for i in 0..clients.len() {
                let c = (picks.len() + i) % clients.len();
                self.collect(&mut clients[c], &mut flights[c], expected, sp, &mut out);
            }
            let wall_s = window_started.elapsed().as_secs_f64();
            let window = &out.latencies_ms[from..];
            out.best_median_ms = out.best_median_ms.min(median(window));
            if window.len() != picks.len() {
                continue; // a write failed and is already counted; not a whole window
            }
            if self.hit {
                out.windows.round(&[wall_s]);
            } else {
                let seconds: Vec<f64> = window.iter().map(|ms| ms / 1e3).collect();
                out.windows.round(&seconds);
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    /// `--trace 0`: cold set-ups, then the timed closed loop, tracing off.
    pub fn run_timed(&self, seconds: f64, report: &mut Report) {
        let mut setup = Fastest::default();
        let mut server = None;
        for i in 0..SETUPS {
            let next = self.setup(&format!("setup{i}"), report);
            setup.round(&next.parts);
            if let Some(old) = server.replace(next) {
                Server::stop(old);
            }
        }
        let mut server = server.expect("at least one set-up");
        let expected = self.expected(&server.dir);
        let run =
            self.drive(&mut server.clients, &expected, 1 << 16, &mut Spans::off(), |_, elapsed| {
                elapsed >= seconds
            });
        server.stop();

        report.attempted += run.ok + run.failed;
        report.failed += run.failed;
        let quick = ExperimentOptions::quick();
        let kinstr_per_report = (quick.instructions * 2) as f64 / 1e3;
        let rps = run.rps(self.window());
        let windows = run.windows.rounds;
        report.set("setup_s", setup.sum(), setup.rounds);
        report.set("sim_kinstr_per_s", rps * kinstr_per_report, windows);
        report.set("closed_rps", rps, windows);
        report.set("p50_ms", run.best_median_ms, windows);
    }

    /// `--trace 1`: untraced tail and side probes, then a traced pass whose
    /// spans (the client's and the server's) go to the trace file.
    pub fn run_traced(&self, trace_path: &Path, header: &str, report: &mut Report) {
        let mut sp = Spans::on();
        let mut server = sp.scope("setup", 0, |_| self.setup("traced", report));
        report.set("serve.start_ms", server.parts[0] * 1e3, 1);
        let expected = self.expected(&server.dir);

        sp.pause();
        let mut off = Spans::off();
        let tail =
            self.drive(&mut server.clients, &expected, 1 << 16, &mut off, |_, t| t >= TAIL_SECONDS);
        // Only percentiles with at least ten samples beyond them.
        let lat = sorted(tail.latencies_ms.clone());
        let n = lat.len() as u64;
        for (name, q) in [("serve.p90_ms", 0.90), ("serve.p99_ms", 0.99), ("serve.p999_ms", 0.999)]
        {
            if n as f64 * (1.0 - q) >= 10.0 {
                report.set(name, quantile(&lat, q), n);
            }
        }
        if self.hit {
            self.probe_two_connections(&server, &expected, report);
            self.probe_clientconn(&server, report);
        }

        sp.resume();
        let windows = if self.hit { 5 } else { 8 };
        let requests = windows * self.window() as u64;
        let before = server.clients[0].metrics();
        let traced = sp.scope("pass", 1, |sp| {
            self.drive(&mut server.clients, &expected, 1 << 20, sp, |done, _| {
                done.rounds >= windows
            })
        });
        let after = server.clients[0].metrics();
        report.set("serve.drain_ms", server.stop(), 1);
        sp.finish(trace_path, header);

        for run in [&tail, &traced] {
            report.attempted += run.ok + run.failed;
            report.failed += run.failed;
        }
        let delta = |name: &str| series(&after, name) - series(&before, name);
        let stage_us = |stage: &str| {
            let family = "melreq_serve_request_stage_duration_seconds";
            let label = format!("{{stage=\"{stage}\"}}");
            delta(&format!("{family}_sum{label}")) / delta(&format!("{family}_count{label}")) * 1e6
        };
        report.set("serve.stage.parse_us", stage_us("parse"), requests);
        report.set("serve.stage.queue_us", stage_us("queue"), requests);
        report.set("serve.stage.execute_us", stage_us("execute"), requests);
        report.set("serve.stage.render_us", stage_us("render"), requests);
        report.set("serve.stage.flush_us", stage_us("flush"), requests);
        let hits = delta("melreq_serve_cache_hits_total");
        let misses = delta("melreq_serve_cache_misses_total");
        report.set("serve.cache_hit_ratio", hits / (hits + misses), requests);
        report.set("serve.cache_evictions", delta("melreq_serve_cache_evictions_total"), requests);
        report.set("serve.resp_bytes", traced.bytes as f64 / traced.ok.max(1) as f64, traced.ok);
        let per_request = |run: &Loop| run.wall_s / (run.ok + run.failed).max(1) as f64;
        report.set("prof.overhead_ratio", per_request(&traced) / per_request(&tail), requests);
        report.set("host.peak_rss_mb", peak_rss_mb(), 1);
        sp.print_self_times();
    }

    /// Three seconds of the hot set over two connections at once: what the
    /// second client thread buys on this host.
    fn probe_two_connections(&self, server: &Server, expected: &[String], report: &mut Report) {
        let addr = server.handle.addr();
        let runs: Vec<Loop> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|i| {
                    s.spawn(move || {
                        let mut client = [Client::connect(addr, false)];
                        self.drive(&mut client, expected, i, &mut Spans::off(), |_, t| t >= 3.0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread")).collect()
        });
        let ok: u64 = runs.iter().map(|r| r.ok).sum();
        let wall = runs.iter().map(|r| r.wall_s).fold(0.0, f64::max);
        report.attempted += runs.iter().map(|r| r.ok + r.failed).sum::<u64>();
        report.failed += runs.iter().map(|r| r.failed).sum::<u64>();
        report.set("serve.conc2_rps", ok as f64 / wall, ok);
    }

    /// Fifty hot requests through the repo's own `ClientConn`.
    fn probe_clientconn(&self, server: &Server, report: &mut Report) {
        let addr = server.handle.addr().to_string();
        let mut conn = ClientConn::connect(&addr, Duration::from_secs(60)).expect("ClientConn");
        let latencies: Vec<f64> = (0..50)
            .map(|i| {
                let started = Instant::now();
                let answer =
                    conn.request("POST", "/run", Some(&self.warm_bodies[i % HOT_SET]), false);
                report.check(matches!(answer, Ok((200, _))), || format!("ClientConn: {answer:?}"));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        report.set("serve.clientconn_hit_p50_ms", median(&latencies), 50);
    }
}
