//! Black-box service tests over real sockets: backpressure (429 +
//! Retry-After semantics without wedging the pool), wall-clock deadlines
//! (504 at an epoch boundary), sustained concurrency across the worker
//! pool, keep-alive + pipelining on the event loop, request coalescing,
//! the LRU response cache, idle-connection timeouts, request validation
//! (schema version, /run arity), and graceful drain. Every server binds
//! port 0; nothing here touches SIGTERM — the in-process drain paths
//! (`/shutdown`, `ServerHandle::shutdown`) cover the same code the
//! signal handler flips.

use melreq_core::api::json::Json;
use melreq_core::api::{PolicyKind, SimRequest, SCHEMA_VERSION};
use melreq_core::experiment::ExperimentOptions;
use melreq_core::store::TempDir;
use melreq_serve::{http, split_envelope, start, ServeConfig, ServerHandle};
use std::time::{Duration, Instant};

const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(300);

fn serve(workers: usize, queue_cap: usize) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap,
        store_dir: None,
        ..ServeConfig::default()
    })
    .expect("start server")
}

/// Scrape `/metrics` and return the value of a single-sample family.
fn metric_value(addr: &str, name: &str) -> f64 {
    let (status, text) =
        http::exchange(addr, "GET", "/metrics", None, EXCHANGE_TIMEOUT).expect("metrics");
    assert_eq!(status, 200);
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

fn run_body(mix: &str, opts: ExperimentOptions) -> String {
    SimRequest::new(mix)
        .policy(PolicyKind::parse("me-lreq").expect("policy token"))
        .opts(opts)
        .to_json()
}

/// A request heavy enough that, once it is in flight, it still is when
/// a handful of later connections have been accepted and parsed — in a
/// release build too: 0.2 s of simulation there, against milliseconds
/// of connecting. Do not lighten it as the kernel gets faster.
fn slow_opts() -> ExperimentOptions {
    ExperimentOptions {
        instructions: 120_000,
        warmup: 30_000,
        profile_instructions: 10_000,
        ..ExperimentOptions::default()
    }
}

/// Block until `/metrics` shows the single-sample family `name` at a
/// value `done` accepts.
fn await_metric(addr: &str, name: &str, done: impl Fn(f64) -> bool) {
    let deadline = Instant::now() + EXCHANGE_TIMEOUT;
    while !done(metric_value(addr, name)) {
        assert!(Instant::now() < deadline, "{name} never reached the awaited value");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Block until the server holds a `/run` request, queued or executing.
fn await_in_flight(addr: &str) {
    await_metric(addr, "melreq_inflight_requests", |v| v >= 1.0);
}

fn post_run(addr: &str, body: &str) -> (u16, String) {
    http::exchange(addr, "POST", "/run", Some(body), EXCHANGE_TIMEOUT).expect("POST /run")
}

#[test]
fn queue_overflow_sheds_429_and_the_server_recovers() {
    let handle = serve(1, 1);
    let addr = handle.addr().to_string();

    // Occupy the single worker with a slow run: admitted, and taken off
    // the queue (a loaded host can leave it queued for tens of ms, and
    // then the burst below finds no free slot at all)…
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, &run_body("2MEM-1", slow_opts())))
    };
    await_in_flight(&addr);
    await_metric(&addr, "melreq_queue_depth", |v| v < 1.0);

    // …then burst past the 1-slot queue with four DISTINCT requests
    // (distinct cycle budgets — identical ones would coalesce instead
    // of overflowing). At most one follower fits.
    let followers: Vec<_> = (0..4u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let body = SimRequest::new("2MEM-1")
                    .policy(PolicyKind::parse("me-lreq").expect("policy token"))
                    .opts(ExperimentOptions::quick())
                    .max_cycles(1_000_000_000 + i)
                    .to_json();
                post_run(&addr, &body)
            })
        })
        .collect();

    let mut ok = 0;
    let mut shed = 0;
    for f in followers {
        let (status, body) = f.join().expect("follower thread");
        match status {
            200 => ok += 1,
            429 => {
                shed += 1;
                assert!(body.contains("\"kind\":\"overload\""), "429 body: {body}");
                assert!(body.contains("retry after"), "429 names the backoff: {body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(ok + shed, 4);
    assert!(shed >= 1, "a 1-slot queue must shed part of a 4-request burst");
    assert!(ok >= 1, "the queued follower must still complete");

    let (status, _) = slow.join().expect("slow thread");
    assert_eq!(status, 200, "the in-flight run finishes despite the burst");

    // Not wedged: health and a fresh run still work.
    let (status, body) =
        http::exchange(&addr, "GET", "/healthz", None, EXCHANGE_TIMEOUT).expect("healthz");
    assert_eq!(status, 200, "healthz after burst: {body}");
    let (status, _) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "pool serves again after shedding");

    handle.shutdown();
    handle.join();
}

/// The registry's fixed priorities size themselves to the mix: a
/// well-formed request for one at a non-4-core width used to panic the
/// worker that took it, hanging that client and every later one.
#[test]
fn fixed_priority_on_a_two_core_mix_answers_and_the_worker_survives() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();
    for policy in ["fix-0123", "fix-3210"] {
        let body = SimRequest::new("2MEM-1")
            .policy(PolicyKind::parse(policy).expect("policy token"))
            .opts(ExperimentOptions::quick())
            .to_json();
        let (status, text) = post_run(&addr, &body);
        assert_eq!(status, 200, "{policy} on 2MEM-1: {text}");
        assert!(text.contains(&policy.to_uppercase()), "{policy} report: {text}");
    }
    // The only worker is still there for the next client.
    let (status, body) =
        http::exchange(&addr, "GET", "/healthz", None, EXCHANGE_TIMEOUT).expect("healthz");
    assert_eq!(status, 200, "healthz after the fixed-priority runs: {body}");
    let (status, _) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "the worker serves a following /run");
    handle.shutdown();
    handle.join();
}

#[test]
fn expired_wall_clock_budget_returns_504() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();

    let body = SimRequest::new("2MEM-1")
        .policy(PolicyKind::parse("me-lreq").expect("policy token"))
        .opts(slow_opts())
        .timeout_ms(1)
        .to_json();
    let (status, resp) = post_run(&addr, &body);
    assert_eq!(status, 504, "1ms budget must time out: {resp}");
    assert!(resp.contains("\"kind\":\"timeout\""), "504 body: {resp}");

    // The worker survives the cancellation.
    let (status, resp) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "run after a timeout: {resp}");

    handle.shutdown();
    handle.join();
}

#[test]
fn worker_pool_sustains_concurrent_distinct_mixes() {
    let handle = serve(4, 8);
    let addr = handle.addr().to_string();

    let mixes = ["2MEM-1", "2MEM-2", "2MIX-1", "2MIX-2"];
    let threads: Vec<_> = mixes
        .iter()
        .map(|mix| {
            let addr = addr.clone();
            let mix = (*mix).to_string();
            std::thread::spawn(move || {
                (mix.clone(), post_run(&addr, &run_body(&mix, ExperimentOptions::quick())))
            })
        })
        .collect();
    for t in threads {
        let (mix, (status, body)) = t.join().expect("run thread");
        assert_eq!(status, 200, "{mix}: {body}");
        let (_, report) = split_envelope(&body).expect("enveloped response");
        assert!(
            report.contains(&format!("\"mix\":\"{mix}\"")),
            "{mix} report names its mix: {report}"
        );
    }

    let (status, metrics) =
        http::exchange(&addr, "GET", "/metrics", None, EXCHANGE_TIMEOUT).expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("melreq_requests_total{endpoint=\"run\"} 4"), "metrics: {metrics}");
    assert!(metrics.contains("melreq_responses_total{code=\"200\"}"), "metrics: {metrics}");

    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_requests_are_rejected_up_front() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();

    // Stale client schema: refused before any simulation runs.
    let stale = run_body("2MEM-1", ExperimentOptions::quick())
        .replace(&format!("\"schema_version\":{SCHEMA_VERSION}"), "\"schema_version\":999");
    let (status, body) = post_run(&addr, &stale);
    assert_eq!(status, 400, "schema mismatch: {body}");
    assert!(body.contains("\"kind\":\"usage\""), "400 body: {body}");
    assert!(body.contains("schema"), "the error names the schema: {body}");

    // /run is single-policy; policy sets belong on /compare.
    let multi = SimRequest::new("2MEM-1")
        .policies(vec![
            PolicyKind::parse("hf-rf").expect("policy token"),
            PolicyKind::parse("me-lreq").expect("policy token"),
        ])
        .opts(ExperimentOptions::quick())
        .to_json();
    let (status, body) = post_run(&addr, &multi);
    assert_eq!(status, 400, "/run with two policies: {body}");
    assert!(body.contains("exactly one policy"), "400 body: {body}");

    // Unknown endpoint and wrong method keep their HTTP semantics.
    let (status, _) =
        http::exchange(&addr, "GET", "/nope", None, EXCHANGE_TIMEOUT).expect("GET /nope");
    assert_eq!(status, 404);
    let (status, _) =
        http::exchange(&addr, "GET", "/run", None, EXCHANGE_TIMEOUT).expect("GET /run");
    assert_eq!(status, 405);

    handle.shutdown();
    handle.join();
}

/// No body sizes the pool: naming a thread count, or more policies than
/// a request may fork windows for, is refused while parsing — nothing is
/// queued, and the one worker still serves the next request.
#[test]
fn a_thread_count_or_too_many_policies_is_refused_before_admission() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();
    let compare = |body: &str| {
        http::exchange(&addr, "POST", "/compare", Some(body), EXCHANGE_TIMEOUT).expect("POST")
    };
    let many = vec!["\"hf-rf\""; 33].join(",");
    for (body, names) in [
        (r#"{"mix":"2MEM-1","policies":["hf-rf","me-lreq"],"threads":2}"#.to_string(), "'threads'"),
        (format!(r#"{{"mix":"2MEM-1","policies":[{many}]}}"#), "at most 32"),
    ] {
        let (status, text) = compare(&body);
        assert_eq!(status, 400, "{text}");
        assert!(text.contains("\"kind\":\"usage\"") && text.contains(names), "{text}");
        assert_eq!(metric_value(&addr, "melreq_queue_depth"), 0.0);
    }
    let (status, text) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "{text}");
    handle.shutdown();
    handle.join();
}

#[test]
fn bodies_the_kernel_would_assert_on_answer_400_and_the_only_worker_survives() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();
    // Each of these once panicked the worker that picked it up, for good.
    for (body, field) in [
        (r#"{"mix":"2MEM-1","policy":"me-lreq-on(epoch=0)"}"#, "'epoch'"),
        (r#"{"mix":"2MEM-1","policy":"me-lreq","instructions":0}"#, "instructions"),
        (r#"{"mix":"2MEM-1","policy":"me-lreq","profile_instructions":0}"#, "profile_instructions"),
    ] {
        let (status, text) = post_run(&addr, body);
        assert_eq!(status, 400, "{body}: {text}");
        assert!(text.contains("\"kind\":\"usage\""), "{body}: {text}");
        assert!(text.contains(field), "the 400 must name {field}: {text}");
    }
    // The worker is still there, and a mix is one mix however it is
    // spelled.
    let (status, text) = post_run(&addr, &run_body("2mem-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "a valid /run after the three: {text}");
    assert!(text.contains("\"mix\":\"2MEM-1\""), "roster spelling in the report: {text}");
    assert!(metric_value(&addr, "melreq_serve_worker_panics_total") < 0.5);
    let (status, _) =
        http::exchange(&addr, "POST", "/shutdown", None, EXCHANGE_TIMEOUT).expect("shutdown");
    assert_eq!(status, 200);
    handle.join();
}

/// The server's store keeps what it read or wrote: of three requests on
/// one mix that differ only in a budget none of them reaches, the first
/// simulates the boundary and the other two are answered from memory —
/// the third off the op tapes the second recorded — with the first's
/// report, byte for byte, and the envelope's `store` still counting.
#[test]
fn three_requests_on_one_mix_reach_its_boundary_once_and_report_the_same_bytes() {
    let dir = TempDir::new("service-resident");
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();
    let answers: Vec<String> = (0..3u64)
        .map(|salt| {
            let body = SimRequest::new("2MIX-1")
                .policy(PolicyKind::parse("me-lreq").expect("policy token"))
                .opts(ExperimentOptions::quick())
                .max_cycles((1 << 40) + salt)
                .to_json();
            let (status, text) = post_run(&addr, &body);
            assert_eq!(status, 200, "request {salt}: {text}");
            text
        })
        .collect();
    let split: Vec<_> = answers.iter().map(|a| split_envelope(a).expect("an envelope")).collect();
    for (nth, (envelope, report)) in split.iter().enumerate() {
        assert_eq!(*report, split[0].1, "request {nth} reports otherwise");
        let (cache, hits) = if nth == 0 { ("cold", 0) } else { ("warm", nth) };
        let want = format!(
            "\"cache\":\"{cache}\",\"store\":{{\"warmup_hits\":{hits},\"warmup_misses\":1,"
        );
        assert!(envelope.contains(&want), "request {nth}: {envelope}");
    }
    for (series, want) in [
        ("melreq_store_warmup_hits_total", 2.0),
        ("melreq_store_warmup_misses_total", 1.0),
        ("melreq_store_resident_hits_total", 2.0),
        ("melreq_store_resident_evictions_total", 0.0),
    ] {
        assert_eq!(metric_value(&addr, series), want, "{series}");
    }
    let resident = metric_value(&addr, "melreq_store_resident_bytes");
    assert!(resident > 500_000.0 && resident < 4_000_000.0, "one 2-core boundary: {resident}");
    handle.shutdown();
    handle.join();
}

#[test]
fn policies_endpoint_lists_the_registry_and_unknown_names_suggest() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();

    // GET /policies: the full registry, versioned, one descriptor per
    // registered scheme with its parameter specs.
    let (status, body) =
        http::exchange(&addr, "GET", "/policies", None, EXCHANGE_TIMEOUT).expect("GET /policies");
    assert_eq!(status, 200, "/policies: {body}");
    assert!(body.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},\"policies\":[")));
    for id in ["hf-rf", "me-lreq", "bliss", "tcm", "fq", "stf"] {
        assert!(body.contains(&format!("\"id\":\"{id}\"")), "missing {id}: {body}");
    }
    assert!(body.contains("\"params\""), "descriptors carry parameter specs: {body}");
    assert!(body.contains("\"threshold\""), "BLISS params missing: {body}");
    let (status, _) =
        http::exchange(&addr, "POST", "/policies", None, EXCHANGE_TIMEOUT).expect("POST");
    assert_eq!(status, 405, "/policies is GET-only");

    // An unknown policy name in a request 400s with a suggestion.
    let bad = run_body("2MEM-1", ExperimentOptions::quick()).replace("me-lreq", "me-lerq");
    let (status, body) = post_run(&addr, &bad);
    assert_eq!(status, 400, "unknown policy: {body}");
    assert!(body.contains("did you mean"), "nearest-name suggestion missing: {body}");

    // A parameterized zoo policy resolves and runs end to end.
    let zoo = SimRequest::new("2MEM-1")
        .policy(PolicyKind::parse("bliss(threshold=2)").expect("policy token"))
        .opts(ExperimentOptions::quick())
        .to_json();
    let (status, body) = post_run(&addr, &zoo);
    assert_eq!(status, 200, "bliss run: {body}");
    assert!(body.contains("\"policy\":\"BLISS\""), "report names the policy: {body}");
    assert!(body.contains("\"harmonic_speedup\""), "fairness metrics missing: {body}");
    assert!(body.contains("\"max_slowdown\""), "fairness metrics missing: {body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn post_shutdown_drains_in_flight_work_then_exits() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();

    // A slow run on the only worker, and a follower coalesced onto it.
    let slow = run_body("2MIX-1", slow_opts());
    let post = |body: &str| {
        let (addr, body) = (addr.clone(), body.to_string());
        std::thread::spawn(move || post_run(&addr, &body))
    };
    let leader = post(&slow);
    await_in_flight(&addr);
    let follower = post(&slow);
    await_metric(&addr, "melreq_inflight_requests", |v| v >= 2.0);

    // Two more requests in flight behind it, queued.
    let in_flight: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()))
            })
        })
        .collect();
    await_metric(&addr, "melreq_inflight_requests", |v| v >= 4.0);

    let (status, body) =
        http::exchange(&addr, "POST", "/shutdown", None, EXCHANGE_TIMEOUT).expect("shutdown");
    assert_eq!(status, 200, "shutdown: {body}");
    assert!(body.contains("draining"), "shutdown body: {body}");

    // Graceful: everything already accepted still completes.
    for t in in_flight {
        let (status, body) = t.join().expect("in-flight thread");
        assert_eq!(status, 200, "drained request: {body}");
    }
    handle.join();

    // The follower was answered before `join` returned: the drain waits
    // for every connection waiting on a job, not only the job's leader.
    let (status, leader_body) = leader.join().expect("leader thread");
    assert_eq!(status, 200, "leader: {leader_body}");
    let (status, body) = follower.join().expect("follower thread");
    assert_eq!(status, 200, "follower: {body}");
    let (env, report) = split_envelope(&body).expect("follower envelope");
    assert!(env.contains("\"cache\":\"coalesced\""), "follower envelope: {env}");
    assert_eq!(report, split_envelope(&leader_body).expect("leader envelope").1);

    // Fully down: new connections are refused.
    assert!(
        http::exchange(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err(),
        "the drained server must stop accepting"
    );
}

/// A follower coalesced onto a run that fails is told what its leader is
/// told, and the failure is counted once: the event loop renders the
/// error once and answers both from it.
#[test]
fn a_follower_of_a_failed_run_gets_its_leaders_error() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();
    let post = |body: String| {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, &body))
    };

    // The only worker is busy with a slow, distinct body, and stays busy
    // past the leader's 1 ms budget.
    let slow = post(run_body("2MIX-1", slow_opts()));
    await_in_flight(&addr);
    await_metric(&addr, "melreq_queue_depth", |v| v == 0.0);

    // The leader's deadline passes while it waits in the queue. The
    // follower sets no budget, but `canonical_bytes` leaves the timeout
    // out, so it coalesces onto the leader's job.
    let req = SimRequest::new("2MEM-1")
        .policy(PolicyKind::parse("me-lreq").expect("policy token"))
        .opts(ExperimentOptions::quick());
    let leader = post(req.clone().timeout_ms(1).to_json());
    await_metric(&addr, "melreq_inflight_requests", |v| v >= 2.0);
    let follower = post(req.to_json());
    await_metric(&addr, "melreq_inflight_requests", |v| v >= 3.0);

    let (status, leader_body) = leader.join().expect("leader thread");
    assert_eq!(status, 504, "leader: {leader_body}");
    assert!(leader_body.contains("expired while queued"), "leader: {leader_body}");
    let (status, follower_body) = follower.join().expect("follower thread");
    assert_eq!(status, 504, "follower: {follower_body}");
    assert_eq!(follower_body, leader_body, "the follower gets its leader's error bytes");
    assert_eq!(slow.join().expect("slow thread").0, 200);

    await_metric(&addr, "melreq_inflight_requests", |v| v == 0.0);
    assert_eq!(metric_value(&addr, "melreq_timeouts_total"), 1.0, "one run timed out");
    assert_eq!(metric_value(&addr, "melreq_serve_coalesced_total"), 0.0, "none served a report");
    handle.shutdown();
    handle.join();
}

#[test]
fn keep_alive_connection_serves_pipelined_and_sequential_requests() {
    let handle = serve(2, 8);
    let addr = handle.addr().to_string();

    // Sequential keep-alive: health, a run, and the metrics scrape all
    // on ONE connection; `Connection: close` only on the last.
    let mut conn = http::ClientConn::connect(&addr, EXCHANGE_TIMEOUT).expect("connect");
    let (status, body) = conn.request("GET", "/healthz", None, false).expect("healthz");
    assert_eq!(status, 200, "{body}");
    let (status, body) = conn
        .request("POST", "/run", Some(&run_body("2MEM-1", ExperimentOptions::quick())), false)
        .expect("run");
    assert_eq!(status, 200, "{body}");
    let (status, metrics) = conn.request("GET", "/metrics", None, true).expect("metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("melreq_connections_total 1"),
        "all three requests share one connection: {metrics}"
    );

    // Pipelining: two requests written back-to-back arrive in one
    // buffer; both responses come back, in order, on the same socket.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let one = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n");
    raw.write_all(format!("{one}{one}").as_bytes()).expect("pipelined write");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = raw.read(&mut chunk).expect("pipelined read");
        assert!(n > 0, "server closed before both pipelined responses");
        buf.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&buf);
        if text.matches("\"status\":\"ok\"").count() >= 2 {
            assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{text}");
            break;
        }
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn coalesced_identical_requests_run_one_simulation_with_identical_bytes() {
    let handle = serve(4, 8);
    let addr = handle.addr().to_string();

    // A leader heavy enough to still be in flight when the followers
    // arrive, then five byte-identical requests.
    let body = run_body("2MEM-1", slow_opts());
    let leader = {
        let addr = addr.clone();
        let body = body.clone();
        std::thread::spawn(move || post_run(&addr, &body))
    };
    await_in_flight(&addr);
    let followers: Vec<_> = (0..5)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || post_run(&addr, &body))
        })
        .collect();

    let (status, leader_body) = leader.join().expect("leader thread");
    assert_eq!(status, 200, "leader: {leader_body}");
    let (leader_env, leader_report) = split_envelope(&leader_body).expect("leader envelope");
    assert!(leader_env.contains("\"cache\":\"cold\""), "leader envelope: {leader_env}");

    for f in followers {
        let (status, body) = f.join().expect("follower thread");
        assert_eq!(status, 200, "follower: {body}");
        let (env, report) = split_envelope(&body).expect("follower envelope");
        assert_eq!(report, leader_report, "coalesced report bytes must be identical");
        assert!(env.contains("\"cache\":\"coalesced\""), "follower envelope: {env}");
    }

    // The store/session side proves it: exactly ONE simulation executed
    // for all six requests, and five of them coalesced onto it.
    assert_eq!(metric_value(&addr, "melreq_simulations_total"), 1.0);
    assert_eq!(metric_value(&addr, "melreq_serve_coalesced_total"), 5.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn response_cache_serves_repeats_and_evicts_lru_at_tiny_cap() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        response_cache: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    let a = run_body("2MEM-1", ExperimentOptions::quick());
    let b = run_body("2MEM-2", ExperimentOptions::quick());

    let (status, cold) = post_run(&addr, &a);
    assert_eq!(status, 200, "cold run: {cold}");
    let (env, cold_report) = split_envelope(&cold).expect("cold envelope");
    assert!(env.contains("\"cache\":\"cold\""), "first A is cold: {env}");

    let (status, hit) = post_run(&addr, &a);
    assert_eq!(status, 200, "cached run: {hit}");
    let (env, hit_report) = split_envelope(&hit).expect("hit envelope");
    assert!(env.contains("\"cache\":\"response\""), "repeat A hits the cache: {env}");
    assert_eq!(hit_report, cold_report, "cached report bytes identical to the cold run");

    // B displaces A from the 1-entry cache; A must re-run cold.
    let (status, _) = post_run(&addr, &b);
    assert_eq!(status, 200);
    let (status, third) = post_run(&addr, &a);
    assert_eq!(status, 200);
    let (env, _) = split_envelope(&third).expect("post-eviction envelope");
    assert!(env.contains("\"cache\":\"cold\""), "evicted entry re-runs: {env}");

    assert_eq!(metric_value(&addr, "melreq_serve_cache_hits_total"), 1.0);
    assert_eq!(metric_value(&addr, "melreq_serve_cache_misses_total"), 3.0);
    assert!(metric_value(&addr, "melreq_serve_cache_evictions_total") >= 1.0);

    handle.shutdown();
    handle.join();
}

fn cached_server(response_cache: usize) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        response_cache,
        ..ServeConfig::default()
    })
    .expect("start server")
}

/// The `"cache"` field of an answer's envelope ("-" for an error body).
fn cache_of(answer: &str) -> String {
    let parsed = Json::parse(answer).unwrap_or_else(|e| panic!("{e}: {answer}"));
    parsed.get("cache").and_then(Json::as_str).unwrap_or("-").to_string()
}

/// The event loop memoizes each body's canonical key, and a memoized key
/// is still the canonical one: another spelling of the mix, or the same
/// fields in another order, is the same request and hits its entry.
#[test]
fn a_memoized_body_keeps_the_canonical_key_contract() {
    let handle = cached_server(4);
    let addr = handle.addr().to_string();
    let lower = run_body("2mem-1", ExperimentOptions::quick());
    let upper = run_body("2MEM-1", ExperimentOptions::quick());
    let reordered = r#"{"profile_instructions":10000,"warmup":10000,"instructions":20000,"policy":"me-lreq","mix":"2MEM-1"}"#;
    let key = |body: &str| SimRequest::from_json(body).expect("parses").canonical_bytes();
    assert_eq!(key(&lower), key(&upper));
    assert_eq!(key(&lower), key(reordered), "the three bodies are one request");

    let (status, cold) = post_run(&addr, &lower);
    assert_eq!(status, 200, "{cold}");
    assert_eq!(cache_of(&cold), "cold");
    let report = split_envelope(&cold).expect("an envelope").1;
    for body in [&lower, &upper, reordered, &lower, &upper, reordered] {
        let (status, answer) = post_run(&addr, body);
        assert_eq!(status, 200, "{answer}");
        assert_eq!(cache_of(&answer), "response", "{body}");
        assert_eq!(split_envelope(&answer).expect("an envelope").1, report);
    }
    assert_eq!(metric_value(&addr, "melreq_simulations_total"), 1.0);
    assert_eq!(metric_value(&addr, "melreq_serve_cache_hits_total"), 6.0);

    handle.shutdown();
    handle.join();
}

/// A body whose key is memoized but whose report the cache has evicted is
/// simulated again, with the same report bytes. The two bodies that evict
/// it are padded past the memo's byte bound (the server's 1 MiB body cap,
/// counted over bodies and keys), so they never enter the memo and leave
/// its entry in place; they are answered, and repeated, like any other.
#[test]
fn a_memoized_body_whose_report_was_evicted_simulates_again() {
    const MAX_BODY: usize = 1 << 20;
    let handle = cached_server(2);
    let addr = handle.addr().to_string();
    let padded = |mix: &str| {
        let body = run_body(mix, ExperimentOptions::quick());
        let pad = MAX_BODY - 16 - body.len();
        format!("{{{}{}", " ".repeat(pad), &body[1..])
    };
    let small = run_body("2MEM-1", ExperimentOptions::quick());
    let (big_a, big_b) = (padded("2MEM-2"), padded("2MIX-1"));

    let (status, first) = post_run(&addr, &small);
    assert_eq!((status, cache_of(&first).as_str()), (200, "cold"), "{first}");
    for big in [&big_a, &big_b] {
        let (status, answer) = post_run(&addr, big);
        assert_eq!((status, cache_of(&answer).as_str()), (200, "cold"), "{answer}");
    }
    assert!(metric_value(&addr, "melreq_serve_cache_evictions_total") >= 1.0);
    let (status, again) = post_run(&addr, &small);
    assert_eq!((status, cache_of(&again).as_str()), (200, "cold"), "evicted: {again}");
    assert_eq!(split_envelope(&again).map(|e| e.1), split_envelope(&first).map(|e| e.1));

    // A body too large to memoize still finds its report by its key.
    let (status, repeat) = post_run(&addr, &big_b);
    assert_eq!((status, cache_of(&repeat).as_str()), (200, "response"), "{repeat}");
    assert_eq!(metric_value(&addr, "melreq_simulations_total"), 4.0);

    handle.shutdown();
    handle.join();
}

/// The memo is per endpoint and holds only bodies that parsed there: a
/// two-policy body is a valid `/compare` and an invalid `/run`, whichever
/// the server saw first and however often.
#[test]
fn a_two_policy_body_is_refused_at_run_on_every_repeat_and_served_at_compare() {
    let handle = cached_server(4);
    let addr = handle.addr().to_string();
    let multi = SimRequest::new("2MEM-1")
        .policies(vec![
            PolicyKind::parse("hf-rf").expect("policy token"),
            PolicyKind::parse("me-lreq").expect("policy token"),
        ])
        .opts(ExperimentOptions::quick())
        .to_json();
    let compare =
        || http::exchange(&addr, "POST", "/compare", Some(&multi), EXCHANGE_TIMEOUT).expect("POST");
    let refused = || {
        let (status, answer) = post_run(&addr, &multi);
        assert_eq!(status, 400, "{answer}");
        assert!(answer.contains("exactly one policy"), "{answer}");
    };
    refused();
    refused();
    for round in 0..3 {
        let (status, answer) = compare();
        assert_eq!(status, 200, "{answer}");
        assert_eq!(cache_of(&answer) == "response", round > 0, "{answer}");
        refused();
    }

    handle.shutdown();
    handle.join();
}

/// A response hit's lifecycle is parse (the body decoded by a memo lookup),
/// render (cache probe and envelope) and flush: its stages add up to its
/// total, as a miss's stay within theirs.
#[test]
fn a_response_hits_stages_add_up_to_its_total_in_the_access_log() {
    let dir = TempDir::new("hitstages");
    let log = dir.join("access.jsonl");
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        response_cache: 2,
        access_log: Some(log.clone()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();
    let body = run_body("2MEM-1", ExperimentOptions::quick());
    for _ in 0..3 {
        assert_eq!(post_run(&addr, &body).0, 200);
    }
    handle.shutdown();
    handle.join();

    let text = std::fs::read_to_string(&log).expect("access log written");
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("a JSON line")).collect();
    let caches: Vec<_> = lines.iter().map(|l| l.get("cache").and_then(Json::as_str)).collect();
    assert_eq!(caches, [Some("cold"), Some("response"), Some("response")], "{text}");
    for line in &lines {
        let us = |key: &str| line.get(key).and_then(Json::as_u64).expect(key);
        let stages: u64 =
            ["parse_us", "queue_us", "execute_us", "render_us", "flush_us"].map(us).iter().sum();
        assert!(stages <= us("total_us"), "stages are disjoint: {text}");
        if line.get("cache").and_then(Json::as_str) == Some("response") {
            assert_eq!((us("queue_us"), us("execute_us")), (0, 0), "{text}");
            assert!(us("total_us") - stages <= 1000, "a hit's stages are its total: {text}");
        }
    }
}

/// Read `n` whole `Content-Length`-framed responses from `stream`.
fn read_responses(stream: &mut std::net::TcpStream, n: usize) -> Vec<(u16, String)> {
    use std::io::Read;
    let (mut buf, mut out, mut chunk) = (Vec::new(), Vec::new(), [0u8; 4096]);
    while out.len() < n {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..at]).expect("utf-8 head").to_string();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no length: {head}"));
            if buf.len() >= at + 4 + length {
                let status = head[9..12].parse().expect("a status");
                let body = String::from_utf8(buf[at + 4..at + 4 + length].to_vec()).expect("utf-8");
                out.push((status, body));
                buf.drain(..at + 4 + length);
                continue;
            }
        }
        let got = stream.read(&mut chunk).expect("read");
        assert!(got > 0, "closed after {} of {n} responses", out.len());
        buf.extend_from_slice(&chunk[..got]);
    }
    assert!(buf.is_empty(), "bytes past the last response");
    out
}

/// The event loop stops reading at the first short read and leaves the
/// rest to level-triggered epoll, which reports bytes that come later, or
/// the FIN, on its next wait. A head and its body 20 ms apart, two
/// requests in one write, and a request followed at once by the client's
/// FIN are all answered, and the last connection is then closed.
#[test]
fn requests_are_answered_however_their_bytes_arrive() {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};
    let handle = cached_server(4);
    let addr = handle.addr().to_string();
    let request = |mix: &str| {
        let body = run_body(mix, ExperimentOptions::quick());
        let head =
            format!("POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len());
        (head, body)
    };
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(EXCHANGE_TIMEOUT)).expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        stream
    };
    let (head, body) = request("2MEM-1");

    let mut split = connect();
    split.write_all(head.as_bytes()).expect("write head");
    std::thread::sleep(Duration::from_millis(20));
    split.write_all(body.as_bytes()).expect("write body");
    let answers = read_responses(&mut split, 1);
    assert_eq!((answers[0].0, cache_of(&answers[0].1).as_str()), (200, "cold"), "{answers:?}");

    let mut pipelined = connect();
    let health = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    pipelined.write_all(format!("{head}{body}{health}").as_bytes()).expect("pipelined write");
    let answers = read_responses(&mut pipelined, 2);
    assert_eq!((answers[0].0, cache_of(&answers[0].1).as_str()), (200, "response"));
    assert_eq!(answers[1].0, 200);
    assert!(answers[1].1.contains("\"status\":\"ok\""), "in order: {answers:?}");

    let (head, body) = request("2MEM-2");
    let mut fin = connect();
    fin.write_all(format!("{head}{body}").as_bytes()).expect("write");
    fin.shutdown(Shutdown::Write).expect("shutdown(Write)");
    let answers = read_responses(&mut fin, 1);
    assert_eq!((answers[0].0, cache_of(&answers[0].1).as_str()), (200, "cold"), "{answers:?}");
    assert_eq!(fin.read(&mut [0u8; 1]).expect("read to EOF"), 0, "answered, then closed");

    drop((split, pipelined, fin));
    // The scrape's own connection is the only one left open.
    await_metric(&addr, "melreq_open_connections", |v| v == 1.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn sequential_cached_hits_on_one_client_connection_do_not_wait_for_delayed_acks() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        response_cache: 4,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();
    let body = run_body("2MEM-1", ExperimentOptions::quick());
    let mut conn = http::ClientConn::connect(&addr, EXCHANGE_TIMEOUT).expect("connect");
    let (status, cold) = conn.request("POST", "/run", Some(&body), false).expect("cold run");
    assert_eq!(status, 200, "cold run: {cold}");

    // A request sent as head then body on a socket with Nagle on costs
    // one delayed ACK (~40 ms) on every exchange: 20 hits took ~880 ms.
    // Judged at the median pace, so a test thread that loses the CPU to
    // its neighbours for a few exchanges does not fail the test.
    let mut times = Vec::new();
    for _ in 0..20 {
        let started = std::time::Instant::now();
        let (status, hit) = conn.request("POST", "/run", Some(&body), false).expect("cached run");
        times.push(started.elapsed());
        assert_eq!(status, 200);
        assert!(hit.contains("\"cache\":\"response\""), "repeat hits the cache: {hit}");
    }
    times.sort();
    let at_median_pace = times[times.len() / 2] * 20;
    assert!(at_median_pace < Duration::from_millis(200), "20 cached hits take {at_median_pace:?}");

    handle.shutdown();
    handle.join();
}

/// Assert one histogram family's text rendering is well-formed for the
/// sample lines matching `label_filter`: `le` bounds strictly increase,
/// bucket counts are cumulative (non-decreasing), and the `+Inf` bucket
/// equals `_count`.
fn assert_histogram_conformant(text: &str, family: &str, label_filter: &str) {
    let value_of = |line: &str| -> f64 {
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparseable sample value in line: {line}"))
    };
    let bucket_prefix = format!("{family}_bucket{{");
    let mut prev_bound = f64::NEG_INFINITY;
    let mut prev_count = -1.0;
    let mut inf_count = None;
    let mut buckets = 0;
    for line in text.lines().filter(|l| l.starts_with(&bucket_prefix) && l.contains(label_filter)) {
        let le_at = line.find("le=\"").unwrap_or_else(|| panic!("bucket without le: {line}"));
        let rest = &line[le_at + 4..];
        let le = &rest[..rest.find('"').expect("unterminated le label")];
        let v = value_of(line);
        assert!(v >= prev_count, "bucket counts must be cumulative: {line}");
        prev_count = v;
        if le == "+Inf" {
            inf_count = Some(v);
        } else {
            let bound: f64 = le.parse().unwrap_or_else(|_| panic!("bad le bound: {line}"));
            assert!(bound > prev_bound, "le bounds must increase: {line}");
            prev_bound = bound;
        }
        buckets += 1;
    }
    assert!(buckets > 1, "family {family} ({label_filter}) has no buckets:\n{text}");
    let count_line = text
        .lines()
        .find(|l| l.starts_with(&format!("{family}_count")) && l.contains(label_filter))
        .unwrap_or_else(|| panic!("{family}_count ({label_filter}) missing:\n{text}"));
    assert_eq!(
        inf_count.expect("+Inf bucket missing"),
        value_of(count_line),
        "le=\"+Inf\" must equal _count for {family} ({label_filter})"
    );
}

/// The `le` bounds of every latency histogram on the page, `+Inf` last.
const LE: [&str; 17] = [
    "0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1",
    "2.5", "5", "10", "30", "60", "+Inf",
];

/// The `/metrics` page with its values cut off: every `# HELP` and
/// `# TYPE` line and every sample name, labels included, in page order.
/// A store-backed server adds the checkpoint store's seven families.
fn page_skeleton(store: bool) -> Vec<String> {
    let mut page = Vec::new();
    let mut family = |name: &str, kind: &str, help: &str, samples: Vec<String>| {
        page.push(format!("# HELP {name} {help}"));
        page.push(format!("# TYPE {name} {kind}"));
        page.extend(samples);
    };
    let labelled = |name: &str, label: &str, values: &[&str]| -> Vec<String> {
        values.iter().map(|v| format!("{name}{{{label}=\"{v}\"}}")).collect()
    };
    let histogram = |name: &str, label: &str| -> Vec<String> {
        let (lead, braced) = if label.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{label},"), format!("{{{label}}}"))
        };
        let mut samples: Vec<String> =
            LE.iter().map(|le| format!("{name}_bucket{{{lead}le=\"{le}\"}}")).collect();
        samples.push(format!("{name}_sum{braced}"));
        samples.push(format!("{name}_count{braced}"));
        samples
    };
    let endpoints = ["run", "compare", "healthz", "metrics", "shutdown", "buildinfo", "policies"];
    let name = "melreq_requests_total";
    family(
        name,
        "counter",
        "Requests received, by endpoint.",
        labelled(name, "endpoint", &endpoints),
    );
    let codes = ["200", "400", "404", "405", "429", "500", "504"];
    let name = "melreq_responses_total";
    family(name, "counter", "Responses sent, by status code.", labelled(name, "code", &codes));
    for (name, kind, help) in [
        ("melreq_rejected_total", "counter", "Requests rejected by queue backpressure (429)."),
        ("melreq_timeouts_total", "counter", "Requests that exceeded their wall-clock deadline."),
        ("melreq_queue_depth", "gauge", "Jobs waiting in the bounded queue."),
        (
            "melreq_inflight_requests",
            "gauge",
            "Simulation requests admitted (queued, running, or coalesced) and not yet answered.",
        ),
        ("melreq_open_connections", "gauge", "Connections currently held by the event loop."),
        ("melreq_connections_total", "counter", "Connections accepted since start."),
        ("melreq_sim_cycles_total", "counter", "Simulated cycles executed on behalf of requests."),
        (
            "melreq_simulations_total",
            "counter",
            "Simulations actually executed by the worker pool (cached and coalesced requests excluded).",
        ),
        ("melreq_serve_cache_hits_total", "counter", "Requests answered from the response cache."),
        (
            "melreq_serve_cache_misses_total",
            "counter",
            "Cache-enabled requests that missed the response cache.",
        ),
        (
            "melreq_serve_cache_evictions_total",
            "counter",
            "Entries evicted from the response cache (LRU, bounded capacity).",
        ),
        (
            "melreq_serve_coalesced_total",
            "counter",
            "Requests coalesced onto an identical in-flight simulation.",
        ),
        (
            "melreq_serve_worker_panics_total",
            "counter",
            "Simulations that panicked; each answered 500 and the worker carried on.",
        ),
    ] {
        family(name, kind, help, vec![name.to_string()]);
    }
    let name = "melreq_serve_request_duration_seconds";
    let help = "End-to-end simulation request latency: parse start to final flush.";
    family(name, "histogram", help, histogram(name, ""));
    let name = "melreq_serve_request_stage_duration_seconds";
    let stages = ["parse", "queue", "execute", "render", "flush"];
    let samples = stages.iter().flat_map(|s| histogram(name, &format!("stage=\"{s}\""))).collect();
    family(name, "histogram", "Simulation request latency by lifecycle stage.", samples);
    if store {
        for (name, kind) in [
            ("melreq_store_warmup_hits_total", "counter"),
            ("melreq_store_warmup_misses_total", "counter"),
            ("melreq_store_profile_hits_total", "counter"),
            ("melreq_store_profile_misses_total", "counter"),
            ("melreq_store_resident_hits_total", "counter"),
            ("melreq_store_resident_evictions_total", "counter"),
            ("melreq_store_resident_bytes", "gauge"),
        ] {
            family(
                name,
                kind,
                "Checkpoint-store activity since server start.",
                vec![name.to_string()],
            );
        }
    }
    page
}

/// The `/metrics` page is the scrape contract, pinned line by line for a
/// storeless and a store-backed server after one scripted session: its
/// families in order, each declared once with its samples below it, the
/// exact values of every count the script determines, and well-formed
/// latency histograms.
#[test]
fn metrics_text_format_is_prometheus_conformant() {
    for store in [false, true] {
        let dir = TempDir::new("service-page");
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_cap: 4,
            store_dir: store.then(|| dir.to_path_buf()),
            response_cache: 4,
            ..ServeConfig::default()
        })
        .expect("start server");
        let addr = handle.addr().to_string();
        let run = run_body("2MEM-1", ExperimentOptions::quick());
        // One connection each: a simulation, its repeat at both
        // endpoints (cache hits: one key), an undecodable body, the
        // other endpoints, and two misroutes (counted by status only).
        let script = [
            ("POST", "/run", Some(run.as_str()), 200),
            ("POST", "/run", Some(run.as_str()), 200),
            ("POST", "/compare", Some(run.as_str()), 200),
            ("POST", "/run", Some("{"), 400),
            ("GET", "/healthz", None, 200),
            ("GET", "/buildinfo", None, 200),
            ("GET", "/policies", None, 200),
            ("GET", "/nowhere", None, 404),
            ("GET", "/run", None, 405),
        ];
        for (method, path, body, want) in script {
            let (status, text) =
                http::exchange(&addr, method, path, body, EXCHANGE_TIMEOUT).expect(path);
            assert_eq!(status, want, "{method} {path}: {text}");
        }

        let (status, text) =
            http::exchange(&addr, "GET", "/metrics", None, EXCHANGE_TIMEOUT).expect("metrics");
        assert_eq!(status, 200);

        // Every family announces itself with HELP then TYPE before its
        // samples, and every sample line parses as `name[{labels}] value`.
        let mut helped: Vec<String> = Vec::new();
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.push(rest.split(' ').next().expect("family name").to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let family = it.next().expect("family name").to_string();
                let kind = it.next().expect("metric kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE kind: {line}"
                );
                assert!(helped.contains(&family), "TYPE before HELP for {family}:\n{text}");
                typed.push(family);
            } else {
                let (name, value) =
                    line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed sample: {line}"));
                assert!(value.parse::<f64>().is_ok(), "sample value must parse as a float: {line}");
                // The family is the name up to `{`, with histogram-series
                // suffixes stripped; it must have been declared.
                let base = name.split('{').next().expect("sample name");
                let family = base
                    .strip_suffix("_bucket")
                    .or_else(|| base.strip_suffix("_sum"))
                    .or_else(|| base.strip_suffix("_count"))
                    .unwrap_or(base);
                assert!(
                    typed.contains(&family.to_string()) || typed.contains(&base.to_string()),
                    "sample without TYPE declaration: {line}"
                );
            }
        }

        // Each family is declared once, and its samples follow its TYPE
        // line without another family's in between.
        let mut current = "";
        let mut declared: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                current = rest.split(' ').next().expect("family name");
                assert!(!declared.contains(&current), "{current} declared twice:\n{text}");
                declared.push(current);
            } else if !line.starts_with('#') {
                let name = line.split(['{', ' ']).next().expect("sample name");
                assert!(name.starts_with(current), "{line} is not under its family {current}");
            }
        }
        assert_eq!(declared.len(), if store { 24 } else { 17 }, "families:\n{text}");

        // The page, in order, line by line, values aside.
        let skeleton: Vec<&str> = text
            .lines()
            .map(|l| if l.starts_with('#') { l } else { l.rsplit_once(' ').expect("sample").0 })
            .collect();
        assert_eq!(skeleton, page_skeleton(store), "the page's lines, store {store}");

        // What the script determines. The scrape counts as a request (to
        // /metrics, on its own connection) but not yet as a response.
        let value = |sample: &str| -> &str {
            text.lines()
                .find_map(|l| l.strip_prefix(sample)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("{sample} missing:\n{text}"))
        };
        for (sample, want) in [
            ("melreq_requests_total{endpoint=\"run\"}", "3"),
            ("melreq_requests_total{endpoint=\"compare\"}", "1"),
            ("melreq_requests_total{endpoint=\"healthz\"}", "1"),
            ("melreq_requests_total{endpoint=\"metrics\"}", "1"),
            ("melreq_requests_total{endpoint=\"shutdown\"}", "0"),
            ("melreq_requests_total{endpoint=\"buildinfo\"}", "1"),
            ("melreq_requests_total{endpoint=\"policies\"}", "1"),
            ("melreq_responses_total{code=\"200\"}", "6"),
            ("melreq_responses_total{code=\"400\"}", "1"),
            ("melreq_responses_total{code=\"404\"}", "1"),
            ("melreq_responses_total{code=\"405\"}", "1"),
            ("melreq_responses_total{code=\"429\"}", "0"),
            ("melreq_responses_total{code=\"500\"}", "0"),
            ("melreq_responses_total{code=\"504\"}", "0"),
            ("melreq_rejected_total", "0"),
            ("melreq_timeouts_total", "0"),
            ("melreq_queue_depth", "0"),
            ("melreq_inflight_requests", "0"),
            ("melreq_open_connections", "1"),
            ("melreq_connections_total", &(script.len() + 1).to_string()),
            ("melreq_simulations_total", "1"),
            ("melreq_serve_cache_hits_total", "2"),
            ("melreq_serve_cache_misses_total", "1"),
            ("melreq_serve_cache_evictions_total", "0"),
            ("melreq_serve_coalesced_total", "0"),
            ("melreq_serve_worker_panics_total", "0"),
        ] {
            assert_eq!(value(sample), want, "{sample}, store {store}");
        }

        // The families, and what each says it counts, are the scrape
        // contract: exactly these names with exactly this help text.
        if !store {
            let mut help: Vec<&str> =
                text.lines().filter_map(|l| l.strip_prefix("# HELP ")).collect();
            help.sort_unstable();
            let expected = [
                "melreq_connections_total Connections accepted since start.",
                "melreq_inflight_requests Simulation requests admitted (queued, running, or coalesced) and not yet answered.",
                "melreq_open_connections Connections currently held by the event loop.",
                "melreq_queue_depth Jobs waiting in the bounded queue.",
                "melreq_rejected_total Requests rejected by queue backpressure (429).",
                "melreq_requests_total Requests received, by endpoint.",
                "melreq_responses_total Responses sent, by status code.",
                "melreq_serve_cache_evictions_total Entries evicted from the response cache (LRU, bounded capacity).",
                "melreq_serve_cache_hits_total Requests answered from the response cache.",
                "melreq_serve_cache_misses_total Cache-enabled requests that missed the response cache.",
                "melreq_serve_coalesced_total Requests coalesced onto an identical in-flight simulation.",
                "melreq_serve_request_duration_seconds End-to-end simulation request latency: parse start to final flush.",
                "melreq_serve_request_stage_duration_seconds Simulation request latency by lifecycle stage.",
                "melreq_serve_worker_panics_total Simulations that panicked; each answered 500 and the worker carried on.",
                "melreq_sim_cycles_total Simulated cycles executed on behalf of requests.",
                "melreq_simulations_total Simulations actually executed by the worker pool (cached and coalesced requests excluded).",
                "melreq_timeouts_total Requests that exceeded their wall-clock deadline.",
            ];
            assert_eq!(help, expected, "a storeless server's `# HELP` lines, sorted");
        }

        // The request-latency histograms exist and are well-formed: the
        // total and one series per lifecycle stage.
        assert!(
            text.contains("# TYPE melreq_serve_request_duration_seconds histogram"),
            "request-duration histogram missing:\n{text}"
        );
        assert_histogram_conformant(&text, "melreq_serve_request_duration_seconds", "");
        for stage in ["parse", "queue", "execute", "render", "flush"] {
            assert_histogram_conformant(
                &text,
                "melreq_serve_request_stage_duration_seconds",
                &format!("stage=\"{stage}\""),
            );
        }

        handle.shutdown();
        handle.join();
    }
}

#[test]
fn buildinfo_endpoint_reports_configuration() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_cap: 5,
        store_dir: None,
        response_cache: 7,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    let (status, body) =
        http::exchange(&addr, "GET", "/buildinfo", None, EXCHANGE_TIMEOUT).expect("buildinfo");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        "{\"name\":\"melreq-serve\",\"version\":\"0.1.0\",\"schema_version\":7,\
         \"poller\":\"epoll\",\"workers\":3,\"queue_cap\":5,\"response_cache\":7,\
         \"store\":false,\"profiling\":false,\"access_log\":false}"
    );
    let (status, _) =
        http::exchange(&addr, "POST", "/buildinfo", None, EXCHANGE_TIMEOUT).expect("POST");
    assert_eq!(status, 405, "buildinfo is GET-only");

    handle.shutdown();
    handle.join();
}

#[test]
fn access_log_appends_one_structured_line_per_request() {
    let dir = TempDir::new("accesslog");
    let log = dir.join("access.jsonl");
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        access_log: Some(log.clone()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    // Two sim requests get logged; operator endpoints do not.
    let (status, _) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200);
    let (status, _) = post_run(&addr, &run_body("2MEM-2", ExperimentOptions::quick()));
    assert_eq!(status, 200);
    let (status, _) =
        http::exchange(&addr, "GET", "/healthz", None, EXCHANGE_TIMEOUT).expect("healthz");
    assert_eq!(status, 200);
    handle.shutdown();
    handle.join();

    let text = std::fs::read_to_string(&log).expect("access log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one line per simulation request:\n{text}");
    for (line, id) in lines.iter().zip(1u64..) {
        // Exactly these ten keys, in this order: consumers cut columns.
        let parsed = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let keys: Vec<&str> =
            parsed.as_obj().expect("an object").iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys.join(" "),
            "id endpoint status cache parse_us queue_us execute_us render_us flush_us total_us",
            "{line}"
        );
        let field = |key| parsed.get(key).unwrap_or_else(|| panic!("{key}: {line}"));
        assert_eq!(field("id").as_u64(), Some(id), "{line}");
        assert_eq!(field("endpoint").as_str(), Some("run"), "{line}");
        assert_eq!(field("status").as_u64(), Some(200), "{line}");
        assert_eq!(field("cache").as_str(), Some("cold"), "{line}");
        assert!(field("execute_us").as_u64() > Some(0), "a simulation takes time: {line}");
    }
}

#[test]
fn profiled_server_records_request_lifecycle_spans() {
    // Enable the host profiler around a whole server lifetime — the same
    // sequence `serve_forever` runs for `--profile PATH` — and check the
    // event loop and the job pool's workers produced lifecycle spans.
    melreq_prof::enable();
    let handle = serve(2, 8);
    let addr = handle.addr().to_string();
    let (status, resp) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "profiled run: {resp}");
    handle.shutdown();
    handle.join();
    melreq_prof::disable();
    let profile = melreq_prof::drain();

    let has = |cat: &str, track_prefix: &str| {
        profile
            .tracks
            .iter()
            .filter(|t| t.label.starts_with(track_prefix))
            .any(|t| t.spans.iter().any(|s| s.cat == cat))
    };
    assert!(has("serve.request", "serve netio"), "request span on the event-loop track");
    assert!(has("serve.parse", "serve netio"), "parse span on the event-loop track");
    // A worker records a request's stages inside the `exec.job` span of
    // the pool job that ran it: the execute stage whole, and the queue
    // wait (which began at admission) up to the moment the job started.
    let in_a_job = |cat: &str, whole: bool| {
        profile.tracks.iter().filter(|t| t.label.starts_with("worker ")).any(|t| {
            let stages: Vec<_> = t.spans.iter().filter(|s| s.cat == cat).collect();
            t.spans.iter().filter(|s| s.cat == "exec.job").any(|job| {
                stages.iter().any(|s| {
                    (!whole || s.start_ns >= job.start_ns)
                        && (job.start_ns..=job.end_ns()).contains(&s.end_ns())
                })
            })
        })
    };
    assert!(in_a_job("serve.execute", true), "execute span inside a worker's exec.job span");
    assert!(in_a_job("serve.queue", false), "queue-wait span ends inside a worker's exec.job");

    // The Perfetto export of that profile is a loadable trace with the
    // summary block `serve_forever` embeds.
    let summary = melreq_prof::summarize(&profile, 5);
    let trace = melreq_obs::export_host_profile(
        &profile,
        "melreq serve",
        &[("summary", summary.render_json())],
    );
    assert!(trace.contains("\"traceEvents\""), "Perfetto envelope missing");
    assert!(trace.contains("serve netio"), "event-loop track missing from export");
}

#[test]
fn idle_keep_alive_connections_are_closed() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        idle_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    let mut conn = http::ClientConn::connect(&addr, Duration::from_secs(5)).expect("connect");
    let (status, _) = conn.request("GET", "/healthz", None, false).expect("healthz");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(800));
    assert!(
        conn.request("GET", "/healthz", None, false).is_err(),
        "a connection idle past the timeout must be closed by the server"
    );

    handle.shutdown();
    handle.join();
}
