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

/// Block until the server holds a `/run` request, queued or executing.
fn await_in_flight(addr: &str) {
    let deadline = Instant::now() + EXCHANGE_TIMEOUT;
    while metric_value(addr, "melreq_inflight_requests") < 1.0 {
        assert!(Instant::now() < deadline, "no request came in flight");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn post_run(addr: &str, body: &str) -> (u16, String) {
    http::exchange(addr, "POST", "/run", Some(body), EXCHANGE_TIMEOUT).expect("POST /run")
}

#[test]
fn queue_overflow_sheds_429_and_the_server_recovers() {
    let handle = serve(1, 1);
    let addr = handle.addr().to_string();

    // Occupy the single worker with a slow run…
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, &run_body("2MEM-1", slow_opts())))
    };
    await_in_flight(&addr);

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
    let dir = std::env::temp_dir().join(format!("melreq-service-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: Some(dir.clone()),
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
    let _ = std::fs::remove_dir_all(&dir);
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

    // Two requests in flight: one running, one queued.
    let in_flight: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

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

    // Fully down: new connections are refused.
    assert!(
        http::exchange(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err(),
        "the drained server must stop accepting"
    );
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

#[test]
fn metrics_text_format_is_prometheus_conformant() {
    let handle = serve(1, 4);
    let addr = handle.addr().to_string();
    let (status, resp) = post_run(&addr, &run_body("2MEM-1", ExperimentOptions::quick()));
    assert_eq!(status, 200, "seed run: {resp}");

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
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "unknown TYPE kind: {line}");
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

    // The families, and what each says it counts, are the scrape
    // contract: exactly these names with exactly this help text.
    let mut help: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("# HELP ")).collect();
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
        "{\"name\":\"melreq-serve\",\"version\":\"0.1.0\",\"schema_version\":4,\
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
    let dir = std::env::temp_dir().join(format!("melreq-accesslog-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
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
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiled_server_records_request_lifecycle_spans() {
    // Enable the host profiler around a whole server lifetime — the same
    // sequence `serve_forever` runs for `--profile PATH` — and check the
    // event loop and worker threads produced lifecycle spans.
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
    assert!(has("serve.execute", "serve-worker-"), "execute span on a worker track");
    assert!(has("serve.queue", "serve-worker-"), "queue-wait span on a worker track");

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
