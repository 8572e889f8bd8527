//! Golden contract for the service layer: `melreq run --json`, the
//! typed `melreq_core::api` facade, and the HTTP `/run` endpoint must
//! all emit byte-identical reports for the same request — the envelope
//! around the service response is the only permitted difference.
//!
//! Also pins the warm-store path: the second identical request against
//! a store-backed server restores its warm-up from the checkpoint
//! store (`"cache":"warm"` in the envelope) without changing a byte of
//! the report.

use melreq_cli::{parse_args, run_command, PolicySpec};
use melreq_core::api::{Session, SimRequest};
use melreq_core::experiment::{ExperimentOptions, RunControl};
use melreq_core::store::TempDir;
use melreq_serve::{http, split_envelope, start, ServeConfig};
use std::time::Duration;

const MIX: &str = "2MEM-1";
const POLICY: &str = "me-lreq";
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(300);

fn quick_request() -> SimRequest {
    SimRequest::new(MIX)
        .policy(PolicySpec::parse(POLICY).expect("policy token"))
        .opts(ExperimentOptions::quick())
}

#[test]
fn cli_facade_and_service_reports_are_byte_identical() {
    // 1. The CLI's machine-readable report.
    let mut cli = parse_args(&["run", MIX, "--policy", POLICY, "--json"]).expect("command line");
    cli.args.opts = ExperimentOptions::quick();
    let cli_json = run_command(&cli).expect("melreq run --json");

    // 2. The typed facade, called directly.
    let req = quick_request();
    let facade_json =
        Session::new().run(&req, &RunControl::default()).expect("facade run").to_json();
    assert_eq!(cli_json, facade_json, "CLI --json must be exactly SimReport::to_json()");

    // 3. The HTTP service, store-backed so the repeat can go warm.
    let store_dir = TempDir::new("golden-run");
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 8,
        store_dir: Some(store_dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();
    let body = req.to_json();

    let (status, first) =
        http::exchange(&addr, "POST", "/run", Some(&body), EXCHANGE_TIMEOUT).expect("first /run");
    assert_eq!(status, 200, "first /run: {first}");
    let (env, report) = split_envelope(&first).expect("enveloped response");
    assert_eq!(report, facade_json, "service report bytes must match the facade");
    assert!(env.contains("\"cache\":\"cold\""), "first request is cold: {env}");
    assert!(env.contains("\"warmup_misses\""), "store stats in envelope: {env}");

    // Repeat: same bytes, but the warm-up now comes from the store.
    let (status, second) =
        http::exchange(&addr, "POST", "/run", Some(&body), EXCHANGE_TIMEOUT).expect("second /run");
    assert_eq!(status, 200, "second /run: {second}");
    let (env, report) = split_envelope(&second).expect("enveloped response");
    assert_eq!(report, facade_json, "warm restore must not change a byte of the report");
    assert!(env.contains("\"cache\":\"warm\""), "second request hits the store: {env}");

    handle.shutdown();
    handle.join();
}

#[test]
fn response_cache_and_coalescing_replay_the_exact_facade_bytes() {
    let req = quick_request();
    let facade_json =
        Session::new().run(&req, &RunControl::default()).expect("facade run").to_json();

    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        response_cache: 8,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();
    let body = req.to_json();

    // First request simulates (cold, storeless). The second is answered
    // from the LRU response cache — the envelope says so, and the report
    // inside it is byte-for-byte the facade's.
    let (status, first) =
        http::exchange(&addr, "POST", "/run", Some(&body), EXCHANGE_TIMEOUT).expect("first /run");
    assert_eq!(status, 200, "first /run: {first}");
    let (env, report) = split_envelope(&first).expect("enveloped response");
    assert!(env.contains("\"cache\":\"cold\""), "first request simulates: {env}");
    assert_eq!(report, facade_json, "cold report bytes must match the facade");

    let (status, second) =
        http::exchange(&addr, "POST", "/run", Some(&body), EXCHANGE_TIMEOUT).expect("second /run");
    assert_eq!(status, 200, "second /run: {second}");
    let (env, report) = split_envelope(&second).expect("enveloped response");
    assert!(env.contains("\"cache\":\"response\""), "repeat hits the response cache: {env}");
    assert_eq!(report, facade_json, "cached replay must not change a byte of the report");

    handle.shutdown();
    handle.join();
}

#[test]
fn compare_endpoint_matches_the_facade_for_multi_policy_requests() {
    let req = SimRequest::new(MIX)
        .policies(vec![
            PolicySpec::parse("hf-rf").expect("policy token"),
            PolicySpec::parse("me-lreq").expect("policy token"),
        ])
        .opts(ExperimentOptions::quick());
    let facade_json =
        Session::new().run(&req, &RunControl::default()).expect("facade compare").to_json();

    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        store_dir: None,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    let (status, body) =
        http::exchange(&addr, "POST", "/compare", Some(&req.to_json()), EXCHANGE_TIMEOUT)
            .expect("/compare");
    assert_eq!(status, 200, "/compare: {body}");
    let (env, report) = split_envelope(&body).expect("enveloped response");
    assert_eq!(report, facade_json, "/compare report bytes must match the facade");
    assert!(env.contains("\"store\":null"), "storeless server advertises no store: {env}");

    handle.shutdown();
    handle.join();
}
