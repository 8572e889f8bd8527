//! One pool per process: a served `/compare` forks its policy windows onto
//! the server's own workers instead of opening a pool of its own. The test
//! counts the threads of its process, so it lives alone in this binary:
//! no other test's server can start or stop threads while it counts.

use melreq_core::api::{PolicyKind, Session, SimRequest};
use melreq_core::experiment::{ExperimentOptions, RunControl};
use melreq_serve::{http, split_envelope, start, ServeConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// The threads of this process, as `/proc/self/task` lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn a_one_worker_server_answers_a_five_policy_compare_on_its_own_worker() {
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..ServeConfig::default() };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(300);
    let policies = ["hf-rf", "rr", "lreq", "me", "me-lreq"].map(|p| PolicyKind::parse(p).unwrap());
    let req =
        SimRequest::new("2MEM-1").policies(policies.to_vec()).opts(ExperimentOptions::quick());
    // Once the loop answers, its pool's one worker has started too.
    let (status, _) = http::exchange(&addr, "GET", "/healthz", None, timeout).expect("healthz");
    assert_eq!(status, 200);

    let (stop, most) = (AtomicBool::new(false), AtomicUsize::new(0));
    let (before, (status, answer)) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                most.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let before = threads();
        let body = req.to_json();
        let answer = http::exchange(&addr, "POST", "/compare", Some(&body), timeout);
        stop.store(true, Ordering::Relaxed);
        (before, answer.expect("POST /compare"))
    });
    assert_eq!(status, 200, "{answer}");
    let most = most.load(Ordering::Relaxed);
    assert!(most <= before, "{most} threads during the request, {before} before it");

    let (_, report) = split_envelope(&answer).expect("an envelope");
    let facade = Session::new().run(&req, &RunControl::default()).expect("facade run");
    assert_eq!(report, facade.to_json());
    let (_, metrics) = http::exchange(&addr, "GET", "/metrics", None, timeout).expect("metrics");
    assert!(metrics.lines().any(|l| l == "melreq_serve_worker_panics_total 0"), "{metrics}");
    handle.shutdown();
    handle.join();
}
