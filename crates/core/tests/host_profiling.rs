//! Host-profiler inertness: the span profiler observes wall-clock time
//! only, so enabling it must not perturb a single simulated bit. An
//! audited run of all five paper policies is compared byte-for-byte —
//! the versioned report JSON embeds every paper metric and the audit
//! event-stream hashes, so byte equality here is bit equality of the
//! outcomes and of the full audited event streams.

use melreq_core::api::{Session, SimRequest};
use melreq_core::experiment::{ExperimentOptions, RunControl};
use melreq_memctrl::policy::PolicyKind;

#[test]
fn profiling_is_bit_inert_across_all_paper_policies() {
    let policies = vec![
        PolicyKind::HfRf,
        PolicyKind::RoundRobin,
        PolicyKind::Lreq,
        PolicyKind::Me,
        PolicyKind::MeLreq,
    ];
    let req = SimRequest::new("4MEM-1")
        .policies(policies)
        .opts(ExperimentOptions::quick())
        .audit(true)
        .threads(2);

    let unprofiled = Session::new().run(&req, &RunControl::default()).expect("unprofiled run");
    melreq_prof::enable();
    let profiled = Session::new().run(&req, &RunControl::default()).expect("profiled run");
    melreq_prof::disable();
    let profile = melreq_prof::drain();

    assert_eq!(
        unprofiled.to_json(),
        profiled.to_json(),
        "profiled report must be byte-identical (paper metrics AND audit stream hashes)"
    );
    // And the profiled run did actually record something — inertness by
    // inactivity would prove nothing.
    let spans: usize = profile.tracks.iter().map(|t| t.spans.len()).sum();
    assert!(spans > 0, "the profiled arm must have captured spans");
    assert!(
        profile.tracks.iter().any(|t| t.spans.iter().any(|s| s.cat == "session")),
        "the facade session span must be present"
    );
    // Every kernel span says what the kernel did inside it: all of
    // `KernelCounters`, as the work of that call alone.
    let kernel: Vec<_> = profile
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.cat == "warmup" || s.cat == "policy")
        .collect();
    assert_eq!(kernel.len(), 10, "one warm-up and one window per audited policy");
    for span in kernel {
        let keys: Vec<_> = span.args().iter().map(|(k, _)| *k).collect();
        let want: Vec<_> =
            melreq_core::KernelCounters::default().fields().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, want, "{} {}", span.cat, span.name);
        let issued = span.arg("ops_issued").expect("checked above");
        assert!(issued > 0 && span.arg("issue_examined") >= Some(issued), "{span:?}");
    }
}
