//! Host-profiler inertness: the span profiler observes wall-clock time
//! only, so enabling it must not perturb a single simulated bit. An
//! audited run of all five paper policies is compared byte-for-byte —
//! the versioned report JSON embeds every paper metric and the audit
//! event-stream hashes, so byte equality here is bit equality of the
//! outcomes and of the full audited event streams.
//!
//! The spans are also where the kernel's work counts surface, so the
//! second test reads them: what the windows of a group fetch against what
//! the group's shared op tapes generate.

use melreq_core::api::{Session, SimRequest};
use melreq_core::experiment::{run_mix_group, ExperimentOptions, ProfileCache, RunControl};
use melreq_memctrl::policy::PolicyKind;
use melreq_workloads::{mix_by_name, Mix, MixKind};
use std::sync::Mutex;

/// The profiler is one per process: one test runs at a time.
static PROFILER: Mutex<()> = Mutex::new(());

fn profiled<T>(run: impl FnOnce() -> T) -> (T, melreq_prof::Profile) {
    melreq_prof::enable();
    let out = run();
    melreq_prof::disable();
    (out, melreq_prof::drain())
}

#[test]
fn profiling_is_bit_inert_across_all_paper_policies() {
    let _alone = PROFILER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    let (profiled, profile) =
        profiled(|| Session::new().run(&req, &RunControl::default()).expect("profiled run"));

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

/// Ops each window of `mix` fetched (its `policy` span, by name) and ops
/// the group's shared tapes generated for them (its `tape` span, absent
/// when the runs generate their own).
fn window_ops(profile: &melreq_prof::Profile, mix: &Mix) -> (Vec<(String, u64)>, Option<u64>) {
    let spans = || profile.tracks.iter().flat_map(|t| &t.spans);
    let mut fetched: Vec<(String, u64)> = spans()
        .filter(|s| s.cat == "policy" && s.name.ends_with(mix.name))
        .map(|s| {
            (s.name.clone(), s.arg("ops_fetched").expect("a kernel span carries every counter"))
        })
        .collect();
    fetched.sort();
    let mut tapes = spans().filter(|s| s.cat == "tape" && s.name == mix.name);
    let generated = tapes.next().map(|s| s.arg("ops_generated").expect("a tape span says so"));
    assert!(tapes.next().is_none(), "one tape span per group");
    (fetched, generated)
}

/// A count that repeats exactly: the five windows forked from one
/// boundary fetch five windows' worth of ops, and the generators behind
/// their shared tapes produce little more than one (as much as the
/// longest-running policy reads, rounded up to a chunk per core) — at any
/// thread count. A run on its own has no tape: what it fetches, its own
/// streams generate, and it fetches what the same run fetches off a tape.
#[test]
fn a_group_generates_its_window_once_whatever_the_thread_count() {
    let _alone = PROFILER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let opts = ExperimentOptions {
        instructions: 40_000,
        warmup: 4_000,
        profile_instructions: 4_000,
        ..ExperimentOptions::default()
    };
    let ilp4 = Mix { name: "4ILP-B", codes: "armo", kind: MixKind::Mixed };
    for (mix, most) in [(ilp4, 0.30), (mix_by_name("8MEM-1"), 0.45)] {
        let count = |policies: &[PolicyKind], threads: usize| {
            let cache = ProfileCache::new();
            let ctl = RunControl { threads: Some(threads), ..RunControl::default() };
            let (_, profile) =
                profiled(|| run_mix_group(&mix, policies, &opts, &cache, None, &ctl));
            window_ops(&profile, &mix)
        };
        let five = PolicyKind::figure2_set();
        let (fetched, generated) = count(&five, 1);
        assert_eq!(fetched.len(), 5, "{}: one window per policy", mix.name);
        assert_eq!(count(&five, 2), (fetched.clone(), generated), "{}: counts repeat", mix.name);
        let generated = generated.expect("a five-policy group shares tapes") as f64;
        let share = generated / fetched.iter().map(|(_, n)| n).sum::<u64>() as f64;
        assert!(share > 0.20 && share <= most, "{}: generated {share:.3} of fetched", mix.name);

        let (alone, tape) = count(&five[3..4], 1);
        assert_eq!(tape, None, "{}: a single run reads no tape", mix.name);
        assert!(alone.len() == 1 && fetched.contains(&alone[0]), "{alone:?} not in {fetched:?}");
    }
}
