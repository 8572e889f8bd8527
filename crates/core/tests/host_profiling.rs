//! Host-profiler inertness: the span profiler observes wall-clock time
//! only, so enabling it must not perturb a single simulated bit. An
//! audited run of all five paper policies is compared byte-for-byte —
//! the versioned report JSON embeds every paper metric and the audit
//! event-stream hashes, so byte equality here is bit equality of the
//! outcomes and of the full audited event streams.
//!
//! The spans are also where the kernel's work counts surface, so the
//! other tests read them: what the windows of a group fetch against what
//! the group's shared op tapes generate or load from a store, and which
//! windows a group simulated at all.

use melreq_core::api::{Session, SimRequest};
use melreq_core::experiment::{
    run_mix_group, ExperimentOptions, MixResult, ProfileCache, RunControl,
};
use melreq_core::store::TempDir;
use melreq_core::{CancelToken, CheckpointStore};
use melreq_memctrl::policy::PolicyKind;
use melreq_workloads::{mix_by_name, Mix};
use std::sync::{Arc, Mutex};

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
    let req =
        SimRequest::new("4MEM-1").policies(policies).opts(ExperimentOptions::quick()).audit(true);
    let ctl = RunControl { threads: Some(2), ..RunControl::default() };

    let unprofiled = Session::new().run(&req, &ctl).expect("unprofiled run");
    let (profiled, profile) = profiled(|| Session::new().run(&req, &ctl).expect("profiled run"));

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

/// The options of the span-reading tests: short, so the runs are cheap.
fn short() -> ExperimentOptions {
    ExperimentOptions {
        instructions: 40_000,
        warmup: 4_000,
        profile_instructions: 4_000,
        ..ExperimentOptions::default()
    }
}

/// `mix`'s `policy` spans, sorted by name.
fn policy_spans<'a>(profile: &'a melreq_prof::Profile, mix: &Mix) -> Vec<&'a melreq_prof::Span> {
    let mut spans: Vec<_> = profile
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.cat == "policy" && s.name.ends_with(mix.name))
        .collect();
    spans.sort_by(|a, b| a.name.cmp(&b.name));
    spans
}

/// Ops each window of `mix` fetched (its `policy` span, by name) and ops
/// the group's shared tapes generated for them (its `tape` span, absent
/// when the runs generate their own).
fn window_ops(profile: &melreq_prof::Profile, mix: &Mix) -> (Vec<(String, u64)>, Option<u64>) {
    let fetched = policy_spans(profile, mix)
        .into_iter()
        .map(|s| {
            (s.name.clone(), s.arg("ops_fetched").expect("a kernel span carries every counter"))
        })
        .collect();
    let mut tapes = profile
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.cat == "tape" && s.name == mix.name);
    let generated = tapes.next().map(|s| s.arg("ops_generated").expect("a tape span says so"));
    assert!(tapes.next().is_none(), "one tape span per group");
    (fetched, generated)
}

/// The profile of a `threads`-worker group of `policies` on `mix`.
fn profiled_group(
    mix: &Mix,
    policies: &[PolicyKind],
    threads: usize,
    cancel: Option<CancelToken>,
) -> (Vec<MixResult>, melreq_prof::Profile) {
    let cache = ProfileCache::new();
    let ctl = RunControl { threads: Some(threads), cancel, ..RunControl::default() };
    profiled(|| run_mix_group(mix, policies, &short(), &cache, None, &ctl))
}

/// A count that repeats exactly: the five windows forked from one
/// boundary fetch five windows' worth of ops, and the generators behind
/// their shared tapes produce little more than one (as much as the
/// longest-running policy reads, rounded up to a chunk per core) — at any
/// thread count. A run on its own has no tape: what it fetches, its own
/// streams generate, and it fetches what the same run fetches off a tape.
/// The mix is one whose cores contend, so every policy simulates its own
/// window (an ILP mix's five windows are one, see below).
#[test]
fn a_group_generates_its_window_once_whatever_the_thread_count() {
    let _alone = PROFILER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mix = mix_by_name("8MEM-1");
    let count = |policies: &[PolicyKind], threads: usize| {
        window_ops(&profiled_group(&mix, policies, threads, None).1, &mix)
    };
    let five = PolicyKind::figure2_set();
    let (fetched, generated) = count(&five, 1);
    assert_eq!(fetched.len(), 5, "one window per policy");
    assert_eq!(count(&five, 2), (fetched.clone(), generated), "counts repeat");
    let generated = generated.expect("a five-policy group shares tapes") as f64;
    let share = generated / fetched.iter().map(|(_, n)| n).sum::<u64>() as f64;
    assert!(share > 0.20 && share <= 0.45, "generated {share:.3} of fetched");

    let (alone, tape) = count(&five[3..4], 1);
    assert_eq!(tape, None, "a single run reads no tape");
    assert!(alone.len() == 1 && fetched.contains(&alone[0]), "{alone:?} not in {fetched:?}");
}

/// `ops_generated` and `ops_loaded` of the one `tape` span of `mix`, and
/// how many tapes records the profiled call wrote (its `snapshot.encode`
/// spans named for them).
fn tape_ops(profile: &melreq_prof::Profile, mix: &Mix) -> ((u64, u64), usize) {
    let spans = || profile.tracks.iter().flat_map(|t| &t.spans);
    let tape: Vec<_> = spans().filter(|s| s.cat == "tape" && s.name == mix.name).collect();
    assert_eq!(tape.len(), 1, "one tape span per group");
    let arg = |key| tape[0].arg(key).expect("a tape span says so");
    let written = format!("tapes {}", mix.name);
    let writes = spans().filter(|s| s.cat == "snapshot.encode" && s.name == written).count();
    ((arg("ops_generated"), arg("ops_loaded")), writes)
}

/// A store keeps the tapes its groups read: a cold group generates its
/// window and writes the record, a warm one loads every op it reads,
/// generates none and writes nothing, and results do not move. A store
/// without the record — one written before tapes were kept — is cold
/// again for the tapes alone.
#[test]
fn a_warm_group_generates_nothing_and_writes_nothing() {
    let _alone = PROFILER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mix = mix_by_name("4MEM-1");
    let dir = TempDir::new("warm-tapes");
    let group = || {
        let store = Arc::new(CheckpointStore::open(&*dir).expect("store"));
        let cache = ProfileCache::with_store(store.clone());
        let ctl = RunControl { threads: Some(2), ..RunControl::default() };
        let five = PolicyKind::figure2_set();
        let (results, profile) =
            profiled(|| run_mix_group(&mix, &five, &short(), &cache, Some(&store), &ctl));
        let st = store.stats();
        (results, tape_ops(&profile, &mix), (st.tape_hits, st.tape_misses))
    };
    let (cold, ((generated, loaded), writes), looked) = group();
    assert!(generated > 0 && loaded == 0 && writes == 1 && looked == (0, 1));
    let (warm, tapes, looked) = group();
    assert_eq!((tapes, looked), (((0, generated), 0), (1, 0)), "a warm group");
    let tapes_record = |entry: std::fs::DirEntry| {
        entry.file_name().to_str().is_some_and(|n| n.starts_with("tapes-")).then(|| entry.path())
    };
    let records: Vec<_> =
        std::fs::read_dir(&*dir).expect("store").flatten().filter_map(tapes_record).collect();
    assert_eq!(records.len(), 1);
    std::fs::remove_file(&records[0]).expect("the tapes record");
    let (again, tapes, looked) = group();
    assert_eq!((tapes, looked), (((generated, 0), 1), (0, 1)), "tapes alone cold");
    for results in [&warm, &again] {
        let simulated = |r: &MixResult| (r.ipc_multi.clone(), r.read_latency.clone(), r.sim_cycles);
        assert!(results.iter().zip(&cold).all(|(a, b)| simulated(a) == simulated(b)));
    }
}

/// Where no read decision is contested the five paper policies are one
/// window: on one worker the first run simulates it and certifies it, and
/// the other four score it — `policy` spans with `shared: 1` and no
/// counters. FCFS and FCFS-RF are rule classes of their own and simulate
/// theirs. Where cores contend, every run simulates its own.
#[test]
fn an_uncontested_window_is_simulated_once_per_rule_class() {
    let _alone = PROFILER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let five = PolicyKind::figure2_set();
    let mix = mix_by_name("2MIX-1");
    let seven = [&five[..], &[PolicyKind::Fcfs, PolicyKind::FcfsRf]].concat();
    let (_, profile) = profiled_group(&mix, &seven, 1, None);
    let spans = policy_spans(&profile, &mix);
    let (counted, shared): (Vec<&melreq_prof::Span>, Vec<_>) =
        spans.iter().partition(|s| s.arg("shared").is_none());
    let names = |spans: &[&melreq_prof::Span]| -> Vec<String> {
        spans.iter().map(|s| s.name.replace(" 2MIX-1", "")).collect()
    };
    assert_eq!(names(&counted), ["FCFS", "FCFS-RF", "HF-RF"], "{spans:?}");
    assert!(counted.iter().all(|s| s.arg("contested_decisions") == Some(0)), "{counted:?}");
    assert_eq!(names(&shared), ["LREQ", "ME", "ME-LREQ", "RR"], "{spans:?}");
    assert!(shared.iter().all(|s| s.args() == [("shared", 1)]), "{shared:?}");

    let mem = mix_by_name("2MEM-1");
    let (_, profile) = profiled_group(&mem, &five, 1, None);
    let spans = policy_spans(&profile, &mem);
    assert_eq!(spans.len(), 5, "{spans:?}");
    for s in spans {
        assert!(s.arg("shared").is_none() && s.arg("contested_decisions") > Some(0), "{s:?}");
    }
}

/// A cancelled window certifies nothing, though none of its (zero)
/// decisions was contested: every run of a group under an expired token
/// simulates, and stops, on its own.
#[test]
fn a_group_whose_first_run_is_cancelled_certifies_nothing() {
    let _alone = PROFILER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mix = mix_by_name("2MIX-1");
    let expired = CancelToken::new();
    expired.cancel();
    let (results, profile) = profiled_group(&mix, &PolicyKind::figure2_set(), 1, Some(expired));
    assert!(results.iter().all(|r| r.cancelled), "{results:?}");
    let spans = policy_spans(&profile, &mix);
    assert_eq!(spans.len(), 5);
    assert!(spans.iter().all(|s| s.arg("shared").is_none()), "{spans:?}");
}
