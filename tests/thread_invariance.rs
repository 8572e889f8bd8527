//! Thread-count invariance: the sweep's job pool must be a pure
//! performance knob. Pooled sweep results, audit stream hashes, and the
//! deterministic portion of the `reproduce` artifact are asserted
//! bit-identical for worker counts 1, 2, and 8.

use melreq_cli::{parse_args, run_command};
use melreq_core::experiment::{
    run_tapped, ExperimentOptions, MixResult, ObserveOptions, ProfileCache, RunControl, SweepStage,
    Taps,
};
use melreq_core::store::TempDir;
use melreq_core::Session;
use melreq_memctrl::policy::PolicyKind;
use melreq_workloads::mix_by_name;
use std::path::Path;
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Canonical text form of everything in a [`MixResult`] that simulation
/// semantics determine. Wall-clock fields are host noise by definition and
/// are zeroed before formatting; `f64` Debug formatting round-trips, so
/// equal strings mean bit-equal values.
fn det_repr(r: &MixResult) -> String {
    let mut r = r.clone();
    r.wall = Duration::ZERO;
    r.warm_wall = Duration::ZERO;
    format!("{r:?}")
}

/// A small two-stage grid sharing one mix across stages, so the pool's
/// cross-stage warm-up deduplication is exercised, not just per-stage
/// forking.
fn stages() -> Vec<SweepStage> {
    vec![
        SweepStage {
            mixes: vec![mix_by_name("2MEM-1"), mix_by_name("2MIX-1")],
            policies: vec![PolicyKind::HfRf, PolicyKind::MeLreq],
        },
        SweepStage { mixes: vec![mix_by_name("2MEM-1")], policies: vec![PolicyKind::Lreq] },
    ]
}

#[test]
fn sweep_results_and_audit_hashes_are_identical_at_any_worker_count() {
    let opts = ExperimentOptions::quick();
    let mut sweep_reprs: Vec<Vec<String>> = Vec::new();
    let mut audit_hashes: Vec<u64> = Vec::new();

    for threads in THREAD_COUNTS {
        let session = Session::new();
        let ctl = RunControl { threads: Some(threads), ..RunControl::default() };
        let results = session.run_sweep_stages(&stages(), &opts, &ctl);
        assert_eq!(results.len(), 2, "one result vector per stage");
        assert_eq!(results[0].len(), 4, "stage 0: 2 mixes x 2 policies");
        assert_eq!(results[1].len(), 1, "stage 1: 1 mix x 1 policy");
        sweep_reprs.push(results.iter().flatten().map(det_repr).collect());

        // An audited single run alongside the pool: the event-stream
        // hash is the finest-grained determinism witness we have.
        let cache = ProfileCache::new();
        let taps = Taps { audit: true, observe: Some(ObserveOptions::default()) };
        let (mix, kind) = (mix_by_name("2MEM-1"), &PolicyKind::MeLreq);
        let (_, heard) = run_tapped(&mix, kind, &opts, &cache, &RunControl::default(), taps);
        let report = heard.audit.expect("audited");
        assert_eq!(report.total_violations, 0, "audited run must be clean");
        audit_hashes.push(report.stream_hash);
    }

    for (i, reprs) in sweep_reprs.iter().enumerate().skip(1) {
        assert_eq!(
            &sweep_reprs[0], reprs,
            "sweep results diverged between {} and {} worker threads",
            THREAD_COUNTS[0], THREAD_COUNTS[i]
        );
    }
    assert!(
        audit_hashes.windows(2).all(|w| w[0] == w[1]),
        "audit stream hashes diverged across worker counts: {audit_hashes:x?}"
    );
}

/// Every deterministic token of a smoke run: the artifact's per-stage
/// result hashes and simulated-cycle counts (wall fields are the only
/// other numbers and are legitimately run-dependent), plus the Figure 2
/// table the summary renders from the stage's results.
fn det_tokens(artifact: &str, summary: &str) -> Vec<String> {
    let table_start = summary.find("-- 2-core MEM workloads --").expect("Figure 2 table");
    let table_len = summary[table_start..].find("\n\n").expect("blank line after the table");
    artifact
        .lines()
        .flat_map(|line| {
            ["\"results_hash\": ", "\"sim_cycles\": "].into_iter().filter_map(|key| {
                let start = line.find(key)? + key.len();
                let rest = &line[start..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                Some(format!("{key}{}", &rest[..end]))
            })
        })
        .chain([summary[table_start..table_start + table_len].to_string()])
        .collect()
}

/// `melreq reproduce --smoke --threads N`, returning the human summary.
fn smoke_reproduce(store: &Path, out: &Path, threads: usize) -> String {
    let (store, out) = (store.to_string_lossy(), out.to_string_lossy());
    let threads = threads.to_string();
    let argv = ["reproduce", "--smoke", "--store", &store, "--out", &out, "--threads", &threads];
    run_command(&parse_args(&argv).expect("reproduce command line")).expect("reproduce --smoke")
}

#[test]
fn reproduce_artifact_is_deterministic_across_worker_counts() {
    let store = TempDir::new("thrinv-store");
    let out_dir = TempDir::new("thrinv-out");

    // Prime the checkpoint store once: stage-level `sim_cycles` counts
    // simulated cycles only, so a cold-store run (which simulates its
    // warm-ups) legitimately reports more than a warm one. The comparison
    // below must only vary the worker count.
    smoke_reproduce(&store, &out_dir.join("prime.json"), 2);

    let mut token_sets: Vec<Vec<String>> = Vec::new();
    for threads in THREAD_COUNTS {
        let out = out_dir.join(format!("sweep-{threads}.json"));
        let summary = smoke_reproduce(&store, &out, threads);
        let artifact = std::fs::read_to_string(&out).expect("read artifact");
        assert!(
            artifact.contains(&format!("\"threads\": {threads}")),
            "artifact must record its worker count"
        );
        let tokens = det_tokens(&artifact, &summary);
        assert!(
            tokens.len() >= 7,
            "expected per-stage hashes, cycle counts and the table: {tokens:?}"
        );
        assert!(
            tokens.iter().any(|t| t.contains("results_hash") && !t.contains("null")),
            "at least one grid stage must report a results hash: {tokens:?}"
        );
        token_sets.push(tokens);
    }

    for (i, tokens) in token_sets.iter().enumerate().skip(1) {
        assert_eq!(
            &token_sets[0], tokens,
            "reproduce artifact diverged between {} and {} worker threads",
            THREAD_COUNTS[0], THREAD_COUNTS[i]
        );
    }
}
