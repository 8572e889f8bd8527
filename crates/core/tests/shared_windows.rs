//! Policies differ only where cores contend: a group's window with no
//! contested read decision is simulated once per rule class
//! (`read_first`, `hit_first`) and scored for every policy of the class.
//! Whether a run simulated its window or scored a certified one must not
//! show in any result, at any worker count. (`host_profiling.rs` shows
//! which runs shared.)

use melreq_core::experiment::{
    run_mix, run_mix_group, ExperimentOptions, MixResult, ProfileCache, RunControl,
};
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::{registry, PolicyDescriptor};
use melreq_workloads::{mix_by_name, Mix, MixKind};
use std::time::Duration;

/// Everything a result says about the simulation: host times aside, and
/// how the boundary was reached (a fork restores it, a run on its own
/// simulates it).
fn simulated(r: &MixResult) -> String {
    let (wall, warm_wall) = (Duration::ZERO, Duration::ZERO);
    format!("{:?}", MixResult { wall, warm_wall, warmup_from_checkpoint: false, ..r.clone() })
}

/// Every registered policy's result in one group equals its own run, at
/// one and two workers, on:
/// - swim alone, where no decision can be contested and plain FCFS's
///   window differs from HF-RF's, so a window taken across rule classes
///   would show;
/// - 2MIX-1 and the benchmark's four ILP apps, uncontested (`armo` only
///   after a longer warm-up than the quick options': its cold misses
///   contest a few decisions);
/// - 2MEM-1, where every policy's window is contested.
#[test]
fn every_registered_policy_in_a_group_matches_its_own_run() {
    let quick = ExperimentOptions::quick();
    let kinds: Vec<PolicyKind> = registry().iter().map(PolicyDescriptor::default_kind).collect();
    let cache = ProfileCache::new();
    let swim = Mix { name: "1MEM-swim", codes: "c", kind: MixKind::Mem };
    let ilp4 = Mix { name: "4ILP-B", codes: "armo", kind: MixKind::Mixed };
    let warm = ExperimentOptions { warmup: 40_000, ..quick };
    for (mix, opts) in [
        (swim, quick),
        (mix_by_name("2MIX-1"), quick),
        (ilp4, warm),
        (mix_by_name("2MEM-1"), quick),
    ] {
        let group = |threads: usize| {
            let ctl = RunControl { threads: Some(threads), ..RunControl::default() };
            run_mix_group(&mix, &kinds, &opts, &cache, None, &ctl)
        };
        let (one, two) = (group(1), group(2));
        for ((kind, a), b) in kinds.iter().zip(&one).zip(&two) {
            let (alone, run) = (run_mix(&mix, kind, &opts, &cache), (kind.name(), mix.name));
            assert_eq!(simulated(a), simulated(&alone), "{run:?}");
            assert_eq!(simulated(a), simulated(b), "{run:?}: 1 vs 2 workers");
        }
    }
    let (pair, ctl) = ([PolicyKind::HfRf, PolicyKind::Fcfs], RunControl::default());
    let alone = run_mix_group(&swim, &pair, &quick, &cache, None, &ctl);
    assert_ne!(alone[0].measured_cycles, alone[1].measured_cycles, "FCFS's window is its own");
}
