//! Cross-crate integration tests: whole-system runs through the public
//! `melreq` API, checking the invariants a downstream user relies on.

use melreq::experiment::{run_mix, ExperimentOptions, ProfileCache};
use melreq::workloads::mix_by_name;
use melreq::{PolicyKind, System, SystemConfig};

fn build(mix_name: &str, policy: PolicyKind) -> System {
    let mix = mix_by_name(mix_name);
    let cfg = SystemConfig::paper(mix.cores(), policy);
    let me: Vec<f64> = (0..mix.cores()).map(|i| 1.0 + i as f64).collect();
    System::new(cfg, mix.eval_streams(0), &me)
}

#[test]
fn every_policy_completes_a_mem_mix() {
    for policy in PolicyKind::figure2_set() {
        let mut sys = build("2MEM-4", policy.clone());
        let out = sys.run_measured(5_000, 10_000, 1 << 27);
        assert!(!out.timed_out, "{} timed out", policy.name());
        assert!(
            out.ipc.iter().all(|&ipc| ipc > 0.0),
            "{} produced a zero-IPC core: {:?}",
            policy.name(),
            out.ipc
        );
    }
}

#[test]
fn fixed_priority_policies_complete() {
    for policy in PolicyKind::figure3_set() {
        if matches!(policy, PolicyKind::Fixed { .. } | PolicyKind::Me) {
            let mut sys = build("2MEM-1", policy.clone());
            let out = sys.run_measured(5_000, 10_000, 1 << 27);
            assert!(!out.timed_out, "{} timed out", policy.name());
        }
    }
}

#[test]
fn fcfs_and_fcfs_rf_complete() {
    for policy in [PolicyKind::Fcfs, PolicyKind::FcfsRf] {
        let mut sys = build("2MEM-2", policy.clone());
        let out = sys.run_measured(5_000, 10_000, 1 << 27);
        assert!(!out.timed_out, "{} timed out", policy.name());
    }
}

#[test]
fn whole_experiment_is_deterministic() {
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name("2MIX-1");
    let a = run_mix(&mix, &PolicyKind::MeLreq, &opts, &ProfileCache::new());
    let b = run_mix(&mix, &PolicyKind::MeLreq, &opts, &ProfileCache::new());
    assert_eq!(a.smt_speedup, b.smt_speedup);
    assert_eq!(a.unfairness, b.unfairness);
    assert_eq!(a.ipc_multi, b.ipc_multi);
    assert_eq!(a.read_latency, b.read_latency);
}

#[test]
fn different_eval_slices_differ() {
    let mix = mix_by_name("2MEM-3");
    let cache = ProfileCache::new();
    let a = run_mix(
        &mix,
        &PolicyKind::HfRf,
        &ExperimentOptions { eval_slice: 0, ..ExperimentOptions::quick() },
        &cache,
    );
    let b = run_mix(
        &mix,
        &PolicyKind::HfRf,
        &ExperimentOptions { eval_slice: 1, ..ExperimentOptions::quick() },
        &cache,
    );
    assert_ne!(a.ipc_multi, b.ipc_multi, "evaluation slices must not be identical");
    // But they are the same program model: IPCs land in the same ballpark.
    for (x, y) in a.ipc_multi.iter().zip(&b.ipc_multi) {
        assert!((x / y).abs() > 0.5 && (x / y).abs() < 2.0, "slices diverge too much: {x} vs {y}");
    }
}

#[test]
fn smt_speedup_is_bounded_by_core_count() {
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name("2MIX-5");
    let r = run_mix(&mix, &PolicyKind::HfRf, &opts, &ProfileCache::new());
    assert!(r.smt_speedup > 0.0);
    // Allow a small tolerance: the multiprogrammed slice is not the exact
    // single-core slice, so a core can slightly "beat" its reference.
    assert!(r.smt_speedup <= mix.cores() as f64 * 1.2, "speedup {}", r.smt_speedup);
    assert!(r.unfairness >= 1.0);
}

#[test]
fn adding_cores_degrades_per_core_ipc() {
    // swim alone vs swim + three more memory hogs.
    let mut solo = build("2MEM-1", PolicyKind::HfRf); // wupwise + swim
    let solo_out = solo.run_measured(5_000, 10_000, 1 << 27);
    let mut four = build("4MEM-1", PolicyKind::HfRf); // wupwise swim mgrid applu
    let four_out = four.run_measured(5_000, 10_000, 1 << 28);
    // swim is core 1 in both mixes.
    assert!(
        four_out.ipc[1] < solo_out.ipc[1] * 1.05,
        "more contention cannot speed swim up: {} vs {}",
        four_out.ipc[1],
        solo_out.ipc[1]
    );
}

#[test]
fn memory_traffic_is_conserved() {
    // Every DRAM byte the controller reports must come from the
    // hierarchy's reads/writes (no phantom traffic).
    let mut sys = build("2MEM-2", PolicyKind::HfRf);
    let out = sys.run_measured(5_000, 10_000, 1 << 27);
    let served = sys.controller().stats().served();
    let served = served.reads + served.writes;
    let bytes: u64 = out.bytes_by_core.iter().sum();
    assert_eq!(bytes, served * 64, "bytes must equal 64 x transactions");
}
