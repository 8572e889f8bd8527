//! Integration tests for this repo's extensions beyond the paper's
//! evaluated set: fair schedulers, phased programs and online ME
//! estimation.

use melreq::experiment::{run_mix, run_mix_custom, ExperimentOptions, ProfileCache};
use melreq::memctrl::{FairQueueing, StallTimeFair};
use melreq::trace::{InstrStream, PhasedStream};
use melreq::workloads::{app_by_code, mix_by_name, SliceKind};
use melreq::{PolicyKind, System, SystemConfig};

fn opts() -> ExperimentOptions {
    ExperimentOptions {
        instructions: 30_000,
        warmup: 15_000,
        profile_instructions: 15_000,
        ..Default::default()
    }
}

#[test]
fn fair_schedulers_run_end_to_end() {
    let cache = ProfileCache::new();
    let mix = mix_by_name("2MEM-4");
    let fq = run_mix_custom(
        &mix,
        "FQ",
        |_me, cores, _seed| (Box::new(FairQueueing::new(cores)), true),
        &opts(),
        &cache,
    );
    let stf = run_mix_custom(
        &mix,
        "STF",
        |_me, cores, _seed| (Box::new(StallTimeFair::new(cores)), true),
        &opts(),
        &cache,
    );
    for r in [&fq, &stf] {
        assert!(!r.timed_out, "{} timed out", r.policy);
        assert!(r.smt_speedup > 0.5, "{} speedup {}", r.policy, r.smt_speedup);
        assert!(r.unfairness >= 1.0);
    }
}

#[test]
fn weighted_fq_shifts_service_toward_the_favoured_core() {
    // Same two-hog mix, once with equal shares and once with core 0
    // favoured 8:1 — core 0's IPC must improve at core 1's expense.
    let mix = mix_by_name("2MEM-2");
    let cache = ProfileCache::new();
    let equal = run_mix_custom(
        &mix,
        "FQ",
        |_me, cores, _seed| (Box::new(FairQueueing::new(cores)), true),
        &opts(),
        &cache,
    );
    let skewed = run_mix_custom(
        &mix,
        "FQ",
        |_me, _cores, _seed| (Box::new(FairQueueing::with_shares(vec![8, 1])), true),
        &opts(),
        &cache,
    );
    assert!(
        skewed.ipc_multi[0] > equal.ipc_multi[0],
        "favoured core must speed up: {} vs {}",
        skewed.ipc_multi[0],
        equal.ipc_multi[0]
    );
    assert!(
        skewed.ipc_multi[1] < equal.ipc_multi[1],
        "unfavoured core must slow down: {} vs {}",
        skewed.ipc_multi[1],
        equal.ipc_multi[1]
    );
}

#[test]
fn phased_program_runs_in_a_full_system() {
    let phased = PhasedStream::new(
        "phase-test",
        vec![
            (app_by_code('t').build_stream(0, SliceKind::Evaluation(1)), 8_000),
            (app_by_code('c').build_stream(0, SliceKind::Evaluation(2)), 8_000),
        ],
    );
    let cfg = SystemConfig::paper(2, PolicyKind::MeLreqOnline { epoch_cycles: 10_000 });
    let streams: Vec<Box<dyn InstrStream + Send>> = vec![
        Box::new(phased),
        Box::new(app_by_code('e').build_stream(1, SliceKind::Evaluation(0))),
    ];
    let mut sys = System::new(cfg, streams, &[1.0, 1.0]);
    let out = sys.run_measured(16_000, 32_000, 1 << 30);
    assert!(!out.timed_out);
    assert!(out.ipc.iter().all(|&i| i > 0.0));
}

#[test]
fn online_me_is_competitive_with_offline_on_steady_workloads() {
    // On a steady (non-phased) mix, online estimation should converge to
    // the offline profile's behaviour: within a few percent.
    let cache = ProfileCache::new();
    let mix = mix_by_name("4MEM-5");
    let o = ExperimentOptions { instructions: 60_000, warmup: 30_000, ..opts() };
    let offline = run_mix(&mix, &PolicyKind::MeLreq, &o, &cache);
    let online = run_mix(&mix, &PolicyKind::MeLreqOnline { epoch_cycles: 20_000 }, &o, &cache);
    assert!(!online.timed_out);
    let ratio = online.smt_speedup / offline.smt_speedup;
    assert!(
        ratio > 0.95 && ratio < 1.05,
        "online should track offline on steady workloads, ratio {ratio}"
    );
}
