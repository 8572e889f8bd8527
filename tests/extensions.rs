//! Integration tests for this repo's extensions beyond the paper's
//! evaluated set: fair schedulers, phased programs and online ME
//! estimation.

use melreq::experiment::{run_mix, ExperimentOptions, ProfileCache, CANONICAL_WARMUP_POLICY};
use melreq::memctrl::FairQueueing;
use melreq::trace::{InstrStream, PhasedStream};
use melreq::workloads::{app_by_code, mix_by_name, SliceKind};
use melreq::{Mix, PolicyKind, RunOutcome, SchedulerPolicy, System, SystemConfig};

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
    let fq = run_mix(&mix, &PolicyKind::Fq, &opts(), &cache);
    let stf = run_mix(&mix, &PolicyKind::Stf, &opts(), &cache);
    for r in [&fq, &stf] {
        assert!(!r.timed_out, "{} timed out", r.policy);
        assert!(r.smt_speedup > 0.5, "{} speedup {}", r.policy, r.smt_speedup);
        assert!(r.unfairness >= 1.0);
    }
}

/// `mix`'s measured window under `policy`, swapped in at the boundary of
/// the canonical warm-up as the harness swaps in a registered policy.
fn window_under(mix: &Mix, policy: Box<dyn SchedulerPolicy>) -> RunOutcome {
    let (o, flat) = (opts(), vec![1.0; mix.cores()]);
    let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
    let mut sys = System::new(cfg, mix.eval_streams(o.eval_slice), &flat);
    sys.prepare_window(o.warmup, o.instructions);
    assert!(sys.run_to_boundary(1 << 30), "the warm-up must reach its boundary");
    sys.swap_policy_boxed(policy, &flat);
    let out = sys.run_window(1 << 30);
    assert!(!out.timed_out, "{} timed out", mix.name);
    out
}

#[test]
fn weighted_fq_shifts_service_toward_the_favoured_core() {
    // Same two-hog mix, once with equal shares and once with core 0
    // favoured 8:1 — core 0's IPC must improve at core 1's expense.
    let mix = mix_by_name("2MEM-2");
    let equal = window_under(&mix, Box::new(FairQueueing::new(mix.cores())));
    let skewed = window_under(&mix, Box::new(FairQueueing::with_shares(vec![8, 1])));
    assert!(
        skewed.ipc[0] > equal.ipc[0],
        "favoured core must speed up: {} vs {}",
        skewed.ipc[0],
        equal.ipc[0]
    );
    assert!(
        skewed.ipc[1] < equal.ipc[1],
        "unfavoured core must slow down: {} vs {}",
        skewed.ipc[1],
        equal.ipc[1]
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
