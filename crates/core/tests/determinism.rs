//! Kernel-equivalence regression: the event-driven fast-forward loop must
//! be indistinguishable from the cycle-exact loop.
//!
//! `System::set_tick_exact(true)` forces the pre-optimization behaviour of
//! ticking every cycle. For each of the paper's five policies the same
//! run, shaped as the harness shapes it (warm up under the canonical
//! policy, swap at the boundary, run the window), is executed under both
//! kernels with the audit instrumentation attached, and the results must
//! agree *bit for bit*:
//! the FNV-1a hash over the full audit event stream (every submission,
//! scheduling decision, grant, refresh, and precharge, in order), every
//! per-core IPC, and the cycle count. A fast-forward kernel that ever
//! skips a cycle in which some component could have acted would perturb
//! at least one grant time and fail the hash comparison.
//!
//! The per-component wake-up state (a core asleep until its wake cycle, a
//! channel's grant scan skipped until its earliest candidate) is what the
//! wider cases below pin: on `8MEM-1` most core-cycles are slept through,
//! so they compare the *final machine state* — the `System::snapshot()`
//! bytes, which carry every core's `cycles` / `commit_stall_cycles` — for
//! every registered policy, with both epoch clamps active, and across a
//! snapshot taken while cores are asleep. `tick_exact` bypasses all of it
//! (no core sleeps, every channel is scanned every cycle), which is what
//! makes it an independent oracle.

use melreq_audit::{Auditor, AuditorConfig};
use melreq_core::experiment::CANONICAL_WARMUP_POLICY;
use melreq_core::{ExperimentOptions, KernelCounters, System, SystemConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::registry::registry;
use melreq_obs::{Collector, DEFAULT_TRACE_CAPACITY};
use melreq_trace::InstrStream;
use melreq_workloads::{mix_by_name, Mix, MixKind};
use proptest::prelude::*;

const WARMUP: u64 = 1_500;
const TARGET: u64 = 2_500;
const MAX_CYCLES: u64 = 1 << 26;

/// One evaluation-slice-0 stream per app code.
fn streams(codes: &'static str) -> Vec<Box<dyn InstrStream + Send>> {
    Mix { name: "ad hoc", codes, kind: MixKind::Mixed }.eval_streams(0)
}

/// A system running one evaluation-slice stream per app code, armed for
/// a short measured window.
fn build(codes: &'static str, kind: &PolicyKind, tick_exact: bool) -> System {
    let me: Vec<f64> = (0..codes.len()).map(|i| 1.0 + 3.0 * i as f64).collect();
    let mut sys = System::new(SystemConfig::paper(codes.len(), kind.clone()), streams(codes), &me);
    sys.set_tick_exact(tick_exact);
    sys.prepare_window(WARMUP, TARGET);
    sys
}

#[test]
fn fast_forward_matches_tick_exact_for_every_policy() {
    let mix = mix_by_name("2MEM-1");
    let policies = [
        PolicyKind::HfRf,
        PolicyKind::Lreq,
        PolicyKind::Me,
        PolicyKind::MeLreq,
        PolicyKind::MeLreqOnline { epoch_cycles: 3_000 },
    ];
    let opts = ExperimentOptions::quick();
    for policy in &policies {
        let run = |tick_exact: bool| {
            let mut sys = build(mix.codes, &CANONICAL_WARMUP_POLICY, tick_exact);
            sys.prepare_window(opts.warmup, opts.instructions);
            let (handle, auditor) = Auditor::shared(AuditorConfig::default(), true);
            sys.attach_audit(handle);
            assert!(sys.run_to_boundary(MAX_CYCLES), "warm-up must reach the boundary");
            sys.swap_policy(policy, &[0.4, 0.1]);
            let out = sys.run_window(MAX_CYCLES);
            let report = auditor.lock().expect("auditor poisoned").report();
            (out, report)
        };
        let (fast, fast_audit) = run(false);
        let (exact, exact_audit) = run(true);
        let name = policy.name();
        assert!(fast_audit.is_clean(), "[{name}] fast-forward audit:\n{}", fast_audit.render());
        assert!(exact_audit.is_clean(), "[{name}] tick-exact audit:\n{}", exact_audit.render());
        assert!(fast_audit.events > 0, "[{name}] instrumentation must emit events");
        assert_eq!(
            fast_audit.stream_hash, exact_audit.stream_hash,
            "[{name}] audit event streams diverged between kernels"
        );
        assert_eq!(fast_audit.events, exact_audit.events, "[{name}] event counts diverged");
        assert_eq!(fast.ipc, exact.ipc, "[{name}] per-core IPC diverged");
        assert_eq!(fast.read_latency, exact.read_latency, "[{name}] read latency diverged");
        assert_eq!(fast.cycles, exact.cycles, "[{name}] window length diverged");
        assert_eq!(fast.bytes_by_core, exact.bytes_by_core, "[{name}] DRAM traffic diverged");
        assert!(!fast.timed_out && !exact.timed_out, "[{name}] runs must complete");
    }
}

/// Every registered policy, on the paper's headline mix and a 4-core MIX
/// mix: the two kernels
/// must end in byte-identical machine state having emitted the same audit
/// stream.
#[test]
fn final_machine_state_matches_tick_exact_for_every_registered_policy() {
    for mix_name in ["8MEM-1", "4MIX-1"] {
        let codes = mix_by_name(mix_name).codes;
        for desc in registry() {
            let kind = desc.default_kind();
            let run = |tick_exact: bool| {
                let mut sys = build(codes, &kind, tick_exact);
                let (handle, auditor) = Auditor::shared(AuditorConfig::default(), true);
                sys.attach_audit(handle);
                let out = sys.run_window(MAX_CYCLES);
                assert!(!out.timed_out, "[{mix_name} {}] must finish", desc.id);
                let report = auditor.lock().expect("auditor poisoned").report();
                (sys.snapshot(), (report.stream_hash, report.events), sys.kernel_counters())
            };
            let (fast_state, fast_audit, _) = run(false);
            let (exact_state, exact_audit, exact) = run(true);
            assert!(fast_audit.1 > 0, "[{mix_name} {}] instrumentation must emit events", desc.id);
            assert_eq!(fast_audit, exact_audit, "[{mix_name} {}] audit streams differ", desc.id);
            assert!(fast_state == exact_state, "[{mix_name} {}] final snapshots differ", desc.id);
            let slept = codes.len() as u64 * exact.ticks - exact.core_ticks;
            assert_eq!(
                (exact.skipped_cycles, slept, exact.channel_scans_skipped),
                (0, 0, 0),
                "[{mix_name} {}] tick_exact must bypass every wake-up bound",
                desc.id
            );
        }
    }
}

/// The online-ME estimator and the epoch sampler both clamp fast-forward
/// jumps; with both attached (different periods) the sampled series and
/// the final state must still be kernel-independent.
#[test]
fn both_epoch_clamps_leave_the_kernels_indistinguishable() {
    let kind = PolicyKind::MeLreqOnline { epoch_cycles: 1_700 };
    let run = |tick_exact: bool| {
        let mut sys = build(mix_by_name("8MEM-1").codes, &kind, tick_exact);
        let (handle, collector) = Collector::shared(DEFAULT_TRACE_CAPACITY);
        sys.attach_audit(handle);
        sys.attach_sampler(collector.clone(), 1_300);
        assert!(!sys.run_window(MAX_CYCLES).timed_out);
        let series = collector.lock().expect("collector poisoned").series().to_vec();
        (sys.snapshot(), series)
    };
    let (fast_state, fast_series) = run(false);
    let (exact_state, exact_series) = run(true);
    assert!(fast_series.len() > 4, "sampler must fire repeatedly");
    assert_eq!(fast_series, exact_series, "epoch series diverged between kernels");
    assert!(fast_state == exact_state, "final snapshots differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wake-up state is derived, never serialized: a snapshot taken at an
    /// arbitrary cycle of the event-driven loop — cores asleep, channel
    /// scans pending — restored into a fresh system (everything awake)
    /// must finish byte-identical to the run that was never interrupted.
    #[test]
    fn snapshot_taken_while_cores_sleep_resumes_identically(
        pause_at in 300u64..9_000,
        policy_pick in 0usize..5,
    ) {
        let codes = mix_by_name("8MEM-1").codes;
        let kind = PolicyKind::figure2_set()[policy_pick].clone();
        let mut straight = build(codes, &kind, false);
        let out = straight.run_window(MAX_CYCLES);
        prop_assert!(!out.timed_out);

        let mut paused = build(codes, &kind, false);
        let _ = paused.run_window(pause_at);
        let paused_counters = paused.kernel_counters();
        prop_assert!(paused_counters.core_ticks < 8 * paused_counters.ticks, "cores must have slept");
        let mut resumed = build(codes, &kind, false);
        resumed.load_snapshot(&paused.snapshot()).expect("mid-window snapshot restores");
        let resumed_out = resumed.run_window(MAX_CYCLES);
        prop_assert_eq!(out.cycles, resumed_out.cycles);
        prop_assert_eq!(out.ipc, resumed_out.ipc);
        prop_assert!(straight.snapshot() == resumed.snapshot(), "final snapshots differ");
    }
}

/// The always-on kernel counters are deterministic, and they show the
/// split the wake-up design rests on: memory-bound cores sleep most of
/// the time, compute-bound cores rarely.
#[test]
fn kernel_counters_repeat_and_split_by_workload_class() {
    let counters = |codes: &'static str| -> KernelCounters {
        let mut sys = build(codes, &PolicyKind::MeLreq, false);
        assert!(!sys.run_window(MAX_CYCLES).timed_out);
        sys.kernel_counters()
    };
    let mem = counters(mix_by_name("8MEM-1").codes);
    assert_eq!(mem, counters(mix_by_name("8MEM-1").codes), "counters must repeat exactly");
    let slept = |c: &KernelCounters, cores: u64| cores * c.ticks - c.core_ticks;
    assert!(slept(&mem, 8) > mem.core_ticks, "8MEM-1 cores mostly sleep: {mem:?}");
    assert!(mem.skipped_cycles > 0 && mem.channel_scans_skipped > 0, "{mem:?}");

    let ilp = counters("armo");
    assert_eq!(ilp, counters("armo"), "counters must repeat exactly");
    assert!(slept(&ilp, 4) < ilp.core_ticks, "ILP cores mostly run: {ilp:?}");

    // Issue work follows the ops that move, not the ops that wait: the
    // full-scan select this replaced examined ~9.8 worklist entries per
    // issued op on `armo` (27.8 per core-tick for 2.84 issued).
    // Every issued op was fetched first; what was fetched and not issued
    // is still in a ROB (196 entries a core) or staged before it.
    for (cores, c) in [(8, mem), (4, ilp)] {
        assert!(c.ops_issued > 0 && c.issue_examined <= 3 * c.ops_issued, "{c:?}");
        let in_flight = c.ops_fetched.checked_sub(c.ops_issued).expect("issued before fetched");
        assert!(in_flight <= cores * 197, "{c:?}");
    }
}

/// The 4MEM-1 warm-up boundary under the smoke options, byte for byte:
/// size and FNV-1a of `System::snapshot()`, captured before PR 17 rebuilt
/// the core's ROB and issue bookkeeping. Stored checkpoints are these
/// bytes, so a kernel or generator rewrite that keeps `SCHEMA_VERSION`
/// must keep this hash — it is what lets `snap.fingerprint` follow a
/// change of declared field types without a version bump.
#[test]
fn warmup_boundary_snapshot_bytes_are_pinned() {
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name("4MEM-1");
    let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
    let mut sys = System::new(cfg, streams(mix.codes), &vec![1.0; mix.cores()]);
    sys.prepare_window(opts.warmup, opts.instructions);
    assert!(sys.run_to_boundary(MAX_CYCLES), "warm-up must reach the boundary");
    let snap = sys.snapshot();
    assert_eq!(
        (snap.len(), melreq_snap::fnv1a(&snap)),
        (1_349_242, 0xa5c0_1fcf_0074_445c),
        "4MEM-1 boundary snapshot moved (len, fnv1a = {}, {:#018x})",
        snap.len(),
        melreq_snap::fnv1a(&snap)
    );
}
