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
//! scheduling decision and grant, in order), every
//! per-core IPC, and the cycle count. A fast-forward kernel that ever
//! skips a cycle in which some component could have acted would perturb
//! at least one grant time and fail the hash comparison.
//!
//! The per-component wake-up state (a core asleep until its wake cycle, a
//! channel's grant scan skipped until its earliest candidate) is what the
//! wider cases below pin: on `8MEM-1` most core-cycles are slept through,
//! so they compare the *final machine state* — the `System::snapshot()`
//! bytes, which carry every core's `cycles` count — for every registered
//! policy, with both epoch clamps active, and across a snapshot taken
//! while cores are asleep. `tick_exact` bypasses all of it
//! (no core sleeps, every channel is scanned every cycle), which is what
//! makes it an independent oracle.
//!
//! The snapshot layout is pinned here too: `SNAPSHOT_PINS` holds the
//! length and FNV-1a of the bytes a save walk writes at fixed points,
//! `TAPE_RECORD_PIN` those of an op tape's stored record, and every pinned
//! payload, cut short, must fail to restore.

use melreq_audit::{Auditor, AuditorConfig};
use melreq_core::experiment::CANONICAL_WARMUP_POLICY;
use melreq_core::{ExperimentOptions, KernelCounters, System, SystemConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::registry::registry;
use melreq_obs::{Collector, DEFAULT_TRACE_CAPACITY};
use melreq_trace::{InstrStream, OpTape, PhasedStream, TapedStream};
use melreq_workloads::{app_by_code, mix_by_name, Mix, MixKind, SliceKind};
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
            let (handle, auditor) = Auditor::shared(AuditorConfig::default());
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
                let (handle, auditor) = Auditor::shared(AuditorConfig::default());
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

/// Snapshot pins for `SCHEMA_VERSION` 8: `(name, len, fnv1a)` of the
/// bytes a save walk (`state` over an `Enc`) writes. Stored checkpoints are these bytes, so they
/// are the snapshot layout: a change that moves any of them bumps
/// `SCHEMA_VERSION` and re-captures the table, and a change that keeps
/// them keeps the version. The rows, in `pinned_bytes` order:
/// - `boundary`: the 4MEM-1 warm-up boundary under quick options,
///   warmed under the canonical policy;
/// - one per registered policy id: that boundary forked into the policy
///   (profile `PIN_ME`) and paused at cycle `PIN_PAUSE`, mid-window;
/// - `phased`, `taped`: a two-phase `PhasedStream` and a `TapedStream`
///   reading an `OpTape`, each after `STREAM_OPS` ops.
///
/// DESIGN.md "Determinism rules" maps every snapshotted struct to a row.
const SNAPSHOT_PINS: &[(&str, usize, u64)] = &[
    ("boundary", 1_341_474, 0xe306_5a8e_d9ec_f55d),
    ("hf-rf", 1_344_016, 0x816c_c804_c56e_a13d),
    ("me", 1_342_020, 0x6a66_68e6_236c_0b12),
    ("rr", 1_343_043, 0x2640_f54b_f7e2_d8fe),
    ("lreq", 1_342_696, 0x3b02_332a_811d_826e),
    ("me-lreq", 1_342_383, 0xa58b_7d2f_9596_f76b),
    ("fcfs", 1_342_484, 0xe6a7_ca59_d8b3_b377),
    ("fcfs-rf", 1_344_015, 0x9a57_73ad_b464_5e90),
    ("me-lreq-on", 1_342_982, 0x627a_d62f_1b54_49e2),
    ("fix-0123", 1_342_993, 0x6a7b_6c9b_b956_b915),
    ("fix-3210", 1_340_664, 0x614d_d236_5086_e667),
    ("fq", 1_343_953, 0x35d1_ecf5_66ca_65d6),
    ("stf", 1_344_571, 0x191c_8386_0787_0553),
    ("bliss", 1_344_916, 0x7d67_d6f8_3bd7_d7b6),
    ("tcm", 1_341_838, 0xe75f_a552_c939_ee33),
    ("phased", 180, 0x13bc_4ee1_d161_56a5),
    ("taped", 82, 0xfcd6_76f3_74f6_4266),
];

/// The cycle every per-policy pin pauses at: past the quick-options
/// 4MEM-1 boundary (cycle 29 562) and past me-lreq-on's first 50 000-cycle
/// epoch, before any policy's window ends.
const PIN_PAUSE: u64 = 80_000;

/// Four distinct memory efficiencies, so every ME-ranked policy orders
/// the cores.
const PIN_ME: [f64; 4] = [0.4, 0.1, 0.3, 0.2];

/// Ops each pinned stream generates: for the phased one, a full cycle of
/// its two 8 000-op phases and a quarter of the first again; for the
/// taped one, into its fifth tape chunk.
const STREAM_OPS: usize = 20_000;

/// What restores a pinned row: a 4MEM-1 system (forked into the policy,
/// if any), or a fresh stream.
enum Receiver {
    System(Option<PolicyKind>),
    Stream(fn() -> Box<dyn InstrStream + Send>),
}

/// A 4MEM-1 system under the canonical warm-up policy, armed for the
/// quick-options window; with `kind`, already forked into that policy.
fn pin_system(kind: Option<&PolicyKind>) -> System {
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name("4MEM-1");
    let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
    let mut sys = System::new(cfg, streams(mix.codes), &[1.0; 4]);
    sys.prepare_window(opts.warmup, opts.instructions);
    if let Some(kind) = kind {
        sys.swap_policy(kind, &PIN_ME);
    }
    sys
}

fn app_stream(code: char, slice: u32) -> Box<dyn InstrStream + Send> {
    Box::new(app_by_code(code).build_stream(0, SliceKind::Evaluation(slice)))
}

fn phased_stream() -> Box<dyn InstrStream + Send> {
    let phase = |code, slice| app_by_code(code).build_stream(0, SliceKind::Evaluation(slice));
    Box::new(PhasedStream::new("pin", vec![(phase('t', 1), 8_000), (phase('c', 2), 8_000)]))
}

fn taped_stream() -> Box<dyn InstrStream + Send> {
    Box::new(TapedStream::new(OpTape::new(app_stream('t', 1)), app_stream('t', 1)))
}

/// The bytes behind every row of `SNAPSHOT_PINS`, by name, with what
/// restores them.
fn pinned_bytes() -> Vec<(&'static str, Receiver, Vec<u8>)> {
    let mut boundary = pin_system(None);
    assert!(boundary.run_to_boundary(MAX_CYCLES), "warm-up must reach the boundary");
    assert!(boundary.now() < PIN_PAUSE, "the pause must fall after the boundary");
    let boundary = boundary.snapshot();
    let mut out = vec![("boundary", Receiver::System(None), boundary.clone())];
    for desc in registry() {
        let kind = desc.default_kind();
        let mut sys = pin_system(None);
        sys.load_snapshot(&boundary).expect("the boundary restores");
        sys.swap_policy(&kind, &PIN_ME);
        let _ = sys.run_window(PIN_PAUSE);
        assert_eq!(sys.now(), PIN_PAUSE, "[{}] must still be mid-window", desc.id);
        out.push((desc.id, Receiver::System(Some(kind)), sys.snapshot()));
    }
    let rows: [(&str, fn() -> _); 2] = [("phased", phased_stream), ("taped", taped_stream)];
    for (name, make) in rows {
        let mut stream = make();
        for _ in 0..STREAM_OPS {
            stream.next_op();
        }
        let bytes = melreq_snap::Enc::save(|enc| stream.state(enc));
        out.push((name, Receiver::Stream(make), bytes));
    }
    out
}

#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(melreq_snap::SCHEMA_VERSION, 8, "a version bump re-captures every pin");
    let got: Vec<(&str, usize, u64)> = pinned_bytes()
        .iter()
        .map(|(name, _, bytes)| (*name, bytes.len(), melreq_snap::fnv1a(bytes)))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .filter(|row| !SNAPSHOT_PINS.contains(row))
        .map(|(name, len, hash)| format!("(\"{name}\", {len}, {hash:#018x})"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == SNAPSHOT_PINS.len(),
        "snapshot pins moved (bump SCHEMA_VERSION and re-capture):\n{}",
        moved.join("\n")
    );
}

/// A snapshot cut short anywhere is an error, never a panic: each pinned
/// payload is cut at 64 evenly spaced lengths, a system's cut resealed so
/// the checksum passes, and every cut must fail to restore.
#[test]
fn truncated_snapshots_are_rejected() {
    for (name, receiver, bytes) in pinned_bytes() {
        match receiver {
            Receiver::System(kind) => {
                let payload = melreq_snap::open(&bytes).expect("a pinned container opens");
                let mut sys = pin_system(kind.as_ref());
                for i in 0..64 {
                    let cut = payload.len() * i / 64;
                    let resealed = melreq_snap::seal(&payload[..cut]);
                    assert!(sys.load_snapshot(&resealed).is_err(), "[{name}] cut at {cut}");
                }
            }
            Receiver::Stream(make) => {
                for i in 0..64 {
                    let cut = bytes.len() * i / 64;
                    let mut dec = melreq_snap::Dec::new(&bytes[..cut]);
                    assert!(make().state(&mut dec).is_err(), "[{name}] cut at {cut}");
                }
            }
        }
    }
}

/// `(len, fnv1a)` of an op tape's record (`OpTape::encode`, what a store's
/// `tapes-` record holds per core): the `taped` row's tape once its reader
/// has read `STREAM_OPS` ops, five chunks. A packing or record-layout
/// change moves it; stored tapes are these bytes, so that bumps
/// `SCHEMA_VERSION` like a moved snapshot pin.
const TAPE_RECORD_PIN: (usize, u64) = (63_514, 0xb23b_557d_3f07_474c);

/// The record of the `taped` row's tape.
fn tape_record() -> Vec<u8> {
    let tape = OpTape::new(app_stream('t', 1));
    let mut reader = TapedStream::new(std::sync::Arc::clone(&tape), app_stream('t', 1));
    for _ in 0..STREAM_OPS {
        reader.next_op();
    }
    let mut enc = melreq_snap::Enc::new();
    assert!(tape.encode(&mut enc), "a healthy tape");
    enc.into_bytes()
}

/// The record is pinned, decodes to a tape that encodes it again, and cut
/// short anywhere is an error, never a panic.
#[test]
fn the_tape_record_is_pinned_and_rejected_cut_short() {
    let record = tape_record();
    let got = (record.len(), melreq_snap::fnv1a(&record));
    assert_eq!(got, TAPE_RECORD_PIN, "tape record moved: ({}, {:#018x})", got.0, got.1);
    let decode = |bytes| OpTape::decode(&mut melreq_snap::Dec::new(bytes), app_stream('t', 1));
    let copy = decode(&record).expect("the record decodes");
    let mut again = melreq_snap::Enc::new();
    assert!(copy.encode(&mut again) && again.into_bytes() == record);
    for i in 0..64 {
        let cut = record.len() * i / 64;
        assert!(decode(&record[..cut]).is_err(), "cut at {cut}");
    }
}
