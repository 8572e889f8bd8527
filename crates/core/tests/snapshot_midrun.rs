//! Mid-run snapshot fidelity: pausing a multiprogrammed run at an
//! arbitrary cycle, serializing the machine, and restoring the bytes into
//! a freshly constructed system must be indistinguishable from never
//! having paused at all.
//!
//! For every paper policy (the Figure 2 set) on two core counts, the run
//! is driven to the measurement boundary and then a proptest-chosen
//! number of extra cycles into the measured window — a point where
//! in-flight MSHRs, queued DRAM commands, partially drained write buffers
//! and mid-burst timers are all live. The machine is snapshotted and
//! forked: one arm simply continues, the other restores the bytes into a
//! fresh system. Both arms must produce the same [`RunOutcome`] field for
//! field *and* end in bit-identical architectural state (FNV-1a over the
//! final snapshot bytes).
//!
//! The audit oracle is deliberately absent here: an attached audit models
//! the machine from reset, so restoring a snapshot detaches it by design
//! (see `MemoryController::state`). End-state snapshot hashes are
//! the stronger check anyway — they fingerprint every serialized
//! component, not just the command stream.
//!
//! The runs of a sweep read their ops from tapes shared per group
//! (`melreq_trace::OpTape`); the second case pauses such a run, whose
//! snapshot must be the untaped run's snapshot and restore into an
//! untaped system.

use melreq_core::{System, SystemConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_snap::fnv1a;
use melreq_trace::{InstrStream, OpTape, TapedStream};
use melreq_workloads::mix_by_name;
use proptest::prelude::*;
use std::sync::Arc;

const WARMUP: u64 = 4_000;
const TARGET: u64 = 6_000;
const MAX_CYCLES: u64 = 1 << 26;

fn streams(mix_name: &str) -> Vec<Box<dyn InstrStream + Send>> {
    mix_by_name(mix_name).eval_streams(0)
}

fn build(mix_name: &str, kind: &PolicyKind, me: &[f64]) -> System {
    let cores = mix_by_name(mix_name).cores();
    System::new(SystemConfig::paper(cores, kind.clone()), streams(mix_name), me)
}

proptest! {
    // Each case sweeps 5 policies x 2 core counts with two full runs
    // apiece; a handful of random pause points buys plenty of state-space
    // coverage without dominating the suite's runtime.
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn midrun_snapshot_continue_equals_restore(seed in any::<u64>()) {
        for (combo, (mix_name, cores)) in [("2MEM-1", 2usize), ("4MEM-1", 4usize)]
            .into_iter()
            .enumerate()
        {
            for (pi, kind) in PolicyKind::figure2_set().iter().enumerate() {
                // A distinct, deterministic pause offset per combination.
                let k = seed
                    .rotate_left((combo * 5 + pi) as u32 * 7)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    % 3_000;
                let me: Vec<f64> = (0..cores).map(|i| 0.5 + i as f64).collect();

                let mut sys = build(mix_name, kind, &me);
                sys.prepare_window(WARMUP, TARGET);
                prop_assert!(sys.run_to_boundary(MAX_CYCLES), "warm-up must complete");
                for _ in 0..k {
                    sys.tick();
                }
                let snap = sys.snapshot();

                let mut restored = build(mix_name, kind, &me);
                restored
                    .load_snapshot(&snap)
                    .expect("mid-run snapshot must restore into an identical fresh system");
                prop_assert_eq!(restored.now(), sys.now());

                let name = kind.name();
                let out_a = sys.run_window(MAX_CYCLES);
                let out_b = restored.run_window(MAX_CYCLES);
                prop_assert!(!out_a.timed_out && !out_b.timed_out, "[{}] must finish", name);
                prop_assert_eq!(out_a.cycles, out_b.cycles, "[{}] cycles", name);
                prop_assert_eq!(out_a.ipc, out_b.ipc, "[{}] IPC", name);
                prop_assert_eq!(out_a.read_latency, out_b.read_latency, "[{}] latency", name);
                prop_assert_eq!(
                    out_a.mean_read_latency, out_b.mean_read_latency,
                    "[{}] mean latency", name
                );
                prop_assert_eq!(out_a.bytes_by_core, out_b.bytes_by_core, "[{}] bytes", name);
                prop_assert_eq!(
                    fnv1a(&sys.snapshot()),
                    fnv1a(&restored.snapshot()),
                    "[{}] final machine state diverged after a mid-run restore",
                    name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two runs read one set of tapes from the boundary, as the forks of
    /// a group do; one has finished its window (so the other replays what
    /// it generated) when the other is paused mid-chunk, snapshotted, and
    /// restored into a system that never saw a tape. All of them, and a
    /// run that was never taped, end in the same bytes.
    #[test]
    fn taped_window_snapshot_restores_into_an_untaped_system(
        pause in 0u64..8_000,
        policy_pick in 0usize..5,
    ) {
        let mix_name = "4MEM-1";
        let kind = &PolicyKind::figure2_set()[policy_pick];
        let me = [0.5, 1.5, 2.5, 3.5];

        let mut plain = build(mix_name, kind, &me);
        plain.prepare_window(WARMUP, TARGET);
        prop_assert!(plain.run_to_boundary(MAX_CYCLES), "warm-up must complete");
        let boundary = plain.snapshot();
        let at_boundary = || {
            let mut sys = build(mix_name, kind, &me);
            sys.load_snapshot(&boundary).expect("boundary snapshot restores");
            sys
        };

        let mut taped = at_boundary();
        let tapes: Vec<Arc<OpTape>> =
            taped.replace_streams(streams(mix_name)).into_iter().map(OpTape::new).collect();
        let read_tapes = |sys: &mut System| {
            let readers = tapes
                .iter()
                .zip(streams(mix_name))
                .map(|(tape, own)| {
                    Box::new(TapedStream::new(Arc::clone(tape), own)) as Box<dyn InstrStream + Send>
                })
                .collect();
            sys.replace_streams(readers);
        };
        read_tapes(&mut taped);
        let mut ahead = at_boundary();
        read_tapes(&mut ahead);
        let out_ahead = ahead.run_window(MAX_CYCLES);
        prop_assert!(tapes.iter().all(|t| t.size().0 > 0), "the window must read every tape");

        let mut untaped = at_boundary();
        for _ in 0..pause {
            taped.tick();
            untaped.tick();
        }
        let snap = taped.snapshot();
        prop_assert!(snap == untaped.snapshot(), "a taped run snapshots to other bytes");
        let mut restored = build(mix_name, kind, &me);
        restored.load_snapshot(&snap).expect("a taped run's snapshot restores into an untaped system");

        let out_plain = plain.run_window(MAX_CYCLES);
        prop_assert!(!out_plain.timed_out, "[{}] must finish", kind.name());
        let end = plain.snapshot();
        for (how, sys, out) in [
            ("read ahead", &mut ahead, Some(out_ahead)),
            ("paused", &mut taped, None),
            ("restored", &mut restored, None),
        ] {
            let out = out.unwrap_or_else(|| sys.run_window(MAX_CYCLES));
            prop_assert_eq!(&out.ipc, &out_plain.ipc, "[{} {}] IPC", kind.name(), how);
            prop_assert_eq!(out.cycles, out_plain.cycles, "[{} {}] cycles", kind.name(), how);
            prop_assert_eq!(
                &out.read_latency, &out_plain.read_latency, "[{} {}] latency", kind.name(), how
            );
            prop_assert_eq!(
                &out.bytes_by_core, &out_plain.bytes_by_core, "[{} {}] bytes", kind.name(), how
            );
            prop_assert!(sys.snapshot() == end, "[{} {}] final machine state", kind.name(), how);
        }
    }
}
