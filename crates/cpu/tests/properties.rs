//! Property-based tests of the out-of-order core model: liveness and
//! structural bounds under arbitrary instruction mixes.

use melreq_cpu::{Core, CoreConfig, PerfectMemory};
use melreq_stats::types::CoreId;
use melreq_trace::{InstrStream, MicroOp, OpKind};
use proptest::prelude::*;

/// A stream cycling over a fixed op vector.
struct Cyclic {
    ops: Vec<MicroOp>,
    i: usize,
}

impl InstrStream for Cyclic {
    fn next_op(&mut self) -> MicroOp {
        let op = self.ops[self.i % self.ops.len()];
        self.i += 1;
        op
    }

    fn label(&self) -> &str {
        "cyclic"
    }

    fn state(&mut self, ar: &mut dyn melreq_snap::Archive) -> Result<(), melreq_snap::SnapError> {
        ar.usize(&mut self.i)
    }
}

fn arb_op(i: u64) -> impl Strategy<Value = MicroOp> {
    (0u8..7, 0u16..8).prop_map(move |(k, dep)| {
        let kind = match k {
            0 => OpKind::IntAlu,
            1 => OpKind::IntMult,
            2 => OpKind::FpAlu,
            3 => OpKind::FpMult,
            4 => OpKind::Branch { mispredict: dep == 0 },
            5 => OpKind::Load { addr: 0x10_0000 + (i * 64) % 4096 },
            _ => OpKind::Store { addr: 0x20_0000 + (i * 64) % 4096 },
        };
        MicroOp { pc: 0x1000 + (i * 4) % 8192, kind, dep_dist: dep }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Liveness: with a perfect memory, any op mix keeps committing —
    /// the pipeline can never wedge.
    #[test]
    fn core_never_deadlocks(
        ops in proptest::collection::vec((0u8..7, 0u16..8), 8..64),
        latency in 1u64..100
    ) {
        let ops: Vec<MicroOp> = ops
            .iter()
            .enumerate()
            .map(|(i, &(k, dep))| {
                let kind = match k {
                    0 => OpKind::IntAlu,
                    1 => OpKind::IntMult,
                    2 => OpKind::FpAlu,
                    3 => OpKind::FpMult,
                    4 => OpKind::Branch { mispredict: dep == 0 },
                    5 => OpKind::Load { addr: 0x10_0000 + (i as u64 * 64) % 4096 },
                    _ => OpKind::Store { addr: 0x20_0000 + (i as u64 * 64) % 4096 },
                };
                MicroOp { pc: 0x1000 + (i as u64 * 4), kind, dep_dist: dep }
            })
            .collect();
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::paper(),
            Box::new(Cyclic { ops, i: 0 }),
        );
        let mut mem = PerfectMemory { latency };
        let mut last = 0;
        for now in 0..20_000u64 {
            core.tick(now, &mut mem);
            if now % 5000 == 4999 {
                let c = core.committed();
                prop_assert!(c > last, "no commits in 5000 cycles (at {now})");
                last = c;
            }
        }
    }

    /// IPC can never exceed the pipeline width.
    #[test]
    fn ipc_bounded_by_width(dep in 0u16..4, latency in 1u64..20) {
        let ops: Vec<MicroOp> = (0..32)
            .map(|i| MicroOp { pc: 0x1000 + i * 4, kind: OpKind::IntAlu, dep_dist: dep })
            .collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Cyclic { ops, i: 0 }));
        let mut mem = PerfectMemory { latency };
        for now in 0..5000u64 {
            core.tick(now, &mut mem);
        }
        prop_assert!(core.stats().ipc() <= 4.0 + 1e-9);
    }
}

/// Sanity: see `arb_op` is exercised (silences dead-code in some builds).
#[test]
fn arb_op_strategy_builds() {
    use proptest::strategy::{Strategy, ValueTree};
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let v = arb_op(3).new_tree(&mut runner).expect("tree").current();
    assert!(v.pc >= 0x1000);
}

/// A memory that blocks the first `n` attempts of every access, to
/// exercise the core's retry paths.
struct FlakyMemory {
    reject_next: u32,
}

impl melreq_cpu::CoreMemory for FlakyMemory {
    fn load(
        &mut self,
        _c: CoreId,
        _t: melreq_cpu::CoreToken,
        _a: u64,
        now: u64,
    ) -> melreq_cpu::MemResponse {
        if self.reject_next > 0 {
            self.reject_next -= 1;
            melreq_cpu::MemResponse::Blocked
        } else {
            self.reject_next = 2;
            melreq_cpu::MemResponse::HitAt(now + 5)
        }
    }

    fn ifetch(
        &mut self,
        _c: CoreId,
        _t: melreq_cpu::CoreToken,
        _a: u64,
        now: u64,
    ) -> melreq_cpu::MemResponse {
        melreq_cpu::MemResponse::HitAt(now + 1)
    }

    fn store(&mut self, _c: CoreId, _a: u64, _now: u64) -> bool {
        if self.reject_next > 0 {
            self.reject_next -= 1;
            false
        } else {
            self.reject_next = 1;
            true
        }
    }
}

#[test]
fn core_survives_structural_rejections() {
    // Loads and stores that get Blocked / rejected must be retried, not
    // lost: the core still commits everything.
    let ops: Vec<MicroOp> = (0..32)
        .map(|i| {
            let kind = match i % 3 {
                0 => OpKind::Load { addr: 0x10_0000 + i * 64 },
                1 => OpKind::Store { addr: 0x20_0000 + i * 64 },
                _ => OpKind::IntAlu,
            };
            MicroOp { pc: 0x1000 + i * 4, kind, dep_dist: 0 }
        })
        .collect();
    let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Cyclic { ops, i: 0 }));
    let mut mem = FlakyMemory { reject_next: 3 };
    for now in 0..20_000u64 {
        core.tick(now, &mut mem);
    }
    assert!(
        core.committed() > 1_000,
        "core wedged under structural rejections: {} commits",
        core.committed()
    );
}

#[test]
fn pending_ifetch_stalls_then_resumes() {
    // An ifetch that goes Pending must halt dispatch until finish() is
    // called, then dispatch resumes.
    struct OneMissIcache {
        missed: bool,
    }
    impl melreq_cpu::CoreMemory for OneMissIcache {
        fn load(
            &mut self,
            _c: CoreId,
            _t: melreq_cpu::CoreToken,
            _a: u64,
            now: u64,
        ) -> melreq_cpu::MemResponse {
            melreq_cpu::MemResponse::HitAt(now + 3)
        }
        fn ifetch(
            &mut self,
            _c: CoreId,
            _t: melreq_cpu::CoreToken,
            _a: u64,
            now: u64,
        ) -> melreq_cpu::MemResponse {
            if self.missed {
                melreq_cpu::MemResponse::HitAt(now + 1)
            } else {
                self.missed = true;
                melreq_cpu::MemResponse::Pending
            }
        }
        fn store(&mut self, _c: CoreId, _a: u64, _now: u64) -> bool {
            true
        }
    }
    let ops: Vec<MicroOp> = (0..16)
        .map(|i| MicroOp { pc: 0x1000 + i * 4, kind: OpKind::IntAlu, dep_dist: 0 })
        .collect();
    let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Cyclic { ops, i: 0 }));
    let mut mem = OneMissIcache { missed: false };
    // The very first dispatch misses the I-cache: nothing commits.
    for now in 0..50u64 {
        core.tick(now, &mut mem);
    }
    assert_eq!(core.committed(), 0, "cannot commit before the fetch returns");
    core.finish(melreq_cpu::CoreToken::Fetch, 50);
    for now in 51..300u64 {
        core.tick(now, &mut mem);
    }
    assert!(core.committed() > 100, "core did not resume after the fill");
}
