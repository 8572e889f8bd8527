//! A snapshot load validates instead of trusting.
//!
//! The core's issue stage indexes its ROB ring by the sequence numbers it
//! finds in the worklist and on the consumer chains, the controller walks
//! per-channel position lists, the DRAM model indexes its banks, and
//! every per-core table is indexed by core — all of which a restore
//! rebuilds from the snapshot. A snapshot that breaks one of those
//! invariants must therefore be refused at load, with an error, rather
//! than accepted and left to panic (or hang) many cycles later. The
//! container checksum does not help here — it covers transport, not
//! content — so each case below decodes a real snapshot (the determinism
//! pins' 4MEM-1 warm-up boundary, or that boundary forked into a policy
//! and paused mid-window) into this file's own picture of the payload,
//! breaks one field, re-encodes, re-seals with a valid checksum, and
//! expects `System::load_snapshot` to answer with that check's error.

use melreq_core::experiment::CANONICAL_WARMUP_POLICY;
use melreq_core::{ExperimentOptions, System, SystemConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::registry::find;
use melreq_snap::{Archive, Dec, Enc, SnapError};
use melreq_trace::{MicroOp, OpKind};
use melreq_workloads::mix_by_name;
use std::sync::OnceLock;

const MIX: &str = "4MEM-1";
/// The determinism pins' fork: profile, and the cycle the run pauses at.
const PIN_ME: [f64; 4] = [0.4, 0.1, 0.3, 0.2];
const PIN_PAUSE: u64 = 80_000;

type R = Result<(), SnapError>;

/// This file's picture of the payload: each type walks, in order, the
/// bytes a snapshot holds for what it stands for, so one walk decodes a
/// payload and encodes it back.
trait Walk {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R;
}

macro_rules! walk_as {
    ($($t:ty => $method:ident),*) => {$(
        impl Walk for $t {
            fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
                ar.$method(self)
            }
        }
    )*};
}
walk_as!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, bool => bool, String => string);

impl Walk for OpKind {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        self.state(ar)
    }
}

impl Walk for MicroOp {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        self.state(ar)
    }
}

/// Length-prefixed.
impl<T: Walk + Default> Walk for Vec<T> {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        ar.seq(self, None, |ar, x| x.walk(ar))
    }
}

/// A presence byte, then the value.
impl<T: Walk + Default> Walk for Option<T> {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        let mut some = self.is_some();
        ar.bool(&mut some)?;
        if ar.loading() {
            *self = some.then(T::default);
        }
        self.as_mut().map_or(Ok(()), |x| x.walk(ar))
    }
}

/// No length prefix.
impl<T: Walk, const N: usize> Walk for [T; N] {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        self.iter_mut().try_for_each(|x| x.walk(ar))
    }
}

macro_rules! walk_tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Walk),*> Walk for ($($t,)*) {
            fn walk<Ar: Archive>(&mut self, ar: &mut Ar) -> R {
                $(self.$i.walk(ar)?;)*
                Ok(())
            }
        }
    };
}
walk_tuple!(T0.0, T1.1);
walk_tuple!(T0.0, T1.1, T2.2);
walk_tuple!(T0.0, T1.1, T2.2, T3.3);

/// A tag byte, then a `u64` when bit `tag` of `WITH` is set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tagged<const WITH: u8> {
    tag: u8,
    val: u64,
}

impl<const WITH: u8> Walk for Tagged<WITH> {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        ar.u8(&mut self.tag)?;
        if WITH.checked_shr(u32::from(self.tag)).is_some_and(|bits| bits & 1 == 1) {
            ar.u64(&mut self.val)?;
        }
        Ok(())
    }
}

/// Structs whose fields are walked in declaration order.
macro_rules! mirror {
    ($($name:ident { $($field:ident: $ty:ty),* $(,)? })*) => {$(
        #[derive(Debug, Clone, Default, PartialEq)]
        struct $name {
            $($field: $ty),*
        }

        impl Walk for $name {
            fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
                $(self.$field.walk(ar)?;)*
                Ok(())
            }
        }
    )*};
}

/// Entries: line, waiters.
type Mshr<W> = Vec<(u64, Vec<W>)>;
/// L1 waiter: tag 0 a load and its sequence number, 1 a fetch, 2 a store.
type L1Waiter = Tagged<0b1>;
/// L2 waiter: core, origin.
type L2Waiter = (u16, u8);

mirror! {
    Payload { now: u64, cores: Vec<CoreSec>, hier: Hier, online: Option<Online>, reset_at: Option<u64> }
    CoreSec {
        // `SyntheticStream`: address cursor and generator, op generator,
        // pc; then the ops-since-load counter.
        stream: ([u64; 10], u16),
        rob: Vec<RobEntry>,
        head_seq: u64,
        next_seq: u64,
        fetch_line: Option<u64>,
        fetch_pending: bool,
        staged: Option<MicroOp>,
        fetch_stall_until: u64,
        halted_by_branch: Option<u64>,
        loads_in_rob: u64,
        stores_in_rob: u64,
        waiting: Vec<u64>,
        window: (u64, [Option<u64>; 3]),
        // Committed ops, cycles.
        stats: [u64; 2],
    }
    // State tag: 0 waiting, 1 executing, 2 waiting on memory, 3 done;
    // tags 1 and 3 carry a cycle.
    RobEntry { kind: OpKind, dep_seq: Option<u64>, state: Tagged<0b1010>, seq: u64 }
    Cache { ways: Vec<(u64, bool, bool, u64)>, stamp: u64 }
    L1s { l1i: Cache, l1i_mshr: Mshr<L1Waiter>, l1d: Cache, l1d_mshr: Mshr<L1Waiter> }
    Hier {
        cores: Vec<L1s>,
        l2: Cache,
        l2_mshr: Mshr<L2Waiter>,
        events: Vec<Event>,
        event_seq: u64,
        stalled: [Vec<(u16, u64)>; 2],
        ctrl: Ctrl,
    }
    Event { at: u64, seq: u64, tag: u8, core: u16, line: u64, origin: u8 }
    Req { id: u64, core: u16, addr: u64, channel: u64, bank: u64, row: u64, column: u32, read: bool, arrival: u64 }
    // Banks: a tagged open row, then the ready horizon.
    Chan { banks: Vec<(Tagged<0b10>, u64)>, bus: [u64; 2] }
    Dram { channels: Vec<Chan> }
    Online { epoch: u64, next_at: u64, prev_instr: Vec<u64>, prev_bytes: Vec<u64>, estimate: Vec<u64> }
    Table { rows: Vec<Row>, scale: u64, rng: [u64; 4] }
}

/// One core's 64 priority-table entries.
#[derive(Debug, Clone, PartialEq)]
struct Row([u16; 64]);

impl Default for Row {
    fn default() -> Self {
        Row([0; 64])
    }
}

impl Walk for Row {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        self.0.walk(ar)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Ctrl {
    queue: Vec<Req>,
    dram: Dram,
    read_first_draining: (bool, bool),
    next_id: u64,
    completions: Vec<(u64, u64, u16, u64)>,
    /// Per core, a read count and a latency sum.
    latency: Vec<[u64; 2]>,
    /// One counter per core, with no length of its own.
    bytes_by_core: Vec<u64>,
    means: [u64; 4],
    per_channel: Vec<[u64; 3]>,
    policy_name: String,
    policy: Policy,
}

impl Walk for Ctrl {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        self.queue.walk(ar)?;
        self.dram.walk(ar)?;
        self.read_first_draining.walk(ar)?;
        self.next_id.walk(ar)?;
        self.completions.walk(ar)?;
        self.latency.walk(ar)?;
        if ar.loading() {
            self.bytes_by_core = vec![0; self.latency.len()];
        }
        self.bytes_by_core.iter_mut().try_for_each(|b| ar.u64(b))?;
        self.means.walk(ar)?;
        self.per_channel.walk(ar)?;
        self.policy_name.walk(ar)?;
        if ar.loading() {
            self.policy = Policy::named(&self.policy_name);
        }
        self.policy.walk(ar)
    }
}

/// The decision state of the policy the controller names.
#[derive(Debug, Clone, Default, PartialEq)]
enum Policy {
    #[default]
    Stateless,
    /// Rotation pointer.
    Rr(u64),
    MeLreq(Table),
    /// Per-core virtual finish times, global virtual clock.
    Fq((Vec<u64>, u64)),
    /// Per-core debt (`f64` bits), last accrual cycle.
    Stf((Vec<u64>, u64)),
    /// Blacklist, last core, streak, grants since the last clear.
    Bliss((Vec<bool>, Option<u64>, u32, u64)),
    /// Interval reads, grants this quantum, ranks, shuffle.
    Tcm((Vec<u64>, u64, Vec<u32>, u64)),
}

impl Policy {
    fn named(name: &str) -> Self {
        match name {
            "RR" => Policy::Rr(0),
            "ME-LREQ" => Policy::MeLreq(Table::default()),
            "FQ" => Policy::Fq(Default::default()),
            "STF" => Policy::Stf(Default::default()),
            "BLISS" => Policy::Bliss(Default::default()),
            "TCM" => Policy::Tcm(Default::default()),
            _ => Policy::Stateless,
        }
    }
}

impl Walk for Policy {
    fn walk<A: Archive>(&mut self, ar: &mut A) -> R {
        match self {
            Policy::Stateless => Ok(()),
            Policy::Rr(next) => next.walk(ar),
            Policy::MeLreq(table) => table.walk(ar),
            Policy::Fq(s) | Policy::Stf(s) => s.walk(ar),
            Policy::Bliss(s) => s.walk(ar),
            Policy::Tcm(s) => s.walk(ar),
        }
    }
}

fn encode(payload: &mut Payload) -> Vec<u8> {
    Enc::save(|enc| payload.walk(enc))
}

/// A 4MEM-1 system under the canonical warm-up policy, armed for the
/// quick-options window; with `kind`, already forked into that policy.
fn pin_system(kind: Option<&PolicyKind>) -> System {
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name(MIX);
    let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
    let mut sys = System::new(cfg, mix.eval_streams(0), &[1.0; 4]);
    sys.prepare_window(opts.warmup, opts.instructions);
    if let Some(kind) = kind {
        sys.swap_policy(kind, &PIN_ME);
    }
    sys
}

/// The pinned warm-up boundary container, made once per process.
fn boundary() -> &'static [u8] {
    static BOUNDARY: OnceLock<Vec<u8>> = OnceLock::new();
    BOUNDARY.get_or_init(|| {
        let mut sys = pin_system(None);
        assert!(sys.run_to_boundary(1 << 26), "warm-up must reach the boundary");
        sys.snapshot()
    })
}

/// A pinned snapshot, decoded, and the kind of system that restores it.
struct Pinned {
    kind: Option<PolicyKind>,
    payload: Payload,
}

impl Pinned {
    /// The boundary, or (with a registry id) the boundary forked into
    /// that policy and paused mid-window.
    fn new(policy: Option<&str>) -> Self {
        let kind = policy.map(|id| find(id).expect("a registered policy").default_kind());
        let container = match &kind {
            None => boundary().to_vec(),
            Some(kind) => {
                let mut sys = pin_system(None);
                sys.load_snapshot(boundary()).expect("the boundary restores");
                sys.swap_policy(kind, &PIN_ME);
                let _ = sys.run_window(PIN_PAUSE);
                assert_eq!(sys.now(), PIN_PAUSE, "[{policy:?}] must still be mid-window");
                sys.snapshot()
            }
        };
        let bytes = melreq_snap::open(&container).expect("own snapshot opens");
        let mut payload = Payload::default();
        let mut dec = Dec::new(bytes);
        payload.walk(&mut dec).expect("this file's picture of the payload decodes it");
        assert!(dec.is_exhausted() && encode(&mut payload) == bytes, "the picture is out of date");
        let pinned = Pinned { kind, payload };
        pinned.restore(pinned.payload.clone()).expect("the untouched payload restores");
        pinned
    }

    fn restore(&self, mut payload: Payload) -> R {
        pin_system(self.kind.as_ref()).load_snapshot(&melreq_snap::seal(&encode(&mut payload)))
    }

    /// `breakage` applied to the payload makes a snapshot the receiver
    /// refuses with `want`.
    fn refused(&self, what: &str, want: SnapError, breakage: impl FnOnce(&mut Payload)) {
        let mut payload = self.payload.clone();
        breakage(&mut payload);
        assert_eq!(self.restore(payload), Err(want), "a snapshot with {what}");
    }
}

fn ctrl(payload: &mut Payload) -> &mut Ctrl {
    &mut payload.hier.ctrl
}

fn invalid(why: &'static str) -> SnapError {
    SnapError::Invalid(why)
}

impl CoreSec {
    /// Mark in-flight op `i` as waiting (or not), keeping the worklist the
    /// ROB's waiting ops in program order.
    fn set_waiting(&mut self, i: usize, waiting: bool) {
        self.rob[i].state = Tagged { tag: if waiting { 0 } else { 3 }, val: 0 };
        self.waiting = self.rob.iter().filter(|e| e.state.tag == 0).map(|e| e.seq).collect();
    }
}

#[test]
fn corrupt_core_sections_are_refused_not_trusted() {
    let pinned = Pinned::new(None);
    let head = &pinned.payload.cores[0];
    // The boundary must give the cases something to break.
    let n = head.rob.len();
    assert!(n > 65 && (2..64).contains(&head.waiting.len()), "{n} ops in flight");
    let alu = head
        .rob
        .iter()
        .position(|e| !e.kind.is_mem() && !matches!(e.kind, OpKind::Branch { .. }))
        .expect("an ALU op in flight");
    let not_waiting = head.rob.iter().position(|e| e.state.tag != 0).unwrap();
    let refused = |what: &str, why: &'static str, breakage: &dyn Fn(&mut CoreSec)| {
        pinned.refused(what, invalid(why), |p| breakage(&mut p.cores[0]));
    };

    let gap = "ROB sequence numbers not contiguous";
    refused("a gap in the ROB's sequence numbers", gap, &|h| h.rob[n / 2].seq += 1);
    refused("two ROB entries swapped", gap, &|h| h.rob.swap(3, 4));
    refused("sequence numbers wrapping u64", gap, &|h| {
        for (i, e) in h.rob.iter_mut().enumerate() {
            e.seq = (u64::MAX - 2).wrapping_add(i as u64);
        }
    });
    let span = "ROB does not span head_seq..next_seq";
    refused("head_seq past the oldest op", span, &|h| h.head_seq += 1);
    refused("head_seq before the oldest op", span, &|h| h.head_seq -= 1);
    refused("next_seq past the youngest op", span, &|h| h.next_seq += 1);
    refused("more ops in flight than the ROB holds", "ROB occupancy beyond capacity", &|h| {
        while h.rob.len() <= 196 {
            let seq = h.next_seq;
            let state = Tagged { tag: 3, val: 0 };
            h.rob.push(RobEntry { kind: OpKind::IntAlu, dep_seq: None, state, seq });
            h.next_seq += 1;
        }
    });
    let younger = "ROB op depends on a younger op";
    refused("an op that depends on itself", younger, &|h| h.rob[5].dep_seq = Some(h.rob[5].seq));
    refused("an op that depends on a younger op", younger, &|h| {
        h.rob[5].dep_seq = Some(h.rob[9].seq);
    });
    refused("an op that depends on the no-producer sentinel", younger, &|h| {
        h.rob[5].dep_seq = Some(u64::MAX);
    });
    let worklist = "issue worklist is not the ROB's waiting ops";
    refused("a waiting op missing from the worklist", worklist, &|h| {
        h.waiting.pop();
    });
    refused("a worklist out of program order", worklist, &|h| h.waiting.swap(0, 1));
    refused("a worklist naming an op that is not waiting", worklist, &|h| {
        let seq = h.rob[not_waiting].seq;
        h.waiting.push(seq);
        h.waiting.sort_unstable();
    });
    refused("a worklist naming an op outside the ROB", worklist, &|h| {
        h.waiting.push(h.next_seq + 7);
    });
    refused(
        "more waiting ops than the issue queue holds",
        "issue worklist beyond IQ capacity",
        &|h| {
            for i in 0..65 {
                h.set_waiting(i, true);
            }
            h.halted_by_branch = None;
        },
    );
    let queues = "load/store queue occupancy disagrees with the ROB";
    refused("a load too many in the load queue count", queues, &|h| h.loads_in_rob += 1);
    refused("a store too few in the store queue count", queues, &|h| {
        h.stores_in_rob = h.stores_in_rob.wrapping_sub(1);
    });
    let halt = "fetch halted by no waiting mispredicted branch";
    refused("fetch halted by an op that is no branch", halt, &|h| {
        h.set_waiting(alu, true);
        h.halted_by_branch = Some(h.rob[alu].seq);
    });
    refused("fetch halted by a retired op", halt, &|h| h.halted_by_branch = Some(h.head_seq - 1));
    refused("fetch halted by an op not yet fetched", halt, &|h| {
        h.halted_by_branch = Some(h.next_seq);
    });
    refused("fetch halted by a branch that already issued", halt, &|h| {
        h.rob[alu].kind = OpKind::Branch { mispredict: true };
        h.set_waiting(alu, false);
        h.halted_by_branch = Some(h.rob[alu].seq);
    });
    pinned.refused("an op state tag past the last", SnapError::BadTag(4), |p| {
        p.cores[0].rob[alu].state.tag = 4;
    });

    // The checks are not so eager that a consistent edit trips them.
    let mut halted = pinned.payload.clone();
    let h = &mut halted.cores[0];
    h.rob[alu].kind = OpKind::Branch { mispredict: true };
    h.set_waiting(alu, true);
    h.halted_by_branch = Some(h.rob[alu].seq);
    pinned.restore(halted).expect("a consistent halt restores");

    pinned.refused("a core too few", invalid("system core count mismatch"), |p| {
        p.cores.pop();
    });
    pinned.refused(
        "an online estimator the receiver lacks",
        invalid("online estimator presence mismatch"),
        |p| {
            p.online = Some(Online::default());
        },
    );
}

#[test]
fn corrupt_memory_side_sections_are_refused_not_trusted() {
    let pinned = Pinned::new(None);
    let refused = |what: &str, why: &'static str, breakage: &dyn Fn(&mut Payload)| {
        pinned.refused(what, invalid(why), breakage);
    };
    let mut trailing = encode(&mut pinned.payload.clone());
    trailing.push(0);
    let got = pin_system(None).load_snapshot(&melreq_snap::seal(&trailing));
    assert_eq!(got, Err(invalid("trailing snapshot bytes")));

    // Caches and MSHRs.
    refused("a core too few in the hierarchy", "hierarchy core count mismatch", &|p| {
        p.hier.cores.pop();
    });
    refused("an L2 way too few", "cache geometry mismatch", &|p| {
        p.hier.l2.ways.pop();
    });
    refused("more outstanding lines than MSHRs", "MSHR entries exceed capacity", &|p| {
        let entries = &mut p.hier.cores[0].l1i_mshr;
        while entries.len() <= 8 {
            // One line past the L1I's 8 MSHRs (Table 1), each with a fetch waiting.
            entries.push((entries.len() as u64 * 64, vec![Tagged { tag: 1, val: 0 }]));
        }
    });
    let busy = pinned.payload.hier.cores.iter().position(|c| !c.l1d_mshr.is_empty());
    let busy = busy.expect("the boundary must have an L1D miss outstanding");
    refused("an outstanding line nobody waits for", "MSHR entry without a waiter", &|p| {
        p.hier.cores[busy].l1d_mshr[0].1.clear();
    });
    pinned.refused("an L1 waiter tag past the last", SnapError::BadTag(7), |p| {
        p.hier.cores[busy].l1d_mshr[0].1[0] = Tagged { tag: 7, val: 0 };
    });
    assert!(
        !pinned.payload.hier.l2_mshr.is_empty(),
        "the boundary must have an L2 miss outstanding"
    );
    pinned.refused("an L2 waiter of neither L1", SnapError::BadTag(2), |p| {
        p.hier.l2_mshr[0].1[0].1 = 2;
    });
    let event = Event { at: 1, seq: 1, tag: 0, core: 0, line: 0, origin: 0 };
    pinned.refused("a cache event of no kind", SnapError::BadTag(2), |p| {
        p.hier.events.push(Event { tag: 2, ..event.clone() });
    });
    pinned.refused("a cache event from neither L1", SnapError::BadTag(3), |p| {
        p.hier.events.push(Event { origin: 3, ..event.clone() });
    });

    // The request queue.
    refused("more requests than the buffer holds", "queue entries exceed capacity", &|p| {
        let queue = &mut ctrl(p).queue;
        while queue.len() <= 64 {
            queue.push(Req { id: 1 << 40, read: true, ..Req::default() });
        }
    });
    assert!(!pinned.payload.hier.ctrl.queue.is_empty(), "the boundary must queue requests");
    let out_of_range = "request indices out of range";
    refused("a request from no core", out_of_range, &|p| ctrl(p).queue[0].core = 4);
    refused("a request to no channel", out_of_range, &|p| ctrl(p).queue[0].channel = 99);

    // The DRAM device.
    refused("a channel too few", "channel count mismatch", &|p| {
        ctrl(p).dram.channels.pop();
    });
    refused("a bank too few", "bank count mismatch", &|p| {
        ctrl(p).dram.channels[0].banks.pop();
    });
    pinned.refused("a bank latch neither open nor closed", SnapError::BadTag(2), |p| {
        ctrl(p).dram.channels[0].banks[0].0 = Tagged { tag: 2, val: 0 };
    });

    // The controller's statistics and policy.
    refused("a latency mean too few", "controller core count mismatch", &|p| {
        ctrl(p).latency.pop();
    });
    refused("a channel's traffic too few", "controller channel count mismatch", &|p| {
        ctrl(p).per_channel.pop();
    });
    refused("another policy's name", "scheduler policy mismatch", &|p| {
        ctrl(p).policy_name = "FCFS".into();
    });
}

/// One broken policy state: what it is, the error it draws, the breakage.
type PolicyCase = (&'static str, &'static str, fn(&mut Policy));

#[test]
fn corrupt_policy_state_is_refused_not_trusted() {
    let refused = |id: &str, cases: &[PolicyCase]| {
        let pinned = Pinned::new(Some(id));
        for &(what, why, breakage) in cases {
            pinned.refused(what, invalid(why), |p| breakage(&mut p.hier.ctrl.policy));
        }
        pinned
    };
    macro_rules! state {
        ($policy:expr, $variant:ident) => {
            match $policy {
                Policy::$variant(state) => state,
                other => panic!("not a {} policy: {other:?}", stringify!($variant)),
            }
        };
    }
    refused(
        "rr",
        &[("a rotation past the last core", "round-robin pointer out of range", |p| {
            *state!(p, Rr) = 4;
        })],
    );
    refused(
        "me-lreq",
        &[("a priority table too few", "priority table core count mismatch", |p| {
            state!(p, MeLreq).rows.pop();
        })],
    );
    refused(
        "fq",
        &[("a flow clock too many", "fair-queueing core count mismatch", |p| {
            state!(p, Fq).0.push(0);
        })],
    );
    refused(
        "stf",
        &[("a debt too few", "stall-time-fair core count mismatch", |p| {
            state!(p, Stf).0.pop();
        })],
    );
    refused(
        "bliss",
        &[
            ("a blacklist bit too few", "bliss core count mismatch", |p| {
                state!(p, Bliss).0.pop();
            }),
            ("a streak on no core", "bliss last core out of range", |p| {
                state!(p, Bliss).1 = Some(4);
            }),
            ("a streak on a core past u16", "bliss last core out of range", |p| {
                state!(p, Bliss).1 = Some(1 << 16);
            }),
        ],
    );
    refused(
        "tcm",
        &[
            ("an interval count too few", "tcm core count mismatch", |p| {
                state!(p, Tcm).0.pop();
            }),
            ("a rank too few", "tcm rank count mismatch", |p| {
                state!(p, Tcm).2.pop();
            }),
            ("a rank past the last", "tcm rank out of range", |p| state!(p, Tcm).2[0] = 4),
        ],
    );
    let online = refused("me-lreq-on", &[]);
    fn estimator(p: &mut Payload) -> &mut Online {
        p.online.as_mut().expect("an online estimator")
    }
    online.refused("an online epoch of zero", invalid("online epoch must be positive"), |p| {
        estimator(p).epoch = 0;
    });
    online.refused("an estimate too few", invalid("online estimator width mismatch"), |p| {
        estimator(p).estimate.pop();
    });
}

/// A restore cannot change the receiver's rule class. FCFS and FCFS-RF
/// answer to one name, "FCFS", so the name check alone would let either
/// load the other's snapshot; the controller's read-first byte is the
/// receiving policy's, checked like its name.
#[test]
fn a_restore_cannot_change_the_receivers_rule_class() {
    let mismatch = invalid("read-first class mismatch");
    let fcfs_rf = Pinned::new(Some("fcfs-rf"));
    assert!(fcfs_rf.payload.hier.ctrl.read_first_draining.0, "FCFS-RF reads first");
    let bytes = melreq_snap::seal(&encode(&mut fcfs_rf.payload.clone()));
    let into_fcfs = pin_system(Some(&PolicyKind::Fcfs)).load_snapshot(&bytes);
    assert_eq!(into_fcfs, Err(mismatch.clone()), "FCFS-RF into FCFS");
    fcfs_rf.refused("plain FCFS's class", mismatch, |p| ctrl(p).read_first_draining.0 = false);
}

/// A forged count is an error, never an allocation sized by it: the
/// controller's completion list and the hierarchy's event list, the two
/// lists of the payload with no bound the receiver knows, each claim
/// 2^40 entries.
#[test]
fn a_forged_count_is_an_error_not_an_allocation() {
    let pinned = Pinned::new(None);
    const MARK: u64 = 0x0123_4567_89ab_cdef;
    let forged = |plant: &dyn Fn(&mut Payload)| {
        let mut payload = pinned.payload.clone();
        plant(&mut payload);
        let mut bytes = encode(&mut payload);
        // The planted one-entry list: its count, then its first word.
        let needle = [1u64.to_le_bytes(), MARK.to_le_bytes()].concat();
        let at = bytes.windows(16).position(|w| w == needle).expect("the planted list");
        assert_eq!(bytes.windows(16).rposition(|w| w == needle), Some(at), "one planted list");
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        pin_system(None).load_snapshot(&melreq_snap::seal(&bytes))
    };
    let completions = forged(&|p| p.hier.ctrl.completions = vec![(MARK, 0, 0, 0)]);
    assert!(completions.is_err(), "{completions:?}");
    let event = Event { at: MARK, seq: 0, tag: 0, core: 0, line: 0, origin: 0 };
    let events = forged(&|p| p.hier.events = vec![event.clone()]);
    assert!(events.is_err(), "{events:?}");
}
