//! `Core::load_state` validates instead of trusting.
//!
//! The core's issue stage indexes its ROB ring by the sequence numbers it
//! finds in the worklist and on the consumer chains, all of which a
//! restore rebuilds from the snapshot. A snapshot whose `Core` section
//! breaks one of the pipeline's invariants must therefore be refused at
//! load, with an error, rather than accepted and left to panic (or hang)
//! many cycles later. The container checksum does not help here — it
//! covers transport, not content — so each case below decodes core 0 of a
//! real warm-up boundary snapshot, breaks one field, re-encodes, re-seals
//! with a valid checksum, and expects `System::load_snapshot` to say no.

use melreq_core::experiment::CANONICAL_WARMUP_POLICY;
use melreq_core::{ExperimentOptions, System, SystemConfig};
use melreq_snap::{Dec, Enc};
use melreq_trace::{MicroOp, OpKind};
use melreq_workloads::mix_by_name;

const MIX: &str = "4MEM-1";

fn fresh_system() -> System {
    let mix = mix_by_name(MIX);
    let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
    System::new(cfg, mix.eval_streams(0), &vec![1.0; mix.cores()])
}

/// One serialized ROB entry, field for field.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    kind: OpKind,
    dep_seq: Option<u64>,
    /// State tag (0 waiting, 1 executing, 2 waiting on memory, 3 done)
    /// and the cycle that tags 1 and 3 carry.
    state: (u8, Option<u64>),
    seq: u64,
}

/// The head of a serialized `Core`: everything up to and including the
/// issue worklist (the measurement window and statistics follow).
#[derive(Debug, Clone, PartialEq)]
struct CoreHead {
    /// `SyntheticStream` state: address cursor and generator, op
    /// generator, pc; then the ops-since-load counter.
    stream: (Vec<u64>, u16),
    rob: Vec<Entry>,
    head_seq: u64,
    next_seq: u64,
    fetch_line: Option<u64>,
    fetch_pending: bool,
    staged: Option<MicroOp>,
    fetch_stall_until: u64,
    halted_by_branch: Option<u64>,
    loads_in_rob: usize,
    stores_in_rob: usize,
    waiting: Vec<u64>,
}

impl CoreHead {
    fn decode(dec: &mut Dec<'_>) -> Self {
        let stream = ((0..10).map(|_| dec.u64().unwrap()).collect(), dec.u16().unwrap());
        let n = dec.usize().unwrap();
        let rob = (0..n)
            .map(|_| {
                let kind = OpKind::load_state(dec).unwrap();
                let dep_seq = dec.opt_u64().unwrap();
                let tag = dec.u8().unwrap();
                let at = matches!(tag, 1 | 3).then(|| dec.u64().unwrap());
                Entry { kind, dep_seq, state: (tag, at), seq: dec.u64().unwrap() }
            })
            .collect();
        CoreHead {
            stream,
            rob,
            head_seq: dec.u64().unwrap(),
            next_seq: dec.u64().unwrap(),
            fetch_line: dec.opt_u64().unwrap(),
            fetch_pending: dec.bool().unwrap(),
            staged: dec.bool().unwrap().then(|| MicroOp::load_state(dec).unwrap()),
            fetch_stall_until: dec.u64().unwrap(),
            halted_by_branch: dec.opt_u64().unwrap(),
            loads_in_rob: dec.usize().unwrap(),
            stores_in_rob: dec.usize().unwrap(),
            waiting: dec.u64s().unwrap(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        for &w in &self.stream.0 {
            enc.u64(w);
        }
        enc.u16(self.stream.1);
        enc.usize(self.rob.len());
        for e in &self.rob {
            e.kind.save_state(&mut enc);
            enc.opt_u64(e.dep_seq);
            enc.u8(e.state.0);
            if let Some(at) = e.state.1 {
                enc.u64(at);
            }
            enc.u64(e.seq);
        }
        enc.u64(self.head_seq);
        enc.u64(self.next_seq);
        enc.opt_u64(self.fetch_line);
        enc.bool(self.fetch_pending);
        enc.bool(self.staged.is_some());
        if let Some(op) = &self.staged {
            op.save_state(&mut enc);
        }
        enc.u64(self.fetch_stall_until);
        enc.opt_u64(self.halted_by_branch);
        enc.usize(self.loads_in_rob);
        enc.usize(self.stores_in_rob);
        enc.u64s(&self.waiting);
        enc.into_bytes()
    }

    /// Mark in-flight op `i` as waiting (or not), keeping the worklist the
    /// ROB's waiting ops in program order.
    fn set_waiting(&mut self, i: usize, waiting: bool) {
        self.rob[i].state = if waiting { (0, None) } else { (3, Some(0)) };
        self.waiting = self.rob.iter().filter(|e| e.state.0 == 0).map(|e| e.seq).collect();
    }
}

/// A payload is `now · core count · core 0 · ...`: core 0 starts here.
const CORE0: usize = 16;

#[test]
fn corrupt_core_sections_are_refused_not_trusted() {
    let opts = ExperimentOptions::quick();
    let mut sys = fresh_system();
    sys.prepare_window(opts.warmup, opts.instructions);
    assert!(sys.run_to_boundary(1 << 26));
    let sealed = sys.snapshot();
    let payload = melreq_snap::open(&sealed).expect("own snapshot opens");

    let head = CoreHead::decode(&mut Dec::new(&payload[CORE0..]));
    let head_len = head.encode().len();
    assert!(
        head.encode() == payload[CORE0..CORE0 + head_len],
        "this test's picture of the Core section is out of date"
    );
    let reseal = |head: &CoreHead| {
        let mut bytes = payload[..CORE0].to_vec();
        bytes.extend(head.encode());
        bytes.extend(&payload[CORE0 + head_len..]);
        melreq_snap::seal(&bytes)
    };
    assert!(reseal(&head) == sealed);
    fresh_system().load_snapshot(&reseal(&head)).expect("the untouched section restores");

    // The boundary must give the cases something to break.
    let n = head.rob.len();
    assert!(n > 65 && (2..64).contains(&head.waiting.len()), "{n} ops in flight");
    let alu = head
        .rob
        .iter()
        .position(|e| !e.kind.is_mem() && !matches!(e.kind, OpKind::Branch { .. }))
        .expect("an ALU op in flight");
    let not_waiting = head.rob.iter().position(|e| e.state.0 != 0).unwrap();

    let refused = |what: &str, why: &str, breakage: &dyn Fn(&mut CoreHead)| {
        let mut head = head.clone();
        breakage(&mut head);
        match fresh_system().load_snapshot(&reseal(&head)) {
            Err(melreq_snap::SnapError::Invalid(said)) if said.contains(why) => {}
            other => panic!("a snapshot with {what}: expected \"{why}\", got {other:?}"),
        }
    };

    let gap = "sequence numbers not contiguous";
    refused("a gap in the ROB's sequence numbers", gap, &|h| h.rob[n / 2].seq += 1);
    refused("two ROB entries swapped", gap, &|h| h.rob.swap(3, 4));
    refused("sequence numbers wrapping u64", gap, &|h| {
        for (i, e) in h.rob.iter_mut().enumerate() {
            e.seq = (u64::MAX - 2).wrapping_add(i as u64);
        }
    });
    let span = "does not span head_seq..next_seq";
    refused("head_seq past the oldest op", span, &|h| h.head_seq += 1);
    refused("head_seq before the oldest op", span, &|h| h.head_seq -= 1);
    refused("next_seq past the youngest op", span, &|h| h.next_seq += 1);
    refused("more ops in flight than the ROB holds", "beyond capacity", &|h| {
        while h.rob.len() <= 196 {
            let seq = h.next_seq;
            h.rob.push(Entry { kind: OpKind::IntAlu, dep_seq: None, state: (3, Some(0)), seq });
            h.next_seq += 1;
        }
    });
    let younger = "depends on a younger op";
    refused("an op that depends on itself", younger, &|h| h.rob[5].dep_seq = Some(h.rob[5].seq));
    refused("an op that depends on a younger op", younger, &|h| {
        h.rob[5].dep_seq = Some(h.rob[9].seq);
    });
    refused("an op that depends on the no-producer sentinel", younger, &|h| {
        h.rob[5].dep_seq = Some(u64::MAX);
    });
    let worklist = "worklist is not the ROB's waiting ops";
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
    refused("more waiting ops than the issue queue holds", "beyond IQ capacity", &|h| {
        for i in 0..65 {
            h.set_waiting(i, true);
        }
        h.halted_by_branch = None;
    });
    let queues = "occupancy disagrees with the ROB";
    refused("a load too many in the load queue count", queues, &|h| h.loads_in_rob += 1);
    refused("a store too few in the store queue count", queues, &|h| {
        h.stores_in_rob = h.stores_in_rob.wrapping_sub(1);
    });
    let halt = "halted by no waiting mispredicted branch";
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

    // The checks are not so eager that a consistent edit trips them.
    let mut halted = head.clone();
    halted.rob[alu].kind = OpKind::Branch { mispredict: true };
    halted.set_waiting(alu, true);
    halted.halted_by_branch = Some(halted.rob[alu].seq);
    fresh_system().load_snapshot(&reseal(&halted)).expect("a consistent halt restores");
}
