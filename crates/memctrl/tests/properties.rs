//! Property-based tests of the controller, queue, priority table and
//! scheduling policies.

use melreq_dram::{DramGeometry, DramSystem};
use melreq_memctrl::controller::ControllerConfig;
use melreq_memctrl::policy::{Candidate, Fcfs, HitFirst, PolicyKind, SchedulerPolicy};
use melreq_memctrl::request::{MemRequest, ReqId};
use melreq_memctrl::table::PriorityTable;
use melreq_memctrl::{registry, MemoryController, RequestQueue};
use melreq_stats::types::{AccessKind, CoreId};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// Queue counters (per-core reads, total writes) always equal a
    /// recount of the queue contents.
    #[test]
    fn queue_counters_consistent(
        ops in proptest::collection::vec((0u16..4, any::<bool>(), any::<bool>()), 1..100)
    ) {
        let g = DramGeometry::paper();
        let mut q = RequestQueue::new(64, 4, g.channels);
        let mut next_id = 0u64;
        let mut live: Vec<ReqId> = Vec::new();
        for (core, is_read, remove) in ops {
            if remove && !live.is_empty() {
                let id = live.remove(live.len() / 2);
                q.remove(id);
            } else if q.has_space() {
                let id = ReqId(next_id);
                next_id += 1;
                let addr = next_id * 64;
                q.push(MemRequest {
                    id,
                    core: CoreId(core),
                    addr,
                    loc: g.decode(addr),
                    kind: if is_read { AccessKind::Read } else { AccessKind::Write },
                    arrival: next_id,
                });
                live.push(id);
            }
            let mut reads = [0u32; 4];
            let mut writes = 0u32;
            for r in q.iter() {
                if r.is_read() {
                    reads[r.core.index()] += 1;
                } else {
                    writes += 1;
                }
            }
            for c in 0..4u16 {
                prop_assert_eq!(q.pending_reads(CoreId(c)), reads[c as usize]);
            }
            prop_assert_eq!(q.total_writes(), writes);
            prop_assert_eq!(q.len(), live.len());
        }
    }

    /// Table entries are non-increasing in the pending-read count and,
    /// at fixed pending count, ordered like the ME values.
    #[test]
    fn priority_table_monotone(
        me in proptest::collection::vec(0.01f64..10000.0, 2..8),
        p in 1u32..=63
    ) {
        let t = PriorityTable::new(&me);
        for c in 0..me.len() {
            let hi = t.lookup(CoreId(c as u16), p);
            let lo = t.lookup(CoreId(c as u16), p + 1);
            prop_assert!(hi >= lo, "priority must not rise with pending reads");
        }
        for a in 0..me.len() {
            for b in 0..me.len() {
                if me[a] > me[b] {
                    prop_assert!(
                        t.lookup(CoreId(a as u16), p) >= t.lookup(CoreId(b as u16), p),
                        "higher ME must not map to lower priority"
                    );
                }
            }
        }
    }

    /// Every policy returns a valid candidate index for arbitrary
    /// non-empty candidate sets.
    #[test]
    fn policies_select_valid_indices(
        seed in any::<u64>(),
        raw in proptest::collection::vec((any::<u8>(), 0u16..8, any::<bool>()), 1..64)
    ) {
        let cands: Vec<Candidate> = raw
            .iter()
            .enumerate()
            .map(|(i, (id, core, hit))| Candidate {
                id: ReqId((*id as u64) << 8 | i as u64),
                core: CoreId(*core),
                row_hit: *hit,
            })
            .collect();
        let mut pending = [0u32; 8];
        for c in &cands {
            pending[c.core.index()] += 1;
        }
        let me: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 3.0).collect();
        let mut policies = PolicyKind::figure2_set();
        policies.push(PolicyKind::Fcfs);
        policies.push(PolicyKind::Fixed { descending: true });
        for kind in policies {
            let mut p = kind.build(&me, 8, seed);
            let idx = p.select(&cands, &pending);
            prop_assert!(idx < cands.len(), "{} returned out-of-range index", kind.name());
        }
    }

    /// ME-LREQ with identical ME values picks a core with the minimum
    /// pending-read count (it degenerates to least-request, up to the
    /// random tie-break among equals).
    #[test]
    fn me_lreq_degenerates_to_lreq(
        seed in any::<u64>(),
        pendings in proptest::collection::vec(1u32..20, 2..6)
    ) {
        let n = pendings.len();
        let me = vec![5.0; n];
        let cands: Vec<Candidate> = (0..n)
            .map(|i| Candidate { id: ReqId(i as u64), core: CoreId(i as u16), row_hit: false })
            .collect();
        let mut pend = vec![0u32; n];
        pend.copy_from_slice(&pendings);
        let mut p = PolicyKind::MeLreq.build(&me, n, seed);
        let idx = p.select(&cands, &pend);
        let min = *pendings.iter().min().expect("non-empty");
        prop_assert_eq!(
            pendings[cands[idx].core.index()], min,
            "ME-LREQ with flat ME must pick a least-request core"
        );
    }

    /// The rule an uncontested window's sharing rests on (DESIGN.md,
    /// "Checkpointing & the sweep driver"): whatever state a history of
    /// two-core decisions left a registered policy in, it orders one
    /// core's requests as its rule class alone says — hit-first then
    /// oldest, or oldest. A policy overriding `select` must pass this too.
    #[test]
    fn one_cores_requests_are_ordered_by_the_rule_class_alone(
        seed in any::<u64>(),
        history in proptest::collection::vec((0u16..4, any::<bool>()), 0..64),
        lone in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..16),
        core in 0u16..4,
        pending in proptest::collection::vec(1u32..20, 4),
    ) {
        let me = [1.0, 2.0, 4.0, 8.0];
        let cands: Vec<Candidate> = lone
            .iter()
            .enumerate()
            .map(|(i, (id, hit))| Candidate {
                id: ReqId(u64::from(*id) << 8 | i as u64),
                core: CoreId(core),
                row_hit: *hit,
            })
            .collect();
        for desc in registry() {
            let mut p = desc.default_kind().build(&me, 4, seed);
            for (i, (c, hit)) in (0u64..).zip(&history) {
                let two = [
                    Candidate { id: ReqId(2 * i), core: CoreId(*c), row_hit: *hit },
                    Candidate { id: ReqId(2 * i + 1), core: CoreId((c + 1) % 4), row_hit: !hit },
                ];
                let won = p.select(&two, &pending);
                p.note_grant(&two[won]);
            }
            let class = if p.hit_first() {
                HitFirst.select(&cands, &pending)
            } else {
                Fcfs.select(&cands, &pending)
            };
            prop_assert_eq!(p.select(&cands, &pending), class, "{}", desc.id);
        }
    }

    /// Controller conservation: every submitted read completes exactly
    /// once, and writes never produce completions.
    #[test]
    fn controller_conserves_requests(
        reqs in proptest::collection::vec((0u16..4, 0u64..1024, any::<bool>()), 1..48),
        policy_pick in 0usize..5
    ) {
        let kind = PolicyKind::figure2_set()[policy_pick].clone();
        let me = vec![1.0, 2.0, 4.0, 8.0];
        let mut ctrl = MemoryController::new(
            ControllerConfig::paper(),
            DramSystem::paper(),
            kind.build(&me, 4, 7),
            kind.read_first(),
            4,
        );
        let mut expected_reads = BTreeSet::new();
        let mut now = 0u64;
        for (core, line, is_read) in reqs {
            while !ctrl.can_accept() {
                ctrl.tick(now);
                while ctrl.pop_completed(now).is_some() {}
                now += 1;
            }
            let kind = if is_read { AccessKind::Read } else { AccessKind::Write };
            let id = ctrl.submit(CoreId(core), line * 64, kind, now);
            if is_read {
                expected_reads.insert(id);
            }
        }
        let mut seen = BTreeSet::new();
        for _ in 0..500_000u64 {
            ctrl.tick(now);
            while let Some((id, _, _)) = ctrl.pop_completed(now) {
                prop_assert!(seen.insert(id), "duplicate completion {id:?}");
                prop_assert!(expected_reads.contains(&id), "completion for a write or unknown id");
            }
            now += 1;
            if seen.len() == expected_reads.len() && ctrl.is_idle() {
                break;
            }
        }
        prop_assert_eq!(seen.len(), expected_reads.len(), "lost read completions");
        prop_assert!(ctrl.is_idle(), "controller left non-idle");
    }
}
