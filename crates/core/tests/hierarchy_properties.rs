//! Property-based tests of the cache hierarchy: conservation and
//! liveness under arbitrary access streams.

use melreq_cache::CacheConfig;
use melreq_core::Hierarchy;
use melreq_cpu::{CoreMemory, CoreToken, MemResponse};
use melreq_dram::DramSystem;
use melreq_memctrl::controller::ControllerConfig;
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::MemoryController;
use melreq_stats::types::CoreId;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn hierarchy(cores: usize, policy: PolicyKind) -> Hierarchy {
    let me: Vec<f64> = (0..cores).map(|i| 1.0 + i as f64).collect();
    let ctrl = MemoryController::new(
        ControllerConfig::paper(),
        DramSystem::paper(),
        policy.build(&me, cores, 11),
        policy.read_first(),
        cores,
    );
    Hierarchy::new(
        cores,
        CacheConfig::l1i_paper(),
        CacheConfig::l1d_paper(),
        CacheConfig::l2_paper(),
        ctrl,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every accepted load completes exactly once, regardless of the
    /// access pattern, the policy, or how many cores interleave.
    #[test]
    fn loads_complete_exactly_once(
        accesses in proptest::collection::vec((0u16..4, 0u64..4096, any::<bool>()), 1..120),
        policy_pick in 0usize..5
    ) {
        let policy = PolicyKind::figure2_set()[policy_pick].clone();
        let mut h = hierarchy(4, policy);
        let mut outstanding: BTreeSet<(u16, u64)> = BTreeSet::new();
        let mut now = 0u64;
        let mut done = Vec::new();
        for (token, (core, line, is_store)) in accesses.into_iter().enumerate() {
            let token = token as u64;
            let addr = 0x100_0000 + line * 64;
            if is_store {
                // Stores may be rejected (MSHR full); that is allowed.
                let _ = h.store(CoreId(core), addr, now);
            } else {
                match h.load(CoreId(core), CoreToken::Load(token), addr, now) {
                    MemResponse::Pending => {
                        outstanding.insert((core, token));
                    }
                    MemResponse::HitAt(at) => prop_assert!(at > now),
                    MemResponse::Blocked => {}
                }
            }
            // Advance a little between accesses.
            for _ in 0..3 {
                done.clear();
                h.advance(now, &mut done);
                for &(c, t) in &done {
                    if let CoreToken::Load(seq) = t {
                        prop_assert!(
                            outstanding.remove(&(c.0, seq)),
                            "completion for unknown load (core {c}, seq {seq})"
                        );
                    }
                }
                now += 1;
            }
        }
        // Drain: everything outstanding must eventually complete.
        let deadline = now + 1_000_000;
        while !outstanding.is_empty() && now < deadline {
            done.clear();
            h.advance(now, &mut done);
            for &(c, t) in &done {
                if let CoreToken::Load(seq) = t {
                    prop_assert!(outstanding.remove(&(c.0, seq)), "duplicate completion");
                }
            }
            now += 1;
        }
        prop_assert!(outstanding.is_empty(), "lost {} loads", outstanding.len());
    }

    /// The hierarchy never invents traffic: DRAM reads are bounded by the
    /// number of distinct lines requested (no duplicated fetches thanks to
    /// MSHR merging, no spurious fetches).
    #[test]
    fn dram_reads_bounded_by_distinct_lines(
        lines in proptest::collection::vec(0u64..64, 1..100)
    ) {
        let mut h = hierarchy(1, PolicyKind::HfRf);
        let distinct: BTreeSet<u64> = lines.iter().copied().collect();
        let mut now = 0u64;
        let mut pending = 0u64;
        let mut done = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let addr = 0x200_0000 + line * 64;
            match h.load(CoreId(0), CoreToken::Load(i as u64), addr, now) {
                MemResponse::Pending => pending += 1,
                MemResponse::HitAt(_) => {}
                MemResponse::Blocked => {}
            }
            done.clear();
            h.advance(now, &mut done);
            pending -= done.len() as u64;
            now += 1;
        }
        let deadline = now + 1_000_000;
        while pending > 0 && now < deadline {
            done.clear();
            h.advance(now, &mut done);
            pending -= done.len() as u64;
            now += 1;
        }
        prop_assert_eq!(pending, 0, "hierarchy wedged");
        prop_assert!(
            h.stats().mem_reads.get() <= distinct.len() as u64,
            "{} DRAM reads for {} distinct lines",
            h.stats().mem_reads.get(),
            distinct.len()
        );
    }
}
