//! Property-based tests of the cache array and MSHR invariants.

use melreq_cache::{AllocOutcome, CacheArray, CacheConfig, MshrFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn tiny_cfg() -> CacheConfig {
    CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, hit_latency: 1, mshrs: 4 }
}

proptest! {
    /// A fill makes the line present; of the distinct lines filled so
    /// far, no more than the capacity are ever present at once.
    #[test]
    fn fill_installs_and_capacity_bounds(
        addrs in proptest::collection::vec(0u64..0x10000, 1..200)
    ) {
        let cfg = tiny_cfg();
        let mut c = CacheArray::new(cfg);
        let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
        let mut filled = BTreeSet::new();
        for a in addrs {
            c.fill(a, false);
            prop_assert!(c.probe(a), "line vanished right after fill");
            filled.insert(a / cfg.line_bytes);
            let present = filled.iter().filter(|&&l| c.probe(l * cfg.line_bytes)).count();
            prop_assert!(present <= capacity);
        }
    }

    /// The cache agrees with a reference model: a line is present iff it
    /// is among the `ways` most-recently-used lines of its set.
    #[test]
    fn lru_matches_reference_model(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        let cfg = tiny_cfg(); // 8 sets x 2 ways
        let mut c = CacheArray::new(cfg);
        // Reference: per set, a recency-ordered list of lines.
        let mut sets: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (line_idx, is_fill) in ops {
            let addr = line_idx * 64;
            let set = line_idx % 8;
            let entry = sets.entry(set).or_default();
            if is_fill {
                c.fill(addr, false);
                entry.retain(|&l| l != line_idx);
                entry.push(line_idx);
                entry.reverse();
                entry.truncate(2);
                entry.reverse();
            } else {
                let hit = c.access(addr, false);
                let ref_hit = entry.contains(&line_idx);
                prop_assert_eq!(hit, ref_hit, "hit mismatch for line {}", line_idx);
                if ref_hit {
                    entry.retain(|&l| l != line_idx);
                    entry.push(line_idx);
                }
            }
            // Present-set equality.
            for &l in entry.iter() {
                prop_assert!(c.probe(l * 64), "reference says line {} present", l);
            }
        }
    }

    /// Dirty data is never lost: every line written is either still
    /// present (dirty) or was reported as a dirty victim.
    #[test]
    fn dirty_lines_are_never_silently_dropped(
        writes in proptest::collection::vec(0u64..64, 1..100),
        fills in proptest::collection::vec(64u64..128, 1..100)
    ) {
        let mut c = CacheArray::new(tiny_cfg());
        let mut dirty_out = Vec::new();
        for w in &writes {
            if let Some(ev) = c.fill(w * 64, true) {
                if ev.dirty {
                    dirty_out.push(ev.line_addr / 64);
                }
            }
        }
        for f in fills {
            if let Some(ev) = c.fill(f * 64, false) {
                if ev.dirty {
                    dirty_out.push(ev.line_addr / 64);
                }
            }
        }
        for w in writes {
            let still_in = c.probe(w * 64);
            let written_back = dirty_out.contains(&w);
            prop_assert!(
                still_in || written_back,
                "dirty line {w} neither cached nor written back"
            );
        }
    }

    /// MSHR conservation: every allocated waiter is returned by exactly
    /// one complete(), and the file is empty afterwards.
    #[test]
    fn mshr_waiters_conserved(
        lines in proptest::collection::vec(0u64..16, 1..64)
    ) {
        let mut m: MshrFile<usize> = MshrFile::new(16);
        let mut expected: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, l) in lines.iter().enumerate() {
            match m.allocate(l * 64, i) {
                AllocOutcome::Primary | AllocOutcome::Merged => {
                    expected.entry(*l).or_default().push(i);
                }
                AllocOutcome::Full => {}
            }
        }
        let mut returned = 0;
        for (l, want) in &expected {
            let got: Vec<usize> = m.complete(l * 64).into_iter().collect();
            prop_assert_eq!(&got, want, "waiter set mismatch for line {}", l);
            returned += got.len();
        }
        prop_assert_eq!(returned, expected.values().map(Vec::len).sum::<usize>());
        prop_assert!(m.is_empty());
    }
}
