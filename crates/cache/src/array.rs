//! The tag/state array of one set-associative cache.

use crate::config::CacheConfig;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{Addr, CACHE_LINE_SHIFT};

/// A victim line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub line_addr: Addr,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp: larger = more recently used.
    lru: u64,
}

const INVALID: Way = Way { tag: 0, valid: false, dirty: false, lru: 0 };

/// Tag array + true-LRU replacement + dirty bits.
///
/// Purely structural: it does not know about latencies or lower levels.
/// All addresses may be un-aligned; the array masks to lines internally.
#[derive(Debug, Clone)]
pub struct CacheArray {
    cfg: CacheConfig,
    sets: Vec<Way>,
    set_mask: u64,
    stamp: u64,
}

impl CacheArray {
    /// An empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        CacheArray {
            cfg,
            sets: vec![INVALID; sets * cfg.ways],
            set_mask: sets as u64 - 1,
            stamp: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr >> CACHE_LINE_SHIFT;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    #[inline]
    fn ways_of(&mut self, set: usize) -> &mut [Way] {
        let w = self.cfg.ways;
        &mut self.sets[set * w..(set + 1) * w]
    }

    /// Demand access. On a hit, updates LRU (and the dirty bit when
    /// `write`) and returns `true`. On a miss returns `false` without
    /// allocating — allocation happens at fill time (the miss goes
    /// through the MSHRs first).
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set, tag) = self.set_and_tag(addr);
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag {
                way.lru = stamp;
                if write {
                    way.dirty = true;
                }
                return true;
            }
        }
        false
    }

    /// Tag probe without an LRU side effect.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let w = self.cfg.ways;
        self.sets[set * w..(set + 1) * w].iter().any(|way| way.valid && way.tag == tag)
    }

    /// Install a line (from a fill or a write-back from an upper level).
    /// Evicts the LRU way if the set is full and returns the victim.
    /// Filling an already-present line refreshes LRU and ORs the dirty
    /// bit instead of evicting.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set, tag) = self.set_and_tag(addr);
        let set_bits = self.set_mask.count_ones();
        // Already present (e.g. a second fill racing a write-back)?
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag {
                way.lru = stamp;
                way.dirty |= dirty;
                return None;
            }
        }
        // Free way?
        if let Some(way) = self.ways_of(set).iter_mut().find(|w| !w.valid) {
            *way = Way { tag, valid: true, dirty, lru: stamp };
            return None;
        }
        // Evict true-LRU.
        let victim = self.ways_of(set).iter_mut().min_by_key(|w| w.lru).expect("set has ways");
        let evicted = Evicted {
            line_addr: ((victim.tag << set_bits) | set as u64) << CACHE_LINE_SHIFT,
            dirty: victim.dirty,
        };
        *victim = Way { tag, valid: true, dirty, lru: stamp };
        Some(evicted)
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|w| w.valid).count()
    }

    /// Walk every way and the LRU stamp ([`Archive`]); a load needs the
    /// same geometry.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `cfg`: construction-time config, identical across snapshot peers.
        // `set_mask`: derived from cfg at construction, never mutated.
        let Self { cfg: _, sets, set_mask: _, stamp } = self;
        ar.len(sets.len(), SnapError::Invalid("cache geometry mismatch"))?;
        for Way { tag, valid, dirty, lru } in sets {
            ar.u64(tag)?;
            ar.bool(valid)?;
            ar.bool(dirty)?;
            ar.u64(lru)?;
        }
        ar.u64(stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 4 sets x 2 ways x 64 B = 512 B.
        CacheArray::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false));
        assert_eq!(c.fill(0x1000, false), None);
        assert!(c.access(0x1000, false));
        assert!(c.probe(0x1000));
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x1000, false);
        assert!(c.access(0x103f, false));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets*line = 256).
        c.fill(0x000, false);
        c.fill(0x100, false);
        // Touch 0x000 so 0x100 is LRU.
        assert!(c.access(0x000, false));
        let ev = c.fill(0x200, false).expect("must evict");
        assert_eq!(ev.line_addr, 0x100);
        assert!(!ev.dirty);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert!(c.access(0x000, true)); // dirty it
        c.fill(0x100, false);
        let ev = c.fill(0x200, false).expect("evict");
        // LRU is 0x000 despite being written first? No: access updated its
        // LRU, so the victim is 0x100... verify by checking dirty flag of
        // whichever was evicted.
        if ev.line_addr == 0x000 {
            assert!(ev.dirty);
        } else {
            assert_eq!(ev.line_addr, 0x100);
            assert!(!ev.dirty);
            // Next eviction takes the dirty line.
            let ev2 = c.fill(0x300, false).expect("evict");
            assert_eq!(ev2.line_addr, 0x000);
            assert!(ev2.dirty);
        }
    }

    #[test]
    fn fill_existing_line_merges_dirty() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert_eq!(c.fill(0x000, true), None);
        c.fill(0x100, false);
        let ev = c.fill(0x200, false).expect("evict");
        assert_eq!(ev.line_addr, 0x000);
        assert!(ev.dirty, "merged dirty bit lost");
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = tiny();
        for i in 0..3 {
            // Set 2 lines: offset 2*64 within each 256-byte stripe.
            let addr = 0x80 + i * 0x100;
            c.fill(addr, false);
        }
        // First fill got evicted; its reconstructed address must be exact.
        assert!(!c.probe(0x80));
        assert!(c.probe(0x180));
        assert!(c.probe(0x280));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.fill(0x000, false);
        c.fill(0x040, false);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn write_hits_set_dirty() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert!(c.access(0x000, true));
        c.fill(0x100, false);
        // The written line is the LRU of set 0: the next fill evicts it dirty.
        assert_eq!(c.fill(0x200, false), Some(Evicted { line_addr: 0x000, dirty: true }));
    }
}
