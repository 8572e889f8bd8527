//! The tag/state array of one set-associative cache.

use crate::config::CacheConfig;
use melreq_stats::types::{Addr, CACHE_LINE_SHIFT};
use melreq_stats::Counter;

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

/// Per-cache statistics.
#[derive(Debug, Default, Clone)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: Counter,
    /// Demand misses (excluding MSHR merges, which the hierarchy counts).
    pub misses: Counter,
    /// Dirty victims produced by fills.
    pub writebacks: Counter,
}

impl CacheStats {
    /// Hit rate over demand accesses.
    pub fn hit_rate(&self) -> f64 {
        self.hits.ratio_of(self.hits.get() + self.misses.get())
    }
}

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
    stats: CacheStats,
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
            stats: CacheStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
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
                self.stats.hits.inc();
                return true;
            }
        }
        self.stats.misses.inc();
        false
    }

    /// Tag probe without LRU/stat side effects.
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
        if evicted.dirty {
            self.stats.writebacks.inc();
        }
        Some(evicted)
    }

    /// Drop a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag {
                way.valid = false;
                return Some(way.dirty);
            }
        }
        None
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|w| w.valid).count()
    }

    /// Serialize every way, the LRU stamp and the statistics.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        // `cfg`: construction-time config, identical across snapshot peers.
        // `set_mask`: derived from cfg at construction, never mutated.
        let Self { cfg: _, sets, set_mask: _, stamp, stats } = self;
        enc.usize(sets.len());
        for way in sets {
            enc.u64(way.tag);
            enc.bool(way.valid);
            enc.bool(way.dirty);
            enc.u64(way.lru);
        }
        enc.u64(*stamp);
        stats.hits.save_state(enc);
        stats.misses.save_state(enc);
        stats.writebacks.save_state(enc);
    }

    /// Restore state written by [`CacheArray::save_state`] into an array
    /// with the same geometry.
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { cfg: _, sets, set_mask: _, stamp, stats } = self;
        let n = dec.usize()?;
        if n != sets.len() {
            return Err(melreq_snap::SnapError::Invalid("cache geometry mismatch"));
        }
        for way in sets {
            way.tag = dec.u64()?;
            way.valid = dec.bool()?;
            way.dirty = dec.bool()?;
            way.lru = dec.u64()?;
        }
        *stamp = dec.u64()?;
        stats.hits.load_state(dec)?;
        stats.misses.load_state(dec)?;
        stats.writebacks.load_state(dec)
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
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
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
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(0x000, false);
        c.access(0x000, true);
        assert_eq!(c.invalidate(0x000), Some(true));
        assert_eq!(c.invalidate(0x000), None);
        assert!(!c.probe(0x000));
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
        c.access(0x000, true);
        assert_eq!(c.invalidate(0x000), Some(true));
    }
}
