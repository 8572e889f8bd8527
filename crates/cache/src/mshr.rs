//! Miss-status holding registers.
//!
//! An MSHR file tracks outstanding misses per line so that (a) secondary
//! misses to an in-flight line merge instead of issuing duplicate memory
//! transactions, and (b) the number of concurrent misses — the core's
//! memory-level parallelism — is bounded by the entry count (Table 1:
//! 8 for L1I, 32 for L1D, 64 for L2).

use melreq_snap::{Archive, SnapError};
use melreq_stats::line_addr;
use melreq_stats::types::Addr;

/// Outcome of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// A new entry was created: the caller must launch the lower-level
    /// fetch for this line.
    Primary,
    /// The line already had an outstanding miss: the waiter was merged.
    Merged,
    /// No entry available: the requester must stall and retry.
    Full,
}

/// The accesses waiting on one outstanding line, in arrival order. The
/// first — every entry has one, the primary miss — is held inline, so
/// only a merged miss allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Waiters<W> {
    first: W,
    rest: Vec<W>,
}

impl<W> Waiters<W> {
    /// The waiters in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &W> {
        std::iter::once(&self.first).chain(&self.rest)
    }
}

impl<W> IntoIterator for Waiters<W> {
    type Item = W;
    type IntoIter = std::iter::Chain<std::iter::Once<W>, std::vec::IntoIter<W>>;

    /// The waiters in arrival order.
    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

#[derive(Debug, Clone, Default)]
struct Entry<W> {
    line: Addr,
    waiters: Waiters<W>,
}

/// MSHR file generic over the waiter handle type `W` (the hierarchy
/// stores whatever it needs to resume the stalled access).
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    entries: Vec<Entry<W>>,
    capacity: usize,
}

impl<W> MshrFile<W> {
    /// An empty file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "need at least one MSHR");
        MshrFile { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Number of outstanding lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every entry is in use.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether `addr`'s line has an outstanding miss.
    pub fn contains(&self, addr: Addr) -> bool {
        let line = line_addr(addr);
        self.entries.iter().any(|e| e.line == line)
    }

    /// Try to register `waiter` for `addr`'s line.
    pub fn allocate(&mut self, addr: Addr, waiter: W) -> AllocOutcome {
        let line = line_addr(addr);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.waiters.rest.push(waiter);
            return AllocOutcome::Merged;
        }
        if self.is_full() {
            return AllocOutcome::Full;
        }
        self.entries.push(Entry { line, waiters: Waiters { first: waiter, rest: Vec::new() } });
        AllocOutcome::Primary
    }

    /// Walk outstanding entries ([`Archive`]); a load needs the same
    /// capacity. Waiter handles are opaque to this
    /// crate, so the owner supplies `walk_w`.
    pub fn state<A: Archive>(
        &mut self,
        ar: &mut A,
        mut walk_w: impl FnMut(&mut W, &mut A) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>
    where
        W: Clone + Default,
    {
        // `capacity`: construction-time bound; a load is checked against it.
        let Self { entries, capacity } = self;
        let cap = Some((*capacity, SnapError::Invalid("MSHR entries exceed capacity")));
        ar.seq(entries, cap, |ar, Entry { line, waiters }| {
            ar.u64(line)?;
            let mut all: Vec<W> = waiters.iter().cloned().collect();
            ar.seq(&mut all, None, |ar, w| walk_w(w, ar))?;
            if ar.loading() {
                let mut all = all.into_iter();
                let first = all.next().ok_or(SnapError::Invalid("MSHR entry without a waiter"))?;
                *waiters = Waiters { first, rest: all.collect() };
            }
            Ok(())
        })
    }

    /// Complete the miss for `addr`'s line, returning its waiters.
    ///
    /// # Panics
    /// Panics if the line has no outstanding entry — a completion for a
    /// line nobody asked for indicates a plumbing bug.
    pub fn complete(&mut self, addr: Addr) -> Waiters<W> {
        let line = line_addr(addr);
        let pos = self
            .entries
            .iter()
            .position(|e| e.line == line)
            .unwrap_or_else(|| panic!("MSHR completion for untracked line {line:#x}"));
        self.entries.swap_remove(pos).waiters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.allocate(0x1000, 1), AllocOutcome::Primary);
        assert_eq!(m.allocate(0x1020, 2), AllocOutcome::Merged); // same line
        assert_eq!(m.len(), 1);
        let w = m.complete(0x1000);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(w.into_iter().collect::<Vec<_>>(), [1, 2]);
        assert!(m.is_empty());
    }

    #[test]
    fn full_rejects_new_lines_but_merges_existing() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert_eq!(m.allocate(0x0000, 1), AllocOutcome::Primary);
        assert!(m.is_full());
        assert_eq!(m.allocate(0x2000, 2), AllocOutcome::Full);
        assert_eq!(m.allocate(0x0040, 3), AllocOutcome::Full); // different line
        assert_eq!(m.allocate(0x0000, 4), AllocOutcome::Merged);
    }

    #[test]
    fn contains_uses_line_granularity() {
        let mut m: MshrFile<()> = MshrFile::new(4);
        m.allocate(0x1234, ());
        assert!(m.contains(0x1200));
        assert!(m.contains(0x123f));
        assert!(!m.contains(0x1240));
    }

    #[test]
    #[should_panic(expected = "untracked line")]
    fn completing_unknown_line_panics() {
        let mut m: MshrFile<()> = MshrFile::new(1);
        m.complete(0x4000);
    }

    #[test]
    fn independent_lines_each_take_an_entry() {
        let mut m: MshrFile<u32> = MshrFile::new(3);
        for i in 0..3 {
            assert_eq!(m.allocate(i * 0x40, i as u32), AllocOutcome::Primary);
        }
        assert!(m.is_full());
        assert_eq!(m.complete(0x40).into_iter().collect::<Vec<_>>(), [1]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.allocate(0x1000, 9), AllocOutcome::Primary);
    }

    fn walk_u32<A: Archive>(w: &mut u32, ar: &mut A) -> Result<(), SnapError> {
        ar.u32(w)
    }

    #[test]
    fn state_round_trips_in_arrival_order() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        for (addr, w) in [(0x1000, 7), (0x2000, 8), (0x1008, 9), (0x1010, 10)] {
            m.allocate(addr, w);
        }
        let bytes = melreq_snap::Enc::save(|enc| m.state(enc, walk_u32));
        let mut back: MshrFile<u32> = MshrFile::new(4);
        back.state(&mut melreq_snap::Dec::new(&bytes), walk_u32).unwrap();
        assert_eq!(back.complete(0x1000).into_iter().collect::<Vec<_>>(), [7, 9, 10]);
        assert_eq!(back.complete(0x2000).into_iter().collect::<Vec<_>>(), [8]);
    }

    #[test]
    fn load_rejects_an_entry_without_waiters() {
        let mut enc = melreq_snap::Enc::new();
        enc.usize(1); // one entry...
        enc.u64(0x1000);
        enc.usize(0); // ...that nobody waits for
        let bytes = enc.into_bytes();
        let mut m: MshrFile<u32> = MshrFile::new(4);
        let err = m.state(&mut melreq_snap::Dec::new(&bytes), walk_u32);
        assert!(matches!(err, Err(melreq_snap::SnapError::Invalid(_))), "{err:?}");
    }
}
