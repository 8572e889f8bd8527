//! The controller's shared request buffer.
//!
//! The paper's controller (Section 3.2, Figure 1) keeps "a read request
//! queue and a write request queue, plus two counters for the number of
//! outstanding read and write requests for each core", all sharing one
//! M-entry buffer (M = 64 in Table 1). This module models that structure
//! as a single vector with per-kind, per-core counters — the scheduling
//! policies only ever observe the counters and the request fields, so the
//! physical split into two queues is immaterial.
//!
//! In addition to the flat vector, the buffer maintains one position list
//! per DRAM channel so the controller's per-channel candidate scan walks
//! only that channel's requests instead of re-filtering the whole buffer
//! (`try_grant` used to be O(channels × queue) per cycle). The lists are
//! kept sorted by buffer position, which makes their iteration order
//! exactly the flat vector's order restricted to the channel — policies
//! with order-sensitive tie-breaking (ME-LREQ's seeded RNG) therefore see
//! the identical candidate sequence as a full rescan would produce.

use crate::request::{MemRequest, ReqId};
use melreq_dram::Location;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::CoreId;

/// Shared request buffer with per-core occupancy counters and per-channel
/// position indices.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    entries: Vec<MemRequest>,
    capacity: usize,
    pending_reads: Vec<u32>,
    pending_writes: Vec<u32>,
    /// Positions into `entries` per channel, sorted ascending (see module
    /// docs: sortedness preserves the flat iteration order per channel).
    by_channel: Vec<Vec<usize>>,
}

impl RequestQueue {
    /// An empty buffer of `capacity` entries serving `cores` cores over
    /// `channels` DRAM channels.
    pub fn new(capacity: usize, cores: usize, channels: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(cores > 0, "need at least one core");
        assert!(channels > 0, "need at least one channel");
        RequestQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            pending_reads: vec![0; cores],
            pending_writes: vec![0; cores],
            by_channel: vec![Vec::with_capacity(capacity); channels],
        }
    }

    /// Buffer capacity (M in Figure 1).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another request can be accepted.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of queued write requests across all cores.
    pub fn total_writes(&self) -> u32 {
        self.pending_writes.iter().sum()
    }

    /// Pending read count of one core (the LREQ / ME-LREQ input).
    pub fn pending_reads(&self, core: CoreId) -> u32 {
        self.pending_reads[core.index()]
    }

    /// Pending write count of one core.
    pub fn pending_writes(&self, core: CoreId) -> u32 {
        self.pending_writes[core.index()]
    }

    /// Per-core pending read counts, indexed by core.
    pub fn pending_reads_all(&self) -> &[u32] {
        &self.pending_reads
    }

    /// Append a request.
    ///
    /// # Panics
    /// Panics if the buffer is full (callers must check
    /// [`RequestQueue::has_space`] — the cache hierarchy models
    /// back-pressure by stalling on a full buffer).
    pub fn push(&mut self, req: MemRequest) {
        assert!(self.has_space(), "request buffer overflow");
        match req.kind {
            k if k.is_read() => self.pending_reads[req.core.index()] += 1,
            _ => self.pending_writes[req.core.index()] += 1,
        }
        // The new position is the largest so far: appending keeps the
        // channel list sorted.
        self.by_channel[req.loc.channel].push(self.entries.len());
        self.entries.push(req);
    }

    /// Remove and return the request with `id`.
    ///
    /// # Panics
    /// Panics if no such request is queued.
    pub fn remove(&mut self, id: ReqId) -> MemRequest {
        let pos = self.entries.iter().position(|r| r.id == id).expect("request not in queue");
        self.remove_at(pos)
    }

    /// Remove and return the request at buffer position `pos` (as reported
    /// by [`RequestQueue::channel_positions`]). O(queue) worst-case for
    /// the index fix-up, O(1) amortized data movement.
    pub fn remove_at(&mut self, pos: usize) -> MemRequest {
        let ch = self.entries[pos].loc.channel;
        let i = self.by_channel[ch].binary_search(&pos).expect("position index out of sync");
        self.by_channel[ch].remove(i);
        // `swap_remove` moves the last entry into `pos`: re-home its
        // position-index entry (it was the maximum, so it sits at the end
        // of its channel list) to the new, smaller position.
        let last = self.entries.len() - 1;
        if pos != last {
            let mover_ch = self.entries[last].loc.channel;
            let list = &mut self.by_channel[mover_ch];
            debug_assert_eq!(list.last(), Some(&last), "moved entry must be the channel maximum");
            list.pop();
            let j = list.binary_search(&pos).expect_err("position occupied twice");
            list.insert(j, pos);
        }
        let req = self.entries.swap_remove(pos);
        if req.is_read() {
            self.pending_reads[req.core.index()] -= 1;
        } else {
            self.pending_writes[req.core.index()] -= 1;
        }
        req
    }

    /// Buffer positions of the requests on `channel`, in buffer order
    /// (ascending position — the same relative order a full scan of the
    /// buffer filtered to the channel would visit).
    pub fn channel_positions(&self, channel: usize) -> &[usize] {
        &self.by_channel[channel]
    }

    /// The request at buffer position `pos`.
    pub fn at(&self, pos: usize) -> &MemRequest {
        &self.entries[pos]
    }

    /// Iterate over queued requests (unordered; ids give arrival order).
    pub fn iter(&self) -> impl Iterator<Item = &MemRequest> {
        self.entries.iter()
    }

    /// Walk the queued requests ([`Archive`]); a load needs the same
    /// capacity, core count and channel count. The per-core counters and
    /// per-channel position lists are derived data, rebuilt on load.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `capacity`: construction-time bound; a load is checked against it.
        let Self { entries, capacity, pending_reads, pending_writes, by_channel } = self;
        let cap = Some((*capacity, SnapError::Invalid("queue entries exceed capacity")));
        ar.seq(entries, cap, |ar, r| r.state(ar))?;
        if !ar.loading() {
            return Ok(());
        }
        let loaded = std::mem::replace(entries, Vec::with_capacity(*capacity));
        pending_reads.fill(0);
        pending_writes.fill(0);
        by_channel.iter_mut().for_each(Vec::clear);
        let (cores, channels) = (pending_reads.len(), by_channel.len());
        for r in loaded {
            let in_range = r.core.index() < cores && r.loc.channel < channels;
            ar.ensure(in_range, SnapError::Invalid("request indices out of range"))?;
            self.push(r);
        }
        Ok(())
    }

    /// Whether any queued request other than `excluding` targets the same
    /// channel/bank/row as `loc` — the controller's close-page signal: the
    /// row is kept open only while this returns true.
    pub fn has_same_row_pending(&self, loc: &Location, excluding: ReqId) -> bool {
        self.by_channel[loc.channel]
            .iter()
            .any(|&p| self.entries[p].id != excluding && self.entries[p].loc.same_row(loc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_dram::DramGeometry;
    use melreq_stats::types::{AccessKind, Cycle};

    fn req(id: u64, core: u16, addr: u64, kind: AccessKind, arrival: Cycle) -> MemRequest {
        let g = DramGeometry::paper();
        MemRequest { id: ReqId(id), core: CoreId(core), addr, loc: g.decode(addr), kind, arrival }
    }

    /// The position index must stay consistent with the flat vector:
    /// sorted, disjoint, covering, channel-correct.
    fn check_index(q: &RequestQueue) {
        let mut seen = vec![false; q.len()];
        for (ch, list) in q.by_channel.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "channel {ch} list unsorted: {list:?}");
            for &p in list {
                assert_eq!(q.entries[p].loc.channel, ch);
                assert!(!seen[p], "position {p} indexed twice");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every entry must be indexed");
    }

    #[test]
    fn push_updates_counters() {
        let mut q = RequestQueue::new(8, 2, 2);
        q.push(req(0, 0, 0x00, AccessKind::Read, 0));
        q.push(req(1, 0, 0x40, AccessKind::Read, 1));
        q.push(req(2, 1, 0x80, AccessKind::Write, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pending_reads(CoreId(0)), 2);
        assert_eq!(q.pending_reads(CoreId(1)), 0);
        assert_eq!(q.pending_writes(CoreId(1)), 1);
        assert_eq!(q.total_writes(), 1);
        check_index(&q);
    }

    #[test]
    fn remove_restores_counters() {
        let mut q = RequestQueue::new(8, 2, 2);
        q.push(req(0, 0, 0x00, AccessKind::Read, 0));
        q.push(req(1, 1, 0x40, AccessKind::Write, 0));
        let r = q.remove(ReqId(0));
        assert_eq!(r.id, ReqId(0));
        assert_eq!(q.pending_reads(CoreId(0)), 0);
        assert_eq!(q.len(), 1);
        check_index(&q);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = RequestQueue::new(2, 1, 2);
        q.push(req(0, 0, 0x00, AccessKind::Read, 0));
        assert!(q.has_space());
        q.push(req(1, 0, 0x40, AccessKind::Read, 0));
        assert!(!q.has_space());
    }

    #[test]
    #[should_panic(expected = "request buffer overflow")]
    fn overflow_panics() {
        let mut q = RequestQueue::new(1, 1, 2);
        q.push(req(0, 0, 0x00, AccessKind::Read, 0));
        q.push(req(1, 0, 0x40, AccessKind::Read, 0));
    }

    #[test]
    #[should_panic(expected = "request not in queue")]
    fn remove_missing_panics() {
        let mut q = RequestQueue::new(2, 1, 2);
        q.remove(ReqId(9));
    }

    #[test]
    fn same_row_detection() {
        let g = DramGeometry::paper();
        let mut q = RequestQueue::new(8, 1, 2);
        // Two addresses in the same row: stride channels*banks lines.
        let a = 0u64;
        let b = 2 * 8 * 64u64;
        assert!(g.decode(a).same_row(&g.decode(b)));
        q.push(req(0, 0, a, AccessKind::Read, 0));
        q.push(req(1, 0, b, AccessKind::Read, 0));
        let loc = g.decode(a);
        assert!(q.has_same_row_pending(&loc, ReqId(0)));
        q.remove(ReqId(1));
        assert!(!q.has_same_row_pending(&loc, ReqId(0)));
    }

    #[test]
    fn iter_sees_all() {
        let mut q = RequestQueue::new(8, 1, 2);
        q.push(req(0, 0, 0x00, AccessKind::Read, 0));
        q.push(req(1, 0, 0x40, AccessKind::Write, 0));
        assert_eq!(q.iter().count(), 2);
    }

    #[test]
    fn channel_lists_preserve_buffer_order_under_churn() {
        // Interleave pushes and removals across both channels and verify
        // at each step that channel_positions matches a brute-force scan
        // of the flat vector.
        let mut q = RequestQueue::new(16, 1, 2);
        let mut next_id = 0u64;
        let mut push = |q: &mut RequestQueue, addr: u64| {
            q.push(req(next_id, 0, addr, AccessKind::Read, 0));
            next_id += 1;
        };
        // Addresses alternate channels (line stride flips the channel bit).
        for i in 0..10u64 {
            push(&mut q, i * 64);
        }
        let brute = |q: &RequestQueue, ch: usize| -> Vec<u64> {
            q.iter().enumerate().filter(|(_, r)| r.loc.channel == ch).map(|(_, r)| r.id.0).collect()
        };
        let listed = |q: &RequestQueue, ch: usize| -> Vec<u64> {
            q.channel_positions(ch).iter().map(|&p| q.at(p).id.0).collect()
        };
        for victim in [3u64, 0, 7, 4] {
            q.remove(ReqId(victim));
            check_index(&q);
            for ch in 0..2 {
                assert_eq!(listed(&q, ch), brute(&q, ch), "channel {ch} order diverged");
            }
        }
    }
}
