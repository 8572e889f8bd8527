//! The two-level cache hierarchy above the memory controller.
//!
//! Implements [`CoreMemory`] for all cores at once: per-core L1I/L1D with
//! MSHRs, a shared L2 with its own MSHRs, write-back propagation, the
//! cache event heap, and the L2 misses and dirty victims stalled on a
//! full controller buffer. The [`MemoryController`] is not part of it:
//! the system owns it and hands it to the calls that reach memory
//! ([`Hierarchy::advance`], [`Hierarchy::next_event_at`]).
//!
//! # Transaction flows
//!
//! *Load / instruction fetch*: L1 lookup → hit (fixed latency) or MSHR
//! allocation → L2 lookup after the L1 tag latency → L2 hit (fill L1 after
//! the L2 latency) or L2 MSHR allocation → memory read. When DRAM data
//! returns, the L2 is filled (possibly evicting a dirty victim → memory
//! write), every waiting L1 is filled (possibly evicting a dirty victim →
//! L2), and the stalled micro-ops resume.
//!
//! *Store*: write-allocate, write-back. A store that hits L1D dirties the
//! line and retires; a miss allocates an MSHR and fetches the line like a
//! load (the core does **not** wait — stores retire into the store path,
//! per the paper's "write requests normally can be well handled by write
//! buffers"). DRAM *write* traffic arises only from dirty evictions.
//!
//! # Simplifications (documented in DESIGN.md)
//!
//! * No back-invalidation on L2 eviction (programs are private per core;
//!   no sharing exists, so this affects neither correctness nor the
//!   scheduling comparison).
//! * The L2→L1 return path costs one cycle on top of the DRAM data-ready
//!   time; the controller's 15 ns fixed overhead models the round trip.

use melreq_cache::{AllocOutcome, CacheArray, CacheConfig, MshrFile};
use melreq_cpu::{CoreMemory, CoreToken, MemResponse};
use melreq_memctrl::MemoryController;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{line_addr, AccessKind, Addr, CoreId, Cycle};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which L1 a transaction originated from.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Origin {
    #[default]
    Inst,
    Data,
}

impl Origin {
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let mut tag = match self {
            Origin::Inst => 0,
            Origin::Data => 1,
        };
        ar.u8(&mut tag)?;
        *self = match tag {
            0 => Origin::Inst,
            1 => Origin::Data,
            t => return Err(SnapError::BadTag(t)),
        };
        Ok(())
    }
}

/// An L1-level waiter parked in an L1D/L1I MSHR.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum L1Waiter {
    /// A load (or ifetch) whose core op must be resumed.
    Token(CoreToken),
    /// A write-allocate store: no token, but the line fills dirty.
    #[default]
    Store,
}

impl L1Waiter {
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let mut tag = match self {
            L1Waiter::Token(CoreToken::Load(_)) => 0,
            L1Waiter::Token(CoreToken::Fetch) => 1,
            L1Waiter::Store => 2,
        };
        ar.u8(&mut tag)?;
        if ar.loading() {
            *self = match tag {
                0 => L1Waiter::Token(CoreToken::Load(0)),
                1 => L1Waiter::Token(CoreToken::Fetch),
                2 => L1Waiter::Store,
                t => return Err(SnapError::BadTag(t)),
            };
        }
        match self {
            L1Waiter::Token(CoreToken::Load(seq)) => ar.u64(seq),
            _ => Ok(()),
        }
    }
}

/// An L2-level waiter: which core's L1 (and which one) wants the line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct L2Waiter {
    core: CoreId,
    origin: Origin,
}

impl L2Waiter {
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { core, origin } = self;
        ar.u16(&mut core.0)?;
        origin.state(ar)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// The L1 tag check finished and missed: look up the L2.
    L2Access { core: CoreId, line: Addr, origin: Origin },
    /// Data for `line` is at the L2 boundary: fill the L1 and wake waiters.
    L1Fill { core: CoreId, line: Addr, origin: Origin },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: Cycle,
    seq: u64,
    kind: EventKind,
}

impl Default for Event {
    fn default() -> Self {
        let (core, line, origin) = (CoreId(0), 0, Origin::Inst);
        Event { at: 0, seq: 0, kind: EventKind::L2Access { core, line, origin } }
    }
}

impl Event {
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { at, seq, kind } = self;
        let (mut tag, (mut core, mut line, mut origin)) = match *kind {
            EventKind::L2Access { core, line, origin } => (0, (core, line, origin)),
            EventKind::L1Fill { core, line, origin } => (1, (core, line, origin)),
        };
        ar.u64(at)?;
        ar.u64(seq)?;
        ar.u8(&mut tag)?;
        let variant: fn(CoreId, Addr, Origin) -> EventKind = match tag {
            0 => |core, line, origin| EventKind::L2Access { core, line, origin },
            1 => |core, line, origin| EventKind::L1Fill { core, line, origin },
            t => return Err(SnapError::BadTag(t)),
        };
        ar.u16(&mut core.0)?;
        ar.u64(&mut line)?;
        origin.state(ar)?;
        *kind = variant(core, line, origin);
        Ok(())
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The assembled hierarchy for `n` cores.
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Vec<CacheArray>,
    l1i_mshr: Vec<MshrFile<L1Waiter>>,
    l1d: Vec<CacheArray>,
    l1d_mshr: Vec<MshrFile<L1Waiter>>,
    l2: CacheArray,
    l2_mshr: MshrFile<L2Waiter>,
    events: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    /// Lines that missed L2 but could not enter the controller yet.
    pending_mem: VecDeque<(CoreId, Addr)>,
    /// Dirty L2 victims waiting for controller space.
    pending_wb: VecDeque<(CoreId, Addr)>,
}

impl Hierarchy {
    /// Build the hierarchy for `cores` cores.
    pub fn new(
        cores: usize,
        l1i_cfg: CacheConfig,
        l1d_cfg: CacheConfig,
        l2_cfg: CacheConfig,
    ) -> Self {
        assert!(cores >= 1, "need at least one core");
        Hierarchy {
            l1i: (0..cores).map(|_| CacheArray::new(l1i_cfg)).collect(),
            l1i_mshr: (0..cores).map(|_| MshrFile::new(l1i_cfg.mshrs)).collect(),
            l1d: (0..cores).map(|_| CacheArray::new(l1d_cfg)).collect(),
            l1d_mshr: (0..cores).map(|_| MshrFile::new(l1d_cfg.mshrs)).collect(),
            l2: CacheArray::new(l2_cfg),
            l2_mshr: MshrFile::new(l2_cfg.mshrs),
            events: BinaryHeap::new(),
            event_seq: 0,
            pending_mem: VecDeque::new(),
            pending_wb: VecDeque::new(),
        }
    }

    /// Walk all mutable hierarchy state: cache arrays, MSHR files (with
    /// their parked waiters), in-flight cache events and stalled memory
    /// submissions ([`Archive`]); a load needs a hierarchy constructed
    /// with the same configuration.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self {
            l1i,
            l1i_mshr,
            l1d,
            l1d_mshr,
            l2,
            l2_mshr,
            events,
            event_seq,
            pending_mem,
            pending_wb,
        } = self;
        ar.len(l1i.len(), SnapError::Invalid("hierarchy core count mismatch"))?;
        for c in 0..l1i.len() {
            l1i[c].state(ar)?;
            l1i_mshr[c].state(ar, L1Waiter::state)?;
            l1d[c].state(ar)?;
            l1d_mshr[c].state(ar, L1Waiter::state)?;
        }
        l2.state(ar)?;
        l2_mshr.state(ar, L2Waiter::state)?;
        // BinaryHeap iteration order is unspecified; walk it sorted so
        // identical states serialize to identical bytes.
        let mut sorted: Vec<Event> = events.iter().map(|Reverse(e)| *e).collect();
        sorted.sort();
        ar.seq(&mut sorted, None, |ar, e| e.state(ar))?;
        if ar.loading() {
            events.clear();
            events.extend(sorted.into_iter().map(Reverse));
        }
        ar.u64(event_seq)?;
        for q in [pending_mem, pending_wb] {
            let mut stalled: Vec<(CoreId, Addr)> = q.iter().copied().collect();
            ar.seq(&mut stalled, None, |ar, (core, addr)| {
                ar.u16(&mut core.0)?;
                ar.u64(addr)
            })?;
            if ar.loading() {
                *q = stalled.into();
            }
        }
        Ok(())
    }

    /// L1D array of one core (hit rates in reports/tests).
    pub fn l1d(&self, core: CoreId) -> &CacheArray {
        &self.l1d[core.index()]
    }

    /// The shared L2 array.
    pub fn l2(&self) -> &CacheArray {
        &self.l2
    }

    /// Functionally pre-warm one core's caches from its program's address
    /// regions — the stand-in for the architectural-checkpoint warm-up of
    /// SimPoint methodology. Code fills the L1I (and L2); data fills the
    /// L1D when it fits there, else the L2 up to an even per-core quota.
    /// Working sets beyond the quota stream from DRAM regardless, so
    /// nothing useful can be pre-loaded for them beyond the most recent
    /// lines.
    pub fn prewarm(&mut self, core: CoreId, hints: &melreq_trace::WarmHints) {
        let c = core.index();
        let line = 64u64;
        // Code: footprints are small (≤ 64 KB) — fill L1I and L2.
        let code_lines = (hints.code_len / line).min(self.l1i[c].config().size_bytes / line);
        for i in 0..code_lines {
            let addr = hints.code_base + i * line;
            self.l1i[c].fill(addr, false);
            self.l2.fill(addr, false);
        }
        // Data. A quarter of the pre-warmed lines are installed dirty:
        // a long-running program's cached data is a mix of clean and
        // modified lines (~ the store share of its accesses), and without
        // this the short measured slices would never age dirty lines out
        // of the 4 MB L2 — DRAM write traffic (and the write-drain
        // machinery) would be unrealistically absent.
        let dirty = |i: u64| i.is_multiple_of(4);
        let l1d_cap = self.l1d[c].config().size_bytes;
        let l2_quota = self.l2.config().size_bytes / self.l1d.len() as u64;
        if hints.data_len <= l1d_cap {
            for i in 0..hints.data_len / line {
                let addr = hints.data_base + i * line;
                self.l1d[c].fill(addr, dirty(i));
                self.l2.fill(addr, false);
            }
        } else {
            let lines = hints.data_len.min(l2_quota) / line;
            for i in 0..lines {
                self.l2.fill(hints.data_base + i * line, dirty(i));
            }
        }
    }

    fn schedule(&mut self, at: Cycle, kind: EventKind) {
        self.event_seq += 1;
        self.events.push(Reverse(Event { at, seq: self.event_seq, kind }));
    }

    /// Conservative lower bound on the next cycle at which this hierarchy
    /// or `ctrl` beneath it (with its DRAM) can make progress: a stalled
    /// submission can retry, a cache event comes due, a DRAM grant or
    /// completion becomes possible, or a refresh boundary is crossed.
    /// `None` when fully idle.
    pub fn next_event_at(&self, now: Cycle, ctrl: &MemoryController) -> Option<Cycle> {
        if (!self.pending_wb.is_empty() || !self.pending_mem.is_empty()) && ctrl.can_accept() {
            return Some(now);
        }
        let events = self.events.peek().map(|&Reverse(ev)| ev.at);
        match (events, ctrl.next_event_at(now)) {
            (Some(a), Some(b)) => Some(a.min(b).max(now)),
            (a, b) => a.or(b).map(|t| t.max(now)),
        }
    }

    /// Advance the hierarchy and `ctrl` to `now`, appending the core
    /// completions that became ready to `finished` (a caller-owned
    /// scratch buffer; not cleared here, so one buffer can be reused
    /// across cycles without per-cycle allocation).
    pub fn advance(
        &mut self,
        now: Cycle,
        ctrl: &mut MemoryController,
        finished: &mut Vec<(CoreId, CoreToken)>,
    ) {
        // 1. Retry memory submissions stalled on a full controller buffer.
        while let Some(&(core, line)) = self.pending_wb.front() {
            if !ctrl.can_accept() {
                break;
            }
            ctrl.submit(core, line, AccessKind::Write, now);
            self.pending_wb.pop_front();
        }
        while let Some(&(core, line)) = self.pending_mem.front() {
            if !ctrl.can_accept() {
                break;
            }
            ctrl.submit(core, line, AccessKind::Read, now);
            self.pending_mem.pop_front();
        }

        // 2. Process due hierarchy events.
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.at > now {
                break;
            }
            let Reverse(ev) = self.events.pop().expect("peeked");
            match ev.kind {
                EventKind::L2Access { core, line, origin } => {
                    self.do_l2_access(core, line, origin, now, ctrl);
                }
                EventKind::L1Fill { core, line, origin } => {
                    self.do_l1_fill(core, line, origin, finished);
                }
            }
        }

        // 3. Let the controller schedule DRAM transactions.
        ctrl.tick(now);

        // 4. Drain DRAM read completions: fill the L2 and fan out L1 fills.
        while let Some((_, core, addr)) = ctrl.pop_completed(now) {
            let line = line_addr(addr);
            if let Some(victim) = self.l2.fill(line, false) {
                if victim.dirty {
                    // Attribute the write-back to the core whose fill
                    // displaced the victim.
                    self.pending_wb.push_back((core, victim.line_addr));
                }
            }
            for w in self.l2_mshr.complete(line) {
                self.schedule(now + 1, EventKind::L1Fill { core: w.core, line, origin: w.origin });
            }
        }
    }

    fn do_l2_access(
        &mut self,
        core: CoreId,
        line: Addr,
        origin: Origin,
        now: Cycle,
        ctrl: &mut MemoryController,
    ) {
        if self.l2.access(line, false) {
            // L2 hit: data at the L1 boundary after the L2 latency.
            let at = now + self.l2.config().hit_latency;
            self.schedule(at, EventKind::L1Fill { core, line, origin });
            return;
        }
        match self.l2_mshr.allocate(line, L2Waiter { core, origin }) {
            AllocOutcome::Primary => {
                if ctrl.can_accept() {
                    ctrl.submit(core, line, AccessKind::Read, now);
                } else {
                    self.pending_mem.push_back((core, line));
                }
            }
            AllocOutcome::Merged => {}
            AllocOutcome::Full => {
                // Structural stall at the L2: retry next cycle.
                self.schedule(now + 1, EventKind::L2Access { core, line, origin });
            }
        }
    }

    fn do_l1_fill(
        &mut self,
        core: CoreId,
        line: Addr,
        origin: Origin,
        finished: &mut Vec<(CoreId, CoreToken)>,
    ) {
        let c = core.index();
        let (l1, mshr) = match origin {
            Origin::Inst => (&mut self.l1i[c], &mut self.l1i_mshr[c]),
            Origin::Data => (&mut self.l1d[c], &mut self.l1d_mshr[c]),
        };
        let waiters = mshr.complete(line);
        let fill_dirty = waiters.iter().any(|w| matches!(w, L1Waiter::Store));
        if let Some(victim) = l1.fill(line, fill_dirty) {
            if victim.dirty {
                // L1 dirty victim retires into the L2 (full line, no
                // memory fetch needed); may push an L2 victim to memory.
                if let Some(l2_victim) = self.l2.fill(victim.line_addr, true) {
                    if l2_victim.dirty {
                        self.pending_wb.push_back((core, l2_victim.line_addr));
                    }
                }
            }
        }
        for w in waiters {
            if let L1Waiter::Token(tok) = w {
                finished.push((core, tok));
            }
        }
    }

    fn l1_request(
        &mut self,
        core: CoreId,
        token: CoreToken,
        addr: Addr,
        origin: Origin,
        now: Cycle,
    ) -> MemResponse {
        let c = core.index();
        let (l1, mshr) = match origin {
            Origin::Inst => (&mut self.l1i[c], &mut self.l1i_mshr[c]),
            Origin::Data => (&mut self.l1d[c], &mut self.l1d_mshr[c]),
        };
        let hit_latency = l1.config().hit_latency;
        if l1.access(addr, false) {
            return MemResponse::HitAt(now + hit_latency);
        }
        match mshr.allocate(addr, L1Waiter::Token(token)) {
            AllocOutcome::Primary => {
                let line = line_addr(addr);
                self.schedule(now + hit_latency, EventKind::L2Access { core, line, origin });
                MemResponse::Pending
            }
            AllocOutcome::Merged => MemResponse::Pending,
            AllocOutcome::Full => MemResponse::Blocked,
        }
    }
}

impl CoreMemory for Hierarchy {
    fn load(&mut self, core: CoreId, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
        self.l1_request(core, token, addr, Origin::Data, now)
    }

    fn ifetch(&mut self, core: CoreId, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
        self.l1_request(core, token, addr, Origin::Inst, now)
    }

    fn store(&mut self, core: CoreId, addr: Addr, now: Cycle) -> bool {
        let c = core.index();
        if self.l1d[c].access(addr, true) {
            return true;
        }
        // Write-allocate: fetch the line; the store retires immediately.
        match self.l1d_mshr[c].allocate(addr, L1Waiter::Store) {
            AllocOutcome::Primary => {
                let line = line_addr(addr);
                let lat = self.l1d[c].config().hit_latency;
                self.schedule(now + lat, EventKind::L2Access { core, line, origin: Origin::Data });
                true
            }
            AllocOutcome::Merged => true,
            AllocOutcome::Full => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_dram::DramSystem;
    use melreq_memctrl::controller::ControllerConfig;
    use melreq_memctrl::policy::PolicyKind;

    /// The paper's hierarchy for `cores` cores and, beside it, an HF-RF
    /// controller with the buffer of `ctrl_cfg`.
    fn hierarchy_over(cores: usize, ctrl_cfg: ControllerConfig) -> (Hierarchy, MemoryController) {
        let me = vec![1.0; cores];
        let policy = PolicyKind::HfRf.build(&me, cores, 1);
        let ctrl = MemoryController::new(ctrl_cfg, DramSystem::paper(), policy, true, cores);
        let (l1i, l1d, l2) =
            (CacheConfig::l1i_paper(), CacheConfig::l1d_paper(), CacheConfig::l2_paper());
        (Hierarchy::new(cores, l1i, l1d, l2), ctrl)
    }

    fn hierarchy(cores: usize) -> (Hierarchy, MemoryController) {
        hierarchy_over(cores, ControllerConfig::paper())
    }

    /// Drive the hierarchy until the given token completes; returns the
    /// completion cycle.
    fn run_until(
        h: &mut Hierarchy,
        ctrl: &mut MemoryController,
        core: CoreId,
        token: CoreToken,
        limit: Cycle,
    ) -> Cycle {
        let mut done = Vec::new();
        for now in 0..limit {
            done.clear();
            h.advance(now, ctrl, &mut done);
            if done.iter().any(|&(c, t)| c == core && t == token) {
                return now;
            }
        }
        panic!("token never completed within {limit} cycles");
    }

    /// Advance from `now` until nothing is in flight below the cores: no
    /// hierarchy event, no stalled submission, an empty controller. Every
    /// read or write issued so far has then been granted, so `served()`
    /// counts it. Returns the first quiet cycle.
    fn drain(h: &mut Hierarchy, ctrl: &mut MemoryController, mut now: Cycle) -> Cycle {
        let limit = now + 1_000_000;
        let mut sink = Vec::new();
        while !(h.events.is_empty()
            && h.pending_mem.is_empty()
            && h.pending_wb.is_empty()
            && ctrl.is_idle())
        {
            assert!(now < limit, "hierarchy never went quiet");
            h.advance(now, ctrl, &mut sink);
            now += 1;
        }
        now
    }

    #[test]
    fn cold_load_misses_to_memory_and_returns() {
        let (mut h, mut ctrl) = hierarchy(1);
        let tok = CoreToken::Load(0);
        assert_eq!(h.load(CoreId(0), tok, 0x100040, 0), MemResponse::Pending);
        let done = run_until(&mut h, &mut ctrl, CoreId(0), tok, 2000);
        // L1 (3) + L2 lookup + controller overhead (48) + DRAM (96) + fill.
        assert!(done > 140 && done < 250, "latency {done}");
        drain(&mut h, &mut ctrl, done + 1);
        assert_eq!(ctrl.stats().served().reads, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let (mut h, mut ctrl) = hierarchy(1);
        let tok = CoreToken::Load(0);
        h.load(CoreId(0), tok, 0x100040, 0);
        let done = run_until(&mut h, &mut ctrl, CoreId(0), tok, 2000);
        match h.load(CoreId(0), CoreToken::Load(1), 0x100040, done + 1) {
            MemResponse::HitAt(at) => assert_eq!(at, done + 1 + 3),
            r => panic!("expected L1 hit, got {r:?}"),
        }
        drain(&mut h, &mut ctrl, done + 1);
        assert_eq!(ctrl.stats().served().reads, 1);
    }

    #[test]
    fn same_line_loads_merge_in_mshr() {
        let (mut h, mut ctrl) = hierarchy(1);
        assert_eq!(h.load(CoreId(0), CoreToken::Load(0), 0x100000, 0), MemResponse::Pending);
        assert_eq!(h.load(CoreId(0), CoreToken::Load(1), 0x100020, 0), MemResponse::Pending);
        let mut got = Vec::new();
        let mut now = 0;
        while now < 2000 && got.len() < 2 {
            h.advance(now, &mut ctrl, &mut got);
            now += 1;
        }
        assert_eq!(got.len(), 2, "both merged loads must complete");
        drain(&mut h, &mut ctrl, now);
        let reads = ctrl.stats().served().reads;
        assert_eq!(reads, 1, "one memory read for the merged pair");
    }

    #[test]
    fn l1d_mshr_exhaustion_blocks() {
        let (mut h, _) = hierarchy(1);
        for i in 0..32 {
            assert_eq!(
                h.load(CoreId(0), CoreToken::Load(i), 0x100000 + i * 64, 0),
                MemResponse::Pending
            );
        }
        assert_eq!(h.load(CoreId(0), CoreToken::Load(99), 0x200000, 0), MemResponse::Blocked);
    }

    #[test]
    fn store_miss_allocates_and_fills_dirty() {
        let (mut h, mut ctrl) = hierarchy(1);
        assert!(h.store(CoreId(0), 0x300000, 0));
        // Run until the fill lands.
        let mut sink = Vec::new();
        for now in 0..2000 {
            h.advance(now, &mut ctrl, &mut sink);
            if h.l1d(CoreId(0)).probe(0x300000) {
                break;
            }
        }
        assert!(h.l1d(CoreId(0)).probe(0x300000), "write-allocate must install the line");
        // Fill the set's other lines (512 sets x 64 B: a 32 KiB stride) so
        // the stored line is evicted, carrying the dirty bit its fill set.
        let l1d = &mut h.l1d[0];
        assert_eq!(l1d.fill(0x308000, false), None);
        let victim = l1d.fill(0x310000, false);
        assert_eq!(victim, Some(melreq_cache::Evicted { line_addr: 0x300000, dirty: true }));
    }

    #[test]
    fn store_hit_is_instant() {
        let (mut h, mut ctrl) = hierarchy(1);
        let tok = CoreToken::Load(0);
        h.load(CoreId(0), tok, 0x400000, 0);
        let done = run_until(&mut h, &mut ctrl, CoreId(0), tok, 2000);
        assert!(h.store(CoreId(0), 0x400000, done + 1));
    }

    #[test]
    fn ifetch_uses_l1i() {
        let (mut h, mut ctrl) = hierarchy(1);
        let tok = CoreToken::Fetch;
        assert_eq!(h.ifetch(CoreId(0), tok, 0x500000, 0), MemResponse::Pending);
        run_until(&mut h, &mut ctrl, CoreId(0), tok, 2000);
        match h.ifetch(CoreId(0), CoreToken::Fetch, 0x500000, 1000) {
            MemResponse::HitAt(at) => assert_eq!(at, 1001),
            r => panic!("expected L1I hit, got {r:?}"),
        }
    }

    #[test]
    fn l2_hit_avoids_memory() {
        let (mut h, mut ctrl) = hierarchy(2);
        // Core 0 brings the line into L2 (and its own L1).
        let t0 = CoreToken::Load(0);
        h.load(CoreId(0), t0, 0x600000, 0);
        let done = run_until(&mut h, &mut ctrl, CoreId(0), t0, 2000);
        let reads_before = ctrl.stats().served().reads;
        // Core 1 misses L1 but hits the shared L2.
        let t1 = CoreToken::Load(1);
        assert_eq!(h.load(CoreId(1), t1, 0x600000, done + 1), MemResponse::Pending);
        let done1 = run_until(&mut h, &mut ctrl, CoreId(1), t1, done + 200);
        drain(&mut h, &mut ctrl, done1 + 1);
        let reads = ctrl.stats().served().reads;
        assert_eq!(reads, reads_before, "L2 hit must not touch memory");
        // L1 tag (3) + L2 hit (15) + fill ~1.
        assert!(done1 - done < 40, "L2 hit latency too high: {}", done1 - done);
    }

    #[test]
    fn dirty_evictions_generate_memory_writes() {
        let (mut h, mut ctrl) = hierarchy(1);
        // Dirty many lines mapping beyond L1/L2 capacity to force dirty
        // evictions all the way out. L2 is 4 MB/4-way: walk > 4 MB span
        // with stores, then stream loads over it again.
        let mut now = 0;
        let mut sink = Vec::new();
        for i in 0..(6 << 20) / 64u64 {
            let addr = 0x4000_0000 + i * 64;
            while !h.store(CoreId(0), addr, now) {
                h.advance(now, &mut ctrl, &mut sink);
                now += 1;
            }
            if i % 8 == 0 {
                h.advance(now, &mut ctrl, &mut sink);
                now += 1;
            }
        }
        drain(&mut h, &mut ctrl, now);
        let writes = ctrl.stats().served().writes;
        assert!(writes > 0, "dirty L2 victims must become DRAM writes");
    }

    /// A four-entry controller buffer under a flood of distinct-line loads
    /// and stores from two cores over dirty caches: L2 misses and dirty
    /// victims wait in the stalled queues, the kernel's bound wakes them
    /// the cycle the controller has room (also when nothing else is due
    /// then: an L1 fill's dirty victim can push an L2 victim out between
    /// controller events), and nothing is lost or doubled.
    #[test]
    fn a_full_controller_buffer_stalls_submissions_until_it_can_accept() {
        const OPS: u64 = 96; // per core: even ops load, odd ops store
        let small = ControllerConfig {
            buffer_entries: 4,
            drain_start: 2,
            drain_stop: 1,
            ..ControllerConfig::paper()
        };
        let (mut h, mut ctrl) = hierarchy_over(2, small);
        // Every line a miss brings into an L1 evicts a dirty victim into
        // the L2, and every line the L2 takes in evicts a dirty victim too.
        for i in 0..h.l2.config().size_bytes / 64 {
            h.l2.fill(0x8000_0000 + i * 64, true);
        }
        for (c, l1d) in h.l1d.iter_mut().enumerate() {
            for i in 0..l1d.config().size_bytes / 64 {
                l1d.fill(0x9000_0000 + ((c as u64) << 24) + i * 64, true);
            }
        }
        let (mut issued, mut finished) = ([0u64; 2], Vec::new());
        let (mut stalled_reads, mut stalled_writes, mut retried) = (false, false, false);
        for now in 0.. {
            assert!(now < 1_000_000, "the flood never drained");
            let stalled = !h.pending_mem.is_empty() || !h.pending_wb.is_empty();
            stalled_reads |= !h.pending_mem.is_empty();
            stalled_writes |= !h.pending_wb.is_empty();
            if stalled && ctrl.can_accept() {
                assert_eq!(h.next_event_at(now, &ctrl), Some(now), "a retry is due at {now}");
                retried = true;
            }
            h.advance(now, &mut ctrl, &mut finished);
            for (c, next) in issued.iter_mut().enumerate() {
                if *next == OPS {
                    continue;
                }
                let (core, addr) = (CoreId::from(c), 0x1000_0000 + ((c as u64) << 24) + *next * 64);
                let accepted = if next.is_multiple_of(2) {
                    h.load(core, CoreToken::Load(*next), addr, now) != MemResponse::Blocked
                } else {
                    h.store(core, addr, now)
                };
                *next += u64::from(accepted);
            }
            let quiet = h.events.is_empty() && h.pending_mem.is_empty() && h.pending_wb.is_empty();
            if issued == [OPS; 2] && quiet && ctrl.is_idle() {
                break;
            }
        }
        assert!(stalled_reads && stalled_writes, "both stalled queues must fill");
        assert!(retried, "the controller must free room while submissions wait");
        let mut loads: Vec<(CoreId, u64)> = finished
            .iter()
            .map(|&(core, tok)| match tok {
                CoreToken::Load(seq) => (core, seq),
                CoreToken::Fetch => panic!("no fetch was issued"),
            })
            .collect();
        loads.sort_unstable();
        let issued_loads: Vec<(CoreId, u64)> =
            (0..2).flat_map(|c| (0..OPS).step_by(2).map(move |i| (CoreId::from(c), i))).collect();
        assert_eq!(loads, issued_loads, "every load completes exactly once");
        assert_eq!(ctrl.stats().served().reads, 2 * OPS, "one read per distinct line");
    }
}
