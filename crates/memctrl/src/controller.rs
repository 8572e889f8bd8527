//! The transaction engine: queues + policy + DRAM + write-drain machinery.

use crate::policy::{Candidate, Fcfs, HitFirst, SchedulerPolicy};
use crate::queue::RequestQueue;
use crate::request::{MemRequest, ReqId};
use melreq_audit::{
    AuditEvent, AuditHandle, CandidateInfo, Decision, Grant, Rule, Submit, TimingParams,
};
use melreq_dram::{DramSystem, DramTiming, RowPolicy};
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{AccessKind, Addr, CoreId, Cycle, RowOutcome};
use melreq_stats::StreamingMean;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Controller configuration (Table 1 defaults via [`ControllerConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Shared request-buffer entries (M in Figure 1).
    pub buffer_entries: usize,
    /// Pending-write count at which write draining starts ("half of the
    /// memory buffer size", Section 3.2).
    pub drain_start: usize,
    /// Pending-write count at which draining stops ("one-fourth of the
    /// buffer size").
    pub drain_stop: usize,
    /// Fixed controller pipeline overhead applied to every request before
    /// it becomes schedulable (15 ns = 48 cycles in Table 1).
    pub overhead: Cycle,
    /// Row-buffer management discipline (close-page in the paper).
    pub row_policy: RowPolicy,
}

impl ControllerConfig {
    /// The paper's configuration: 64 entries, drain at 32/16, 48-cycle
    /// overhead.
    pub fn paper() -> Self {
        ControllerConfig {
            buffer_entries: 64,
            drain_start: 32,
            drain_stop: 16,
            overhead: 48,
            row_policy: RowPolicy::ClosePage,
        }
    }

    /// The paper's controller with open-page row management (for the
    /// page-policy ablation; pair with a page-interleaved geometry).
    pub fn paper_open_page() -> Self {
        ControllerConfig { row_policy: RowPolicy::OpenPage, ..Self::paper() }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One channel's grant counts; their sums over channels are the
/// controller's totals ([`ControllerStats::served`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelTraffic {
    /// Reads granted on this channel.
    pub reads: u64,
    /// Writes granted on this channel.
    pub writes: u64,
    /// Grants that were row-buffer hits on this channel.
    pub row_hits: u64,
}

impl ChannelTraffic {
    /// Row-hit fraction of this channel's grants (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Aggregate and per-core controller statistics.
#[derive(Debug, Clone)]
pub struct ControllerStats {
    /// Read latency (enqueue → last data beat) per core: the quantity of
    /// Figure 4.
    pub read_latency: Vec<StreamingMean>,
    /// Per-core bytes moved (reads + write-backs), for per-program
    /// bandwidth and the ME profile.
    pub bytes_by_core: Vec<u64>,
    /// Queue occupancy sampled at each grant attempt that found at least
    /// one issuable candidate — i.e. once per granted transaction, since
    /// a non-empty candidate set always grants. The mean reads as "the
    /// backlog a scheduling decision chose from", **not** a time average
    /// over cycles: idle and fully-blocked cycles contribute no samples.
    /// Sampling only at decisions keeps the statistic identical between
    /// the cycle-exact and fast-forward kernels, which agree on grant
    /// cycles but not on how many quiescent cycles are explicitly
    /// simulated.
    pub queue_occupancy: StreamingMean,
    /// Candidate-set size at each grant (how many requests competed for
    /// the channel); sampled at the same points as `queue_occupancy`.
    pub grant_candidates: StreamingMean,
    /// Per-channel grant breakdown (reads/writes/row-hits).
    pub per_channel: Vec<ChannelTraffic>,
}

impl ControllerStats {
    fn new(cores: usize, channels: usize) -> Self {
        ControllerStats {
            read_latency: vec![StreamingMean::new(); cores],
            bytes_by_core: vec![0; cores],
            queue_occupancy: StreamingMean::new(),
            grant_candidates: StreamingMean::new(),
            per_channel: vec![ChannelTraffic::default(); channels],
        }
    }

    /// Grants summed over channels: reads, writes and row hits served.
    pub fn served(&self) -> ChannelTraffic {
        self.per_channel.iter().fold(ChannelTraffic::default(), |sum, c| ChannelTraffic {
            reads: sum.reads + c.reads,
            writes: sum.writes + c.writes,
            row_hits: sum.row_hits + c.row_hits,
        })
    }

    /// Mean read latency across all cores (left plot of Figure 4).
    pub fn mean_read_latency(&self) -> f64 {
        let count: u64 = self.read_latency.iter().map(StreamingMean::count).sum();
        let sum = self.read_latency.iter().fold(0.0, |sum, t| sum + t.sum());
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { read_latency, bytes_by_core, queue_occupancy, grant_candidates, per_channel } =
            self;
        ar.len(read_latency.len(), SnapError::Invalid("controller core count mismatch"))?;
        read_latency.iter_mut().try_for_each(|t| t.state(ar))?;
        bytes_by_core.iter_mut().try_for_each(|b| ar.u64(b))?;
        queue_occupancy.state(ar)?;
        grant_candidates.state(ar)?;
        ar.len(per_channel.len(), SnapError::Invalid("controller channel count mismatch"))?;
        for ChannelTraffic { reads, writes, row_hits } in per_channel {
            [reads, writes, row_hits].into_iter().try_for_each(|v| ar.u64(v))?;
        }
        Ok(())
    }
}

/// Why the controller granted `chosen`: the deciding rule and the id of
/// the best request it beat. The controller labels the outcomes its own
/// class machinery decides (a lone candidate, a read bypassing writes, a
/// write drained or going out for want of a read, plain FCFS's mixed
/// class); anything else is the link the class's chain names.
fn explain_grant(
    policy: &dyn SchedulerPolicy,
    draining: bool,
    cands: &[CandidateInfo],
    pending_reads: &[u32],
    chosen: u64,
) -> (Rule, Option<u64>) {
    if cands.len() == 1 {
        return (Rule::OnlyCandidate, None);
    }
    let class = |write: Option<bool>| -> Vec<Candidate> {
        cands
            .iter()
            .filter(|c| write.is_none_or(|w| c.write == w))
            .map(|c| Candidate { id: ReqId(c.id), core: CoreId(c.core), row_hit: c.row_hit })
            .collect()
    };
    let explain = |chain: &dyn SchedulerPolicy, class: &[Candidate]| {
        let at = class.iter().position(|c| c.id.0 == chosen).expect("chosen is a candidate");
        let (rule, beaten) = chain.explain(class, pending_reads, at);
        (rule, beaten.map(|i| class[i].id.0))
    };
    let wrote = cands.iter().any(|c| c.id == chosen && c.write);
    if !policy.read_first() {
        let (rule, beaten) = explain(&Fcfs, &class(None));
        return (if wrote { Rule::WriteFallback } else { rule }, beaten);
    }
    let chain: &dyn SchedulerPolicy = if wrote { &HitFirst } else { policy };
    let (rule, beaten) = explain(chain, &class(Some(wrote)));
    let rule = match (wrote, beaten) {
        (true, _) if draining => Rule::WriteDrain,
        (true, _) => Rule::WriteFallback,
        (false, None) => Rule::ReadFirst,
        (false, Some(_)) => rule,
    };
    // Unopposed in its own class, the winner beat the other class's best.
    let beaten = beaten.or_else(|| {
        let other = class(Some(!wrote));
        Some(other[HitFirst.select(&other, pending_reads)].id.0)
    });
    (rule, beaten)
}

/// A completed read waiting to be delivered back to the cache hierarchy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion {
    at: Cycle,
    id: ReqId,
    core: CoreId,
    addr: Addr,
}

impl Completion {
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { at, id, core, addr } = self;
        ar.u64(at)?;
        ar.u64(&mut id.0)?;
        ar.u16(&mut core.0)?;
        ar.u64(addr)
    }
}

/// Per-channel wake-up state of the grant scan (DESIGN.md, "Simulation
/// kernel"): derived from the queue and the DRAM bank timers, rebuilt
/// conservatively by a load ([`MemoryController::state`]), never serialized.
/// It also holds the scan's host-side counters.
#[derive(Debug)]
struct ScanGate {
    /// Per channel, a lower bound on the first cycle one of its queued
    /// requests can be a grant candidate (pipeline overhead cleared and
    /// bank ready); `Cycle::MAX` while the channel has nothing queued.
    /// [`MemoryController::try_grant`] skips the scan before it.
    wake: Vec<Cycle>,
    /// The `tick_exact` oracle: scan every channel every cycle.
    exact: bool,
    /// Candidate scans run / skipped on a non-empty channel.
    scans: u64,
    skipped: u64,
    /// Read decisions whose candidates came from two or more cores.
    contested: u64,
}

/// The memory controller of Figure 1.
///
/// Driven by the system cycle loop:
///
/// 1. the cache hierarchy calls [`MemoryController::can_accept`] /
///    [`MemoryController::submit`] to enqueue line transactions;
/// 2. each cycle [`MemoryController::tick`] grants at most one
///    transaction per logical channel according to the active policy;
/// 3. the hierarchy drains finished reads with
///    [`MemoryController::pop_completed`]. Writes complete silently.
#[derive(Debug)]
pub struct MemoryController {
    cfg: ControllerConfig,
    queue: RequestQueue,
    dram: DramSystem,
    policy: Box<dyn SchedulerPolicy>,
    draining: bool,
    next_id: u64,
    completions: BinaryHeap<Reverse<Completion>>,
    stats: ControllerStats,
    /// Scratch buffers reused across ticks to avoid per-cycle allocation.
    /// `cand_ids` carries (buffer position, id, kind) of this channel's
    /// issuable requests; `cand_pos` mirrors `cand_buf` with positions so
    /// a policy's selection maps back to the buffer in O(1).
    cand_buf: Vec<Candidate>,
    cand_pos: Vec<usize>,
    cand_ids: Vec<(usize, ReqId, AccessKind)>,
    /// Per-bank ready-cycle snapshot for the channel being scheduled
    /// (one DRAM probe per bank instead of one per queued request).
    bank_ready: Vec<Cycle>,
    /// Audit instrumentation (no-op unless a sink is attached; debug
    /// builds attach a panicking watchdog automatically).
    audit: AuditHandle,
    /// Derived wake-up bounds and host counters: not snapshot state.
    gate: ScanGate,
}

impl MemoryController {
    /// Build a controller for `cores` cores.
    pub fn new(
        cfg: ControllerConfig,
        dram: DramSystem,
        policy: Box<dyn SchedulerPolicy>,
        cores: usize,
    ) -> Self {
        assert!(cfg.drain_stop < cfg.drain_start, "drain hysteresis must be decreasing");
        assert!(cfg.drain_start <= cfg.buffer_entries, "drain threshold beyond buffer");
        let channels = dram.geometry().channels;
        let mut ctrl = MemoryController {
            queue: RequestQueue::new(cfg.buffer_entries, cores, channels),
            bank_ready: Vec::with_capacity(dram.geometry().banks_per_channel()),
            cfg,
            dram,
            policy,
            draining: false,
            next_id: 0,
            completions: BinaryHeap::new(),
            stats: ControllerStats::new(cores, channels),
            cand_buf: Vec::with_capacity(cfg.buffer_entries),
            cand_pos: Vec::with_capacity(cfg.buffer_entries),
            cand_ids: Vec::with_capacity(cfg.buffer_entries),
            audit: AuditHandle::disabled(),
            gate: ScanGate {
                wake: vec![Cycle::MAX; channels],
                exact: false,
                scans: 0,
                skipped: 0,
                contested: 0,
            },
        };
        // Debug builds run with an always-on protocol watchdog: any
        // timing or scheduling violation panics at the offending grant.
        // (The starvation check stays off here — straw-man policies such
        // as FIX-3210 starve legitimately; `--audit` reports it instead.)
        if cfg!(debug_assertions) {
            let audit_cfg = melreq_audit::AuditorConfig {
                starvation_cap: u64::MAX,
                panic_on_violation: true,
                max_stored: 1,
            };
            let (handle, _auditor) = melreq_audit::Auditor::shared(audit_cfg);
            ctrl.attach_audit(handle);
        }
        ctrl
    }

    /// Attach audit instrumentation: the controller announces the DRAM
    /// device it drives, then its own configuration. Every subsequent
    /// submit, scheduling decision, and grant is reported on the stream.
    /// Replaces any previously attached sink (including the debug-build
    /// watchdog).
    pub fn attach_audit(&mut self, audit: AuditHandle) {
        self.audit = audit;
        let geometry = self.dram.geometry();
        let DramTiming { t_rcd, t_cl, t_rp, t_wr, burst } = *self.dram.timing();
        self.audit.emit(|| AuditEvent::DramConfig {
            channels: geometry.channels,
            banks_per_channel: geometry.banks_per_channel(),
            timing: TimingParams { t_rcd, t_cl, t_rp, t_wr, burst },
        });
        self.emit_ctrl_config();
    }

    /// Announce the controller configuration (including the active
    /// policy) on the audit stream. Parameterized policies follow up
    /// with their tunables; the paper's parameter-free schemes emit
    /// nothing extra, keeping their streams byte-identical.
    fn emit_ctrl_config(&self) {
        self.audit.emit(|| AuditEvent::CtrlConfig {
            cores: self.stats.read_latency.len(),
            policy: self.policy.name(),
            read_first: self.policy.read_first(),
            buffer_entries: self.cfg.buffer_entries,
            drain_start: self.cfg.drain_start,
            drain_stop: self.cfg.drain_stop,
            overhead: self.cfg.overhead,
        });
        let params = self.policy.params();
        if !params.is_empty() {
            self.audit.emit(|| AuditEvent::PolicyParams { params });
        }
    }

    /// Name of the active policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Swap the scheduling policy (and with it the rule class) without
    /// disturbing any other controller state — the warmup-sharing hook:
    /// a system warmed under the canonical policy forks into one
    /// controller per measured policy at the measurement boundary.
    ///
    /// A fresh `CtrlConfig` is emitted on the audit stream so an attached
    /// checker switches its invariant model to the new policy mid-run
    /// (the queue and device replicas are unaffected — only the
    /// scheduling rules change).
    pub fn set_policy(&mut self, policy: Box<dyn SchedulerPolicy>) {
        self.policy = policy;
        self.emit_ctrl_config();
    }

    /// Announce a memory-efficiency profile on the audit stream without
    /// touching the policy — used when an audit tap is attached to a
    /// machine whose tables were programmed at construction, or such a
    /// policy is swapped in mid-run, so the checker learns what the
    /// tables hold.
    pub fn announce_profile(&self, me: &[f64]) {
        self.audit.emit(|| AuditEvent::ProfileUpdate { me: me.to_vec() });
    }

    /// Walk all mutable controller state: request queue, DRAM device,
    /// drain machinery, id allocator, in-flight completions, statistics,
    /// and the active policy's decision state ([`Archive`]). A load needs
    /// a controller constructed with the same configuration and an
    /// identically built policy (same kind and construction seed). The
    /// scratch buffers (rebuilt from scratch every tick) and the audit
    /// handle (an observer the host re-attaches) are deliberately not
    /// state.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `cfg`: construction-time config, identical across snapshot peers.
        // The `cand_*` and `bank_ready` scratch: rebuilt from scratch every
        // tick. `audit`: instrumentation handle re-attached by the host,
        // detached by a load. `gate`: derived, reset to "rescan" by a load.
        let Self {
            cfg: _,
            queue,
            dram,
            policy,
            draining,
            next_id,
            completions,
            stats,
            cand_buf: _,
            cand_pos: _,
            cand_ids: _,
            bank_ready: _,
            audit,
            gate,
        } = self;
        queue.state(ar)?;
        dram.state(ar)?;
        // The policy's read-first half of its rule class, checked like its
        // name below: a restore cannot change the receiver's class.
        let mut read_first = policy.read_first();
        ar.bool(&mut read_first)?;
        ar.ensure(
            read_first == policy.read_first(),
            SnapError::Invalid("read-first class mismatch"),
        )?;
        ar.bool(draining)?;
        ar.u64(next_id)?;
        // BinaryHeap iteration order is unspecified; walk it sorted so
        // identical controller states serialize to identical bytes.
        let mut sorted: Vec<Completion> = completions.iter().map(|Reverse(c)| *c).collect();
        sorted.sort();
        ar.seq(&mut sorted, None, |ar, c| c.state(ar))?;
        stats.state(ar)?;
        let mut name = policy.name().to_owned();
        ar.string(&mut name)?;
        ar.ensure(name == policy.name(), SnapError::Invalid("scheduler policy mismatch"))?;
        policy.state(ar)?;
        if ar.loading() {
            completions.clear();
            completions.extend(sorted.into_iter().map(Reverse));
            // An attached audit (including the debug-build watchdog)
            // models the machine from reset; the restored state contains
            // in-flight requests and device timings it never observed
            // being built, so any audit is detached rather than left to
            // report phantom violations. Audited runs always simulate fresh.
            *audit = AuditHandle::disabled();
            for (ch, wake) in gate.wake.iter_mut().enumerate() {
                *wake = if queue.channel_positions(ch).is_empty() { Cycle::MAX } else { 0 };
            }
        }
        Ok(())
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Clear accumulated statistics (end of a warm-up phase). Queue and
    /// DRAM state are untouched — only the counters restart.
    pub fn reset_stats(&mut self) {
        let cores = self.stats.read_latency.len();
        let channels = self.stats.per_channel.len();
        self.stats = ControllerStats::new(cores, channels);
    }

    /// Push fresh per-core memory-efficiency estimates into the policy
    /// (no-op for ME-oblivious policies) — the online-profiling hook.
    pub fn update_profile(&mut self, me: &[f64]) {
        self.policy.update_profile(me);
        self.audit.emit(|| AuditEvent::ProfileUpdate { me: me.to_vec() });
    }

    /// The DRAM device behind the controller (geometry, timing, row state).
    pub fn dram(&self) -> &DramSystem {
        &self.dram
    }

    /// Whether the shared buffer can take another request.
    pub fn can_accept(&self) -> bool {
        self.queue.has_space()
    }

    /// Pending read count of `core`, the counter the LREQ policies rank
    /// by (read from outside only by the system's epoch sampler).
    pub fn pending_reads(&self, core: CoreId) -> u32 {
        self.queue.pending_reads(core)
    }

    /// Logical channel count of the DRAM behind the controller.
    pub fn channels(&self) -> usize {
        self.dram.geometry().channels
    }

    /// Requests currently queued for `channel` (the epoch sampler's
    /// queue-depth signal).
    pub fn channel_queue_depth(&self, channel: usize) -> usize {
        self.queue.channel_positions(channel).len()
    }

    /// True when no requests are queued and no completions are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
    }

    /// Enqueue a line transaction. Returns the request id; the same id is
    /// reported by [`MemoryController::pop_completed`] when a read's data
    /// returns.
    ///
    /// # Panics
    /// Panics if the buffer is full — check [`MemoryController::can_accept`].
    pub fn submit(&mut self, core: CoreId, addr: Addr, kind: AccessKind, now: Cycle) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let loc = self.dram.decode(addr);
        self.audit.emit(|| {
            AuditEvent::Submit(Submit {
                id: id.0,
                core: core.0,
                channel: loc.channel,
                bank: loc.bank,
                row: loc.row,
                write: kind.is_write(),
                at: now,
            })
        });
        self.queue.push(MemRequest { id, core, addr, loc, kind, arrival: now });
        let eligible_at = self.eligible_at(now, &loc);
        let wake = &mut self.gate.wake[loc.channel];
        *wake = (*wake).min(eligible_at);
        id
    }

    /// First cycle a request that arrived at `arrival` can be a grant
    /// candidate as the bank timers stand: pipeline overhead cleared and
    /// its bank ready.
    fn eligible_at(&self, arrival: Cycle, loc: &melreq_dram::Location) -> Cycle {
        (arrival + self.cfg.overhead).max(self.dram.bank_ready_slice(loc.channel)[loc.bank])
    }

    /// Force the grant scan of every channel on every tick (the
    /// `tick_exact` oracle, see `System::set_tick_exact`). Results are
    /// identical either way; a run-time switch, not state.
    pub fn set_tick_exact(&mut self, exact: bool) {
        self.gate.exact = exact;
    }

    /// Candidate scans run and scans skipped by the per-channel wake
    /// bound since construction (host-side counters, not state).
    pub fn scan_counters(&self) -> (u64, u64) {
        (self.gate.scans, self.gate.skipped)
    }

    /// Read decisions since construction whose candidates came from two
    /// or more cores (a host-side counter, not state). Every policy ranks
    /// cores, so only these can go differently under two policies that
    /// agree on [`SchedulerPolicy::read_first`] and
    /// [`SchedulerPolicy::hit_first`].
    pub fn contested_decisions(&self) -> u64 {
        self.gate.contested
    }

    /// One scheduler cycle: update drain state, then grant at most one
    /// transaction per logical channel.
    pub fn tick(&mut self, now: Cycle) {
        if self.queue.is_empty() {
            return;
        }
        self.update_drain_state();
        for ch in 0..self.dram.geometry().channels {
            self.try_grant(ch, now);
        }
    }

    /// Pop one read whose data is available at `now`, if any.
    pub fn pop_completed(&mut self, now: Cycle) -> Option<(ReqId, CoreId, Addr)> {
        match self.completions.peek() {
            Some(Reverse(c)) if c.at <= now => {
                let Reverse(c) = self.completions.pop().expect("peeked");
                Some((c.id, c.core, c.addr))
            }
            _ => None,
        }
    }

    /// Earliest cycle at which a completion will be ready, if any — lets
    /// the system loop skip idle cycles.
    pub fn next_completion_at(&self) -> Option<Cycle> {
        self.completions.peek().map(|Reverse(c)| c.at)
    }

    /// Conservative lower bound on the next cycle this controller can do
    /// observable work: deliver a read completion, grant a queued request
    /// (earliest cycle any request has both cleared the pipeline overhead
    /// and found its bank ready). `None` when the controller is fully idle.
    ///
    /// The grant part is the minimum of the per-channel wake bounds the
    /// scan itself maintains. It never overshoots: bank ready times only
    /// move when a grant moves them, and `try_grant` always grants when a
    /// candidate passes both filters — so no grant can occur strictly
    /// before the returned cycle. It may undershoot (a channel that
    /// granted last tick reads "rescan now"), which merely costs the
    /// caller a probe tick.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let grant = self.gate.wake.iter().copied().min().filter(|&at| at != Cycle::MAX);
        let bound = match (self.next_completion_at(), grant) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        bound.map(|b| b.max(now))
    }

    fn update_drain_state(&mut self) {
        let writes = self.queue.total_writes() as usize;
        if !self.draining && writes >= self.cfg.drain_start {
            self.draining = true;
        } else if self.draining && writes <= self.cfg.drain_stop {
            self.draining = false;
        }
    }

    /// Whether the controller is currently draining writes.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Attempt one grant on channel `ch`.
    fn try_grant(&mut self, ch: usize, now: Cycle) {
        if self.queue.channel_positions(ch).is_empty() {
            return;
        }
        if now < self.gate.wake[ch] && !self.gate.exact {
            self.gate.skipped += 1;
            debug_assert!(
                self.queue.channel_positions(ch).iter().all(|&pos| {
                    let r = self.queue.at(pos);
                    self.eligible_at(r.arrival, &r.loc) > now
                }),
                "channel {ch} has a grant candidate at cycle {now}, before its wake bound {}",
                self.gate.wake[ch]
            );
            return;
        }
        self.gate.scans += 1;
        // Snapshot per-bank ready cycles once per channel: one dense copy
        // from the DRAM model's struct-of-arrays state instead of a probe
        // per bank (a grant below mutates the DRAM, so the scan cannot
        // borrow the slice directly).
        self.bank_ready.clear();
        self.bank_ready.extend_from_slice(self.dram.bank_ready_slice(ch));
        // Gather issuable requests on this channel that have cleared the
        // controller pipeline overhead, walking only this channel's
        // position list (buffer order, so policies see the same candidate
        // sequence a full buffer scan would produce).
        self.cand_ids.clear();
        let mut earliest = Cycle::MAX;
        for &pos in self.queue.channel_positions(ch) {
            let r = self.queue.at(pos);
            let eligible_at = (r.arrival + self.cfg.overhead).max(self.bank_ready[r.loc.bank]);
            if eligible_at <= now {
                self.cand_ids.push((pos, r.id, r.kind));
            } else {
                earliest = earliest.min(eligible_at);
            }
        }
        if self.cand_ids.is_empty() {
            self.gate.wake[ch] = earliest;
            return;
        }
        // Statistics are sampled per scheduling decision, not per cycle —
        // see `ControllerStats::queue_occupancy`.
        self.stats.queue_occupancy.push(self.queue.len() as f64);
        self.stats.grant_candidates.push(self.cand_ids.len() as f64);

        // Pick the class, then run its chain: plain FCFS keeps one mixed
        // class in strict arrival order, writes go hit-first-then-oldest
        // under every policy, reads are the policy's.
        let want_reads = self.policy.read_first().then(|| {
            let has_read = self.cand_ids.iter().any(|(_, _, k)| k.is_read());
            let has_write = self.cand_ids.iter().any(|(_, _, k)| k.is_write());
            let use_writes = if self.draining { has_write } else { !has_read && has_write };
            !use_writes
        });
        self.build_candidates(want_reads);
        if want_reads == Some(true) {
            let first = self.cand_buf[0].core;
            self.gate.contested += u64::from(self.cand_buf.iter().any(|c| c.core != first));
        }
        let pending = self.queue.pending_reads_all();
        let idx = match want_reads {
            None => Fcfs.select(&self.cand_buf, pending),
            Some(false) => HitFirst.select(&self.cand_buf, pending),
            Some(true) => self.policy.select(&self.cand_buf, pending),
        };
        let chosen = self.cand_buf[idx];
        if self.audit.is_enabled() {
            self.emit_decision(ch, now, chosen.id);
        }
        if want_reads == Some(true) {
            self.policy.note_grant(&chosen);
        }
        self.issue(self.cand_pos[idx], now);
        // The grant moved a bank timer and may have left candidates
        // behind: rescan next tick.
        self.gate.wake[ch] =
            if self.queue.channel_positions(ch).is_empty() { Cycle::MAX } else { 0 };
    }

    /// Report one scheduling decision — the full candidate set plus the
    /// pending-read counts the policy saw — on the audit stream.
    fn emit_decision(&self, ch: usize, now: Cycle, chosen: ReqId) {
        let candidates: Vec<CandidateInfo> = self
            .cand_ids
            .iter()
            .map(|&(pos, id, kind)| {
                let r = self.queue.at(pos);
                CandidateInfo {
                    id: id.0,
                    core: r.core.0,
                    bank: r.loc.bank,
                    row: r.loc.row,
                    write: kind.is_write(),
                    row_hit: self.dram.is_row_hit(&r.loc),
                    arrival: r.arrival,
                }
            })
            .collect();
        let pending_reads = self.queue.pending_reads_all().to_vec();
        let why =
            explain_grant(&*self.policy, self.draining, &candidates, &pending_reads, chosen.0);
        self.audit.emit(|| {
            AuditEvent::Decision(Decision {
                channel: ch,
                at: now,
                draining: self.draining,
                chosen: chosen.0,
                candidates,
                pending_reads,
                why,
            })
        });
    }

    /// Fill `cand_buf`/`cand_pos` with this channel's issuable reads
    /// (`Some(true)`), writes (`Some(false)`) or both (`None`).
    fn build_candidates(&mut self, want_reads: Option<bool>) {
        self.cand_buf.clear();
        self.cand_pos.clear();
        for &(pos, id, kind) in &self.cand_ids {
            if want_reads.is_some_and(|r| kind.is_read() != r) {
                continue;
            }
            let req = self.queue.at(pos);
            self.cand_buf.push(Candidate {
                id,
                core: req.core,
                row_hit: self.dram.is_row_hit(&req.loc),
            });
            self.cand_pos.push(pos);
        }
    }

    fn issue(&mut self, pos: usize, now: Cycle) {
        let req = self.queue.remove_at(pos);
        let id = req.id;
        // Close-page: scheduler-controlled precharge keeps the row open
        // only while another queued request targets it. Open-page: rows
        // always stay open (conflicts pay the precharge later).
        let keep_open = match self.cfg.row_policy {
            RowPolicy::ClosePage => self.queue.has_same_row_pending(&req.loc, id),
            RowPolicy::OpenPage => true,
        };
        let service = self.dram.issue(&req.loc, req.kind, now, keep_open);
        self.audit.emit(|| {
            AuditEvent::Grant(Grant {
                id: req.id.0,
                core: req.core.0,
                channel: req.loc.channel,
                bank: req.loc.bank,
                row: req.loc.row,
                write: req.kind.is_write(),
                at: now,
                keep_open,
                outcome: service.outcome,
                data_ready: service.data_ready,
            })
        });
        let traffic = &mut self.stats.per_channel[req.loc.channel];
        if service.outcome == RowOutcome::Hit {
            traffic.row_hits += 1;
        }
        self.stats.bytes_by_core[req.core.index()] += melreq_stats::CACHE_LINE_BYTES;
        match req.kind {
            AccessKind::Read => {
                traffic.reads += 1;
                debug_assert!(service.data_ready >= req.arrival, "read served before it arrived");
                self.stats.read_latency[req.core.index()]
                    .push(service.data_ready.saturating_sub(req.arrival) as f64);
                self.completions.push(Reverse(Completion {
                    at: service.data_ready,
                    id: req.id,
                    core: req.core,
                    addr: req.addr,
                }));
            }
            AccessKind::Write => traffic.writes += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FcfsRf, PolicyKind};
    use melreq_dram::DramSystem;

    fn controller(kind: PolicyKind, cores: usize) -> MemoryController {
        let me = vec![1.0; cores];
        MemoryController::new(
            ControllerConfig::paper(),
            DramSystem::paper(),
            kind.build(&me, cores, 1),
            cores,
        )
    }

    /// Run the controller forward until `id` completes, returning the
    /// completion cycle.
    fn run_until_complete(c: &mut MemoryController, id: ReqId, limit: Cycle) -> Cycle {
        for now in 0..limit {
            c.tick(now);
            if let Some((done, _, _)) = c.pop_completed(now) {
                assert_eq!(done, id);
                return now;
            }
        }
        panic!("request did not complete within {limit} cycles");
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let mut c = controller(PolicyKind::HfRf, 1);
        let id = c.submit(CoreId(0), 0x40, AccessKind::Read, 0);
        let done = run_until_complete(&mut c, id, 1000);
        // Overhead 48 (eligibility) + tRCD 40 + tCL 40 + burst 16 = 144.
        assert_eq!(done, 144);
        assert_eq!(c.stats().served().reads, 1);
        assert!((c.stats().mean_read_latency() - 144.0).abs() < 1e-9);
    }

    #[test]
    fn writes_complete_silently() {
        let mut c = controller(PolicyKind::HfRf, 1);
        c.submit(CoreId(0), 0x40, AccessKind::Write, 0);
        for now in 0..500 {
            c.tick(now);
            assert!(c.pop_completed(now).is_none());
        }
        assert_eq!(c.stats().served().writes, 1);
        assert!(c.is_idle());
    }

    #[test]
    fn read_bypasses_older_write() {
        let mut c = controller(PolicyKind::HfRf, 1);
        // Same channel for both (channel of addr 0x40 and 0x140 differ —
        // use stride 2*64 to stay on one channel).
        let w = c.submit(CoreId(0), 0x00, AccessKind::Write, 0);
        let r = c.submit(CoreId(0), 0x100, AccessKind::Read, 0);
        assert!(w < r);
        // The read must be granted first.
        for now in 0..2000 {
            c.tick(now);
            if let Some((id, _, _)) = c.pop_completed(now) {
                assert_eq!(id, r);
                break;
            }
        }
        assert_eq!(c.stats().served().reads, 1);
    }

    #[test]
    fn fcfs_does_not_bypass() {
        let mut c = controller(PolicyKind::Fcfs, 1);
        // 0x00000 and 0x10000 map to channel 0, bank 0, rows 0 and 1: the
        // older write must serialize before the read, including its
        // write-recovery and precharge.
        let _w = c.submit(CoreId(0), 0x00000, AccessKind::Write, 0);
        let r = c.submit(CoreId(0), 0x10000, AccessKind::Read, 0);
        let done = run_until_complete(&mut c, r, 5000);
        // Write: grant at 48, data at 48+96=144, bank blocked until
        // 144+48+40=232; read grant then costs 96 more.
        assert!(done > 300, "read completed too early ({done}) for FCFS");
    }

    #[test]
    fn drain_mode_hysteresis() {
        let mut c = controller(PolicyKind::HfRf, 1);
        // Fill with 32 writes to trigger draining.
        for i in 0..32 {
            c.submit(CoreId(0), i * 0x40, AccessKind::Write, 0);
        }
        assert!(!c.is_draining());
        c.tick(0); // updates drain state before granting
        assert!(c.is_draining());
        // Run until writes fall to the stop threshold.
        let mut now = 1;
        while c.is_draining() {
            c.tick(now);
            now += 1;
            assert!(now < 100_000, "drain never stopped");
        }
        assert!(c.queue.total_writes() as usize <= 16);
    }

    #[test]
    fn buffer_backpressure() {
        let mut c = controller(PolicyKind::HfRf, 1);
        for i in 0..64 {
            assert!(c.can_accept());
            c.submit(CoreId(0), i * 0x40, AccessKind::Read, 0);
        }
        assert!(!c.can_accept());
    }

    #[test]
    fn per_core_latency_is_tracked_separately() {
        let mut c = controller(PolicyKind::HfRf, 2);
        let a = c.submit(CoreId(0), 0x00, AccessKind::Read, 0);
        let b = c.submit(CoreId(1), 0x40, AccessKind::Read, 0);
        let mut seen = 0;
        for now in 0..2000 {
            c.tick(now);
            while let Some((id, core, _)) = c.pop_completed(now) {
                if id == a {
                    assert_eq!(core, CoreId(0));
                }
                if id == b {
                    assert_eq!(core, CoreId(1));
                }
                seen += 1;
            }
            if seen == 2 {
                break;
            }
        }
        assert_eq!(seen, 2);
        assert_eq!(c.stats().read_latency[0].count(), 1);
        assert_eq!(c.stats().read_latency[1].count(), 1);
    }

    #[test]
    fn row_hits_are_granted_first_under_hfrf() {
        let mut c = controller(PolicyKind::HfRf, 1);
        // a and b share channel 0 / bank 0 / row 0 (column stride is
        // 0x400 = channels×banks lines); x targets row 1 of the same bank.
        let a = c.submit(CoreId(0), 0x00000, AccessKind::Read, 0);
        let x = c.submit(CoreId(0), 0x10000, AccessKind::Read, 0);
        let b = c.submit(CoreId(0), 0x00400, AccessKind::Read, 0);
        let mut order = Vec::new();
        for now in 0..5000 {
            c.tick(now);
            while let Some((id, _, _)) = c.pop_completed(now) {
                order.push(id);
            }
            if order.len() == 3 {
                break;
            }
        }
        // a first (oldest); then b (row hit beats older x); then x.
        assert_eq!(order, vec![a, b, x]);
        assert!(c.stats().served().row_hits >= 1);
        assert_eq!(c.contested_decisions(), 0, "one core never contests");
    }

    #[test]
    fn me_lreq_prefers_efficient_core() {
        // Core 0: ME 1 (streaming hog), core 1: ME 100 (efficient).
        let me = [1.0, 100.0];
        let mut c = MemoryController::new(
            ControllerConfig::paper(),
            DramSystem::paper(),
            PolicyKind::MeLreq.build(&me, 2, 1),
            2,
        );
        // Both cores have a request on the same bank, same age.
        let _hog = c.submit(CoreId(0), 0x0000, AccessKind::Read, 0);
        let eff = c.submit(CoreId(1), 0x0100, AccessKind::Read, 0);
        let mut first = None;
        for now in 0..5000 {
            c.tick(now);
            if let Some((id, _, _)) = c.pop_completed(now) {
                first = Some(id);
                break;
            }
        }
        assert_eq!(first, Some(eff), "high-ME core should be served first");
    }

    fn info(id: u64, core: u16, write: bool, hit: bool) -> CandidateInfo {
        CandidateInfo { id, core, bank: 0, row: id, write, row_hit: hit, arrival: id }
    }

    #[test]
    fn class_outcomes_are_labelled_by_the_controller() {
        // A lone candidate: no arbitration happened.
        let cands = [info(3, 0, false, true)];
        let why = explain_grant(&HitFirst, false, &cands, &[1, 0], 3);
        assert_eq!(why, (Rule::OnlyCandidate, None));
        // The only schedulable read bypassed the pending write.
        let cands = [info(7, 0, false, false), info(2, 1, true, true)];
        let why = explain_grant(&HitFirst, false, &cands, &[1, 0], 7);
        assert_eq!(why, (Rule::ReadFirst, Some(2)));
        // Draining: the write went out ahead of the read.
        let cands = [info(2, 0, true, true), info(1, 1, false, true)];
        let why = explain_grant(&HitFirst, true, &cands, &[0, 1], 2);
        assert_eq!(why, (Rule::WriteDrain, Some(1)));
        // No read schedulable: writes go hit-first under any policy, and
        // the label is the class's, not the chain's.
        let cands = [info(2, 0, true, false), info(5, 1, true, true), info(9, 1, true, false)];
        let why = explain_grant(&FcfsRf, false, &cands, &[0, 0], 5);
        assert_eq!(why, (Rule::WriteFallback, Some(2)));
    }

    #[test]
    fn plain_fcfs_is_one_mixed_class_in_arrival_order() {
        let cands = [info(4, 0, true, false), info(6, 1, false, true)];
        let why = explain_grant(&Fcfs, false, &cands, &[0, 1], 4);
        assert_eq!(why, (Rule::WriteFallback, Some(6)));
        let cands = [info(4, 0, false, false), info(6, 1, true, true), info(5, 1, false, true)];
        let why = explain_grant(&Fcfs, true, &cands, &[1, 1], 4);
        assert_eq!(why, (Rule::FcfsTiebreak, Some(5)));
    }

    #[test]
    fn contested_reads_are_explained_by_the_policy_chain() {
        use crate::policy::LeastRequest;
        // Core 0's miss wins on the pending count; the schedulable write
        // plays no part.
        let cands = [info(9, 0, false, false), info(1, 1, false, true), info(0, 1, true, true)];
        let why = explain_grant(&LeastRequest, false, &cands, &[1, 6], 9);
        assert_eq!(why, (Rule::LreqCount, Some(1)));
    }

    #[test]
    fn decisions_carry_their_rule_on_the_audit_stream() {
        use std::sync::{Arc, Mutex};
        let mut c = controller(PolicyKind::Lreq, 2);
        let recorder = Arc::new(Mutex::new(melreq_audit::Recorder::default()));
        c.attach_audit(AuditHandle::from_shared(vec![recorder.clone()]));
        // Same channel, different banks: all three compete at cycle 48.
        let a = c.submit(CoreId(0), 0x000, AccessKind::Read, 0);
        let _ = c.submit(CoreId(0), 0x100, AccessKind::Read, 0);
        let b = c.submit(CoreId(1), 0x200, AccessKind::Read, 0);
        for now in 0..=48 {
            c.tick(now);
        }
        let events = &recorder.lock().expect("recorder").events;
        let first = events.iter().find_map(|e| match e {
            AuditEvent::Decision(d) => Some((d.chosen, d.candidates.len(), d.why)),
            _ => None,
        });
        // Core 1 has one read pending to core 0's two.
        assert_eq!(first, Some((b.0, 3, (Rule::LreqCount, Some(a.0)))));
        assert_eq!(c.contested_decisions(), 1, "two cores competed once");
    }

    #[test]
    fn open_page_leaves_rows_open() {
        let me = [1.0];
        let mut c = MemoryController::new(
            ControllerConfig::paper_open_page(),
            DramSystem::paper(),
            PolicyKind::HfRf.build(&me, 1, 1),
            1,
        );
        let id = c.submit(CoreId(0), 0x0000, AccessKind::Read, 0);
        let _ = run_until_complete(&mut c, id, 1000);
        // Row 0 of channel 0/bank 0 must still be open even though no
        // other request targets it.
        let loc = c.dram().decode(0x0000);
        assert!(c.dram().is_row_hit(&loc), "open-page must keep the row open");
        // A second access to the same row is now a hit.
        let id2 = c.submit(CoreId(0), 0x0400, AccessKind::Read, 500);
        let _ = run_until_complete(&mut c, id2, 2000);
        assert_eq!(c.stats().served().row_hits, 1);
    }

    #[test]
    fn close_page_closes_unwanted_rows() {
        let mut c = controller(PolicyKind::HfRf, 1);
        let id = c.submit(CoreId(0), 0x0000, AccessKind::Read, 0);
        let _ = run_until_complete(&mut c, id, 1000);
        let loc = c.dram().decode(0x0000);
        assert!(!c.dram().is_row_hit(&loc), "close-page must auto-precharge");
    }

    #[test]
    fn channel_wake_bound_skips_scans_until_a_request_is_eligible() {
        let mut c = controller(PolicyKind::HfRf, 1);
        assert_eq!(c.next_event_at(0), None, "idle controller has no event");
        c.submit(CoreId(0), 0x40, AccessKind::Read, 10);
        // The bound is arrival + overhead; a younger request on the same
        // channel cannot lower it.
        assert_eq!(c.next_event_at(10), Some(58));
        c.submit(CoreId(0), 0x140, AccessKind::Read, 14);
        assert_eq!(c.next_event_at(14), Some(58));
        for now in 14..58 {
            c.tick(now);
        }
        assert_eq!(c.scan_counters(), (0, 44), "no scan before the bound");
        c.tick(58);
        assert_eq!(c.scan_counters(), (1, 44));
        assert_eq!(c.stats().served().reads, 1);
        // A grant leaves the channel at "rescan": the next tick scans,
        // finds the second request still in the pipeline (until 62), and
        // the channel sleeps again.
        assert_eq!(c.next_event_at(59), Some(59));
        c.tick(59);
        assert_eq!(c.scan_counters(), (2, 44));
        c.tick(60);
        assert_eq!(c.scan_counters(), (2, 45));

        // The tick-exact oracle scans a non-empty channel every cycle.
        let mut exact = controller(PolicyKind::HfRf, 1);
        exact.set_tick_exact(true);
        exact.submit(CoreId(0), 0x40, AccessKind::Read, 10);
        for now in 10..=58 {
            exact.tick(now);
        }
        assert_eq!(exact.scan_counters(), (49, 0));
        assert_eq!(exact.stats().served().reads, 1);
    }

    #[test]
    fn next_completion_skips_idle_work() {
        let mut c = controller(PolicyKind::HfRf, 1);
        assert_eq!(c.next_completion_at(), None);
        c.submit(CoreId(0), 0x40, AccessKind::Read, 0);
        for now in 0..200 {
            c.tick(now);
            if let Some(at) = c.next_completion_at() {
                assert!(at >= now);
                return;
            }
        }
        panic!("no completion scheduled");
    }
}
