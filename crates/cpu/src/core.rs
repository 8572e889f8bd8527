//! The out-of-order core pipeline model.

use crate::config::CoreConfig;
use crate::port::{AsleepMemory, CoreMemory, CoreToken, MemResponse};
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{line_addr, Addr, CoreId, Cycle};
use melreq_trace::{InstrStream, MicroOp, OpKind};

/// Execution state of one in-flight micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpState {
    /// Dispatched; waiting for operands / issue resources (occupies IQ).
    Waiting,
    /// Executing; result available at `done_at`.
    Executing { done_at: Cycle },
    /// Load outstanding in the memory hierarchy.
    WaitingMem,
    /// Completed at `at`.
    Done { at: Cycle },
}

impl OpState {
    /// Walk the state tag, then the cycle `Executing` and `Done` carry.
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let mut tag = match self {
            OpState::Waiting => 0,
            OpState::Executing { .. } => 1,
            OpState::WaitingMem => 2,
            OpState::Done { .. } => 3,
        };
        ar.u8(&mut tag)?;
        if ar.loading() {
            *self = match tag {
                0 => OpState::Waiting,
                1 => OpState::Executing { done_at: 0 },
                2 => OpState::WaitingMem,
                3 => OpState::Done { at: 0 },
                t => return Err(SnapError::BadTag(t)),
            };
        }
        match self {
            OpState::Executing { done_at: at } | OpState::Done { at } => ar.u64(at),
            OpState::Waiting | OpState::WaitingMem => Ok(()),
        }
    }
}

/// [`RobSlot::dep_seq`] of an op with no register producer. No real
/// producer has it: a producer is older than its consumer.
const NO_DEP: u64 = u64::MAX;
/// End of a consumer chain ([`RobSlot::consumers`], [`RobSlot::next_consumer`]).
const NIL: u16 = u16::MAX;

/// One reorder-buffer slot. The op's sequence number is not stored: op
/// `seq` lives in slot `seq & mask` for as long as it is in flight.
#[derive(Debug, Clone, Copy)]
struct RobSlot {
    kind: OpKind,
    /// Producer's sequence number, or [`NO_DEP`].
    dep_seq: u64,
    state: OpState,
    /// Slot of the first op parked on this one's result, or [`NIL`].
    /// Non-empty only while this op is `Waiting` or `WaitingMem`.
    consumers: u16,
    /// Slot of the next op parked on the same producer, or [`NIL`].
    next_consumer: u16,
}

impl RobSlot {
    /// When this op's result is (or will be) available, if known.
    #[inline]
    fn resolved_at(&self) -> Option<Cycle> {
        match self.state {
            OpState::Executing { done_at } => Some(done_at),
            OpState::Done { at } => Some(at),
            OpState::Waiting | OpState::WaitingMem => None,
        }
    }
}

/// Per-core execution statistics.
#[derive(Debug, Default, Clone)]
pub struct CoreStats {
    /// Committed micro-ops.
    pub committed: u64,
    /// Core cycles simulated.
    pub cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// How much the issue stage looked at for what it issued, since
/// construction ([`Core::issue_work`]). Host-side bookkeeping like the
/// kernel's other work counters: never serialized, in no report, and the
/// same in debug and release builds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IssueWork {
    /// Worklist entries the issue stage visited.
    pub examined: u64,
    /// Ops it issued.
    pub issued: u64,
}

/// One out-of-order core executing a synthetic instruction stream.
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    stream: Box<dyn InstrStream + Send>,
    /// The reorder buffer: a ring of `cfg.rob` rounded up to a power of
    /// two, holding ops `head_seq..next_seq`, op `seq` in slot
    /// `seq & (rob.len() - 1)`.
    rob: Vec<RobSlot>,
    head_seq: u64,
    next_seq: u64,
    // Fetch state.
    fetch_line: Option<Addr>,
    fetch_pending: bool,
    staged: Option<MicroOp>,
    fetch_stall_until: Cycle,
    halted_by_branch: Option<u64>,
    // Occupancy counters.
    loads_in_rob: usize,
    stores_in_rob: usize,
    /// `OpState::Waiting` ops in flight: the issue-queue occupancy
    /// (dispatch stops at `cfg.iq`). Each of them is in exactly one place:
    /// parked on the consumer chain of its producer's slot while that
    /// producer is itself `Waiting` or `WaitingMem`, else on `issuable`.
    iq_used: usize,
    /// The issue stage's worklist: `(seq, ready_at)` of every waiting op
    /// whose operand time is known, in program order. The only thing
    /// [`Core::issue`] walks and [`Core::next_event_at`] folds over.
    issuable: Vec<(u64, Cycle)>,
    // Measurement window: commit counts at which the measured slice
    // starts and ends, and the cycles at which those commits happened.
    window_skip: u64,
    window_measure: Option<u64>,
    window_start: Option<Cycle>,
    window_end: Option<Cycle>,
    stats: CoreStats,
    // Host-side work counters, not simulation state.
    issue_work: IssueWork,
    fetched: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob_occupancy", &self.rob_len())
            .field("committed", &self.stats.committed)
            .finish()
    }
}

impl Core {
    /// A core executing `stream`.
    pub fn new(id: CoreId, cfg: CoreConfig, stream: Box<dyn InstrStream + Send>) -> Self {
        cfg.validate();
        let ring = cfg.rob.next_power_of_two();
        assert!(ring <= usize::from(NIL), "a {}-entry ROB outgrows 16-bit slot links", cfg.rob);
        let vacant = RobSlot {
            kind: OpKind::IntAlu,
            dep_seq: NO_DEP,
            state: OpState::Done { at: 0 },
            consumers: NIL,
            next_consumer: NIL,
        };
        Core {
            id,
            cfg,
            stream,
            rob: vec![vacant; ring],
            head_seq: 0,
            next_seq: 0,
            fetch_line: None,
            fetch_pending: false,
            staged: None,
            fetch_stall_until: 0,
            halted_by_branch: None,
            loads_in_rob: 0,
            stores_in_rob: 0,
            iq_used: 0,
            issuable: Vec::with_capacity(cfg.iq),
            window_skip: 0,
            window_measure: None,
            window_start: None,
            window_end: None,
            stats: CoreStats::default(),
            issue_work: IssueWork::default(),
            fetched: 0,
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Issue-stage work so far (see [`IssueWork`]).
    pub fn issue_work(&self) -> IssueWork {
        self.issue_work
    }

    /// Ops taken from the instruction stream since construction
    /// (host-side bookkeeping, like [`Core::issue_work`]).
    pub fn ops_fetched(&self) -> u64 {
        self.fetched
    }

    /// Hand the core another instruction stream and take the one it had.
    /// The core fetches on from `stream`'s next op; to keep the program
    /// the same, `stream` must stand where the old one stood.
    pub fn replace_stream(
        &mut self,
        stream: Box<dyn InstrStream + Send>,
    ) -> Box<dyn InstrStream + Send> {
        std::mem::replace(&mut self.stream, stream)
    }

    /// Committed micro-op count.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Ops in flight.
    #[inline]
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// The ring slot of op `seq`.
    #[inline]
    fn slot_of(&self, seq: u64) -> usize {
        seq as usize & (self.rob.len() - 1)
    }

    /// The in-flight op occupying ring slot `slot`.
    #[inline]
    fn seq_in(&self, slot: u16) -> u64 {
        let mask = self.rob.len() as u64 - 1;
        self.head_seq + (u64::from(slot).wrapping_sub(self.head_seq) & mask)
    }

    /// Arm a measurement window: the first `skip` committed ops are
    /// warm-up (cold caches, empty queues); the slice of `measure` ops
    /// after them is what [`Core::measured_ipc`] reports. This substitutes
    /// for the paper's SimPoint slices, whose warm-up is implicit in their
    /// 10–100 M-instruction length. The core keeps running after the
    /// slice ends, like the paper's reload-and-continue methodology.
    pub fn set_window(&mut self, skip: u64, measure: u64) {
        assert!(measure > 0, "target must be positive");
        assert!(self.stats.committed == 0, "set window before running");
        self.window_skip = skip;
        self.window_measure = Some(measure);
        if skip == 0 {
            self.window_start = Some(0);
        }
    }

    /// The cycle at which the warm-up finished (window start), if reached.
    pub fn window_start_cycle(&self) -> Option<Cycle> {
        self.window_start
    }

    /// Re-baseline the measured slice to start `now`: the next
    /// `window_measure` committed ops are the measured slice, regardless
    /// of how many were committed before. The system calls this on every
    /// core at the global warm-up boundary (the cycle the *last* core
    /// crosses its warm-up count), so all measured slices run entirely
    /// under the measured policy and share one start cycle — a core that
    /// raced ahead during warm-up gets its provisional window discarded.
    pub fn begin_measured_slice(&mut self, now: Cycle) {
        self.window_skip = self.stats.committed;
        self.window_start = Some(now);
        self.window_end = None;
    }

    /// The cycle at which the measured slice completed, if it has.
    pub fn target_cycle(&self) -> Option<Cycle> {
        self.window_end
    }

    /// IPC over the measured window. Falls back to running IPC if the
    /// window has not completed.
    pub fn measured_ipc(&self) -> f64 {
        match (self.window_measure, self.window_start, self.window_end) {
            (Some(n), Some(s), Some(e)) if e > s => n as f64 / (e - s) as f64,
            _ => self.stats.ipc(),
        }
    }

    /// Walk all mutable pipeline state — the instruction stream's
    /// generation cursor, ROB contents, fetch latches, occupancy
    /// counters, issue worklist, measurement window, and statistics
    /// ([`Archive`]) — so a checkpointed system resumes this core
    /// bit-exactly; a load needs a core built with the same configuration
    /// and stream parameters. The config and core id are construction
    /// parameters, not state; the consumer chains and the `issuable` list
    /// are derived from the ROB and not written — the worklist on disk is
    /// every `Waiting` op in program order. The pipeline invariants the
    /// issue stage indexes by are checked on load, so a snapshot that
    /// breaks one is an error at load, not a panic many cycles later.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `issuable`: rebuilt from the ROB by `rebuild_wakeup` below.
        // `issue_work`, `fetched`: host-side work counters, not simulation
        // state.
        let Self {
            id: _,
            cfg,
            stream,
            rob,
            head_seq,
            next_seq,
            fetch_line,
            fetch_pending,
            staged,
            fetch_stall_until,
            halted_by_branch,
            loads_in_rob,
            stores_in_rob,
            iq_used,
            issuable: _,
            window_skip,
            window_measure,
            window_start,
            window_end,
            stats,
            issue_work: _,
            fetched: _,
        } = self;
        // `Core::slot_of`, with the fields borrowed apart.
        let ring_mask = rob.len() - 1;
        let slot_of = |seq: u64| seq as usize & ring_mask;
        stream.state(ar)?;
        let mut n = (*next_seq - *head_seq) as usize;
        ar.usize(&mut n)?;
        ar.ensure(n <= cfg.rob, SnapError::Invalid("ROB occupancy beyond capacity"))?;
        let mut first_seq = None;
        let (mut rob_loads, mut rob_stores) = (0, 0);
        let mut waiting = Vec::with_capacity(*iq_used);
        for i in 0..n as u64 {
            // A load decodes into a copy, placed once its sequence number is.
            let mut seq = head_seq.wrapping_add(i);
            let mut e = rob[slot_of(seq)];
            // `consumers`, `next_consumer`: derived, rebuilt below.
            let RobSlot { kind, dep_seq, state, consumers: _, next_consumer: _ } = &mut e;
            kind.state(ar)?;
            let mut dep = (*dep_seq != NO_DEP).then_some(*dep_seq);
            ar.opt_u64(&mut dep)?;
            *dep_seq = dep.unwrap_or(NO_DEP);
            state.state(ar)?;
            ar.u64(&mut seq)?;
            let contiguous = first_seq.get_or_insert(seq).checked_add(i) == Some(seq);
            ar.ensure(contiguous, SnapError::Invalid("ROB sequence numbers not contiguous"))?;
            let older = dep.is_none_or(|p| p < seq);
            ar.ensure(older, SnapError::Invalid("ROB op depends on a younger op"))?;
            match e.kind {
                OpKind::Load { .. } => rob_loads += 1,
                OpKind::Store { .. } => rob_stores += 1,
                _ => {}
            }
            if e.state == OpState::Waiting {
                waiting.push(seq);
            }
            if ar.loading() {
                rob[slot_of(seq)] = e;
            }
        }
        ar.u64(head_seq)?;
        ar.u64(next_seq)?;
        let spans = first_seq.is_none_or(|s| s == *head_seq)
            && head_seq.checked_add(n as u64) == Some(*next_seq);
        ar.ensure(spans, SnapError::Invalid("ROB does not span head_seq..next_seq"))?;
        ar.opt_u64(fetch_line)?;
        ar.bool(fetch_pending)?;
        let mut has_staged = staged.is_some();
        ar.bool(&mut has_staged)?;
        if ar.loading() {
            *staged = has_staged.then(MicroOp::default);
        }
        if let Some(op) = staged {
            op.state(ar)?;
        }
        ar.u64(fetch_stall_until)?;
        ar.opt_u64(halted_by_branch)?;
        if let Some(seq) = *halted_by_branch {
            // The halt lifts when that branch issues: anything else in
            // its place would hold the front end forever.
            let halts = (*head_seq..*next_seq).contains(&seq) && {
                let e = &rob[slot_of(seq)];
                e.kind == OpKind::Branch { mispredict: true } && e.state == OpState::Waiting
            };
            ar.ensure(halts, SnapError::Invalid("fetch halted by no waiting mispredicted branch"))?;
        }
        ar.usize(loads_in_rob)?;
        ar.usize(stores_in_rob)?;
        let occupancy = (*loads_in_rob, *stores_in_rob) == (rob_loads, rob_stores);
        ar.ensure(
            occupancy,
            SnapError::Invalid("load/store queue occupancy disagrees with the ROB"),
        )?;
        let mut listed = waiting.clone();
        ar.seq(&mut listed, None, A::u64)?;
        ar.ensure(
            listed == waiting,
            SnapError::Invalid("issue worklist is not the ROB's waiting ops"),
        )?;
        ar.ensure(
            waiting.len() <= cfg.iq,
            SnapError::Invalid("issue worklist beyond IQ capacity"),
        )?;
        ar.u64(window_skip)?;
        for w in [window_measure, window_start, window_end] {
            ar.opt_u64(w)?;
        }
        let CoreStats { committed, cycles } = stats;
        ar.u64(committed)?;
        ar.u64(cycles)?;
        if ar.loading() {
            *iq_used = waiting.len();
            self.rebuild_wakeup();
        }
        Ok(())
    }

    /// Derive the consumer chains and the `issuable` list from the ROB's
    /// op states alone.
    fn rebuild_wakeup(&mut self) {
        self.issuable.clear();
        for seq in self.head_seq..self.next_seq {
            let slot = self.slot_of(seq);
            self.rob[slot].consumers = NIL;
            self.rob[slot].next_consumer = NIL;
        }
        for seq in self.head_seq..self.next_seq {
            if self.rob[self.slot_of(seq)].state == OpState::Waiting {
                self.enter_waiting(seq);
            }
        }
    }

    /// When the operands of waiting op `seq` are (or will be) available,
    /// if its producer's state says: at once without a producer in
    /// flight, else when the producer resolves.
    #[inline]
    fn operands_known_at(&self, seq: u64) -> Option<Cycle> {
        let dep = self.rob[self.slot_of(seq)].dep_seq;
        if dep == NO_DEP || dep < self.head_seq {
            Some(0)
        } else {
            self.rob[self.slot_of(dep)].resolved_at()
        }
    }

    /// Put waiting op `seq`, the youngest entered so far, where the issue
    /// stage will find it: on `issuable` when its operand time is known,
    /// else parked on its producer until that time is.
    #[inline]
    fn enter_waiting(&mut self, seq: u64) {
        match self.operands_known_at(seq) {
            Some(ready_at) => self.issuable.push((seq, ready_at)),
            None => {
                let slot = self.slot_of(seq);
                let producer = self.slot_of(self.rob[slot].dep_seq);
                self.rob[slot].next_consumer = self.rob[producer].consumers;
                self.rob[producer].consumers = slot as u16;
            }
        }
    }

    /// The op in `producer` now has a result time: move every op parked
    /// on it to the back of `issuable`, for [`Core::settle_woken`] to
    /// sort into place.
    #[inline]
    fn wake_consumers(&mut self, producer: usize, ready_at: Cycle) {
        let mut next = std::mem::replace(&mut self.rob[producer].consumers, NIL);
        while next != NIL {
            self.issuable.push((self.seq_in(next), ready_at));
            next = std::mem::replace(&mut self.rob[usize::from(next)].next_consumer, NIL);
        }
    }

    /// Restore program order after wake-ups appended `issuable[from..]`
    /// behind the sorted `issuable[..from]`. Woken ops are few and young,
    /// so each is slid in from the back.
    #[inline]
    fn settle_woken(&mut self, from: usize) {
        for i in from..self.issuable.len() {
            let woken = self.issuable[i];
            let mut at = i;
            while at > 0 && self.issuable[at - 1].0 > woken.0 {
                self.issuable[at] = self.issuable[at - 1];
                at -= 1;
            }
            self.issuable[at] = woken;
        }
    }

    /// Resolve an outstanding memory access. A completed load's consumers
    /// become issuable in this very cycle (completions are delivered
    /// before the tick).
    pub fn finish(&mut self, token: CoreToken, now: Cycle) {
        match token {
            CoreToken::Load(seq) => {
                assert!(
                    (self.head_seq..self.next_seq).contains(&seq),
                    "load completion for retired seq {seq}"
                );
                let slot = self.slot_of(seq);
                debug_assert_eq!(
                    self.rob[slot].state,
                    OpState::WaitingMem,
                    "unexpected load completion"
                );
                self.rob[slot].state = OpState::Done { at: now };
                let sorted = self.issuable.len();
                self.wake_consumers(slot, now);
                self.settle_woken(sorted);
            }
            CoreToken::Fetch => {
                debug_assert!(self.fetch_pending, "fetch completion without pending fetch");
                self.fetch_pending = false;
                if let Some(op) = &self.staged {
                    self.fetch_line = Some(line_addr(op.pc));
                }
            }
        }
    }

    /// Advance the core by one cycle. Returns whether the pipeline made
    /// progress (retired, issued or dispatched an op). `false` does not
    /// mean the core is stuck — a blocked store or load retries every
    /// cycle — only that it is worth asking [`Core::next_event_at`]
    /// whether the core can sleep.
    pub fn tick(&mut self, now: Cycle, mem: &mut dyn CoreMemory) -> bool {
        let before = self.progress_marks();
        self.stats.cycles += 1;
        self.commit(now, mem);
        self.issue(now, mem);
        self.dispatch(now, mem);
        before != self.progress_marks()
    }

    /// Retire, dispatch and issue positions: any op moving through the
    /// pipeline changes at least one of them.
    fn progress_marks(&self) -> (u64, u64, usize) {
        (self.head_seq, self.next_seq, self.iq_used)
    }

    /// Charge one cycle this core sleeps through: its wake cycle (see
    /// [`Core::next_event_at`]) lies ahead and no memory completion has
    /// arrived since it was computed, so a tick would be a no-op —
    /// exactly [`Core::note_skip`]`(1)`.
    ///
    /// Debug builds run the tick anyway, against a memory that panics on
    /// any call, and assert that nothing but the cycle counter moved:
    /// every debug run checks the sleep bound on every slept cycle.
    pub fn sleep_cycle(&mut self, now: Cycle) {
        if cfg!(debug_assertions) {
            let latches = |c: &Core| {
                (
                    c.stats.committed,
                    c.rob_len(),
                    c.fetch_line,
                    c.fetch_pending,
                    c.staged.is_some(),
                    c.fetch_stall_until,
                    c.halted_by_branch,
                )
            };
            let before = latches(self);
            let work = self.issue_work;
            let progressed = self.tick(now, &mut AsleepMemory);
            // The check is not work a release build does.
            self.issue_work = work;
            assert!(
                !progressed && before == latches(self),
                "core {} acted at cycle {now} while asleep",
                self.id.0
            );
        } else {
            self.note_skip(1);
        }
    }

    /// Account for `cycles` skipped cycles during which this core was
    /// provably quiescent (see [`Core::next_event_at`]): the per-cycle
    /// counters advance exactly as `cycles` no-op [`Core::tick`] calls
    /// would have advanced them — a quiescent cycle by construction
    /// simulates, retires, and issues nothing, so only `cycles` moves.
    pub fn note_skip(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Conservative lower bound on the next cycle at which a
    /// [`Core::tick`] could change any state (commit, issue, dispatch, or
    /// a statistic other than the cycle counter).
    ///
    /// * `Some(t)` with `t == now` — the core may act this very cycle;
    ///   the caller must tick normally.
    /// * `Some(t)` with `t > now` — the core provably cannot act before
    ///   `t` *unless* an outstanding memory access completes first; the
    ///   caller covers that case by waking the core on [`Core::finish`].
    /// * `None` — the core is blocked purely on memory (or fully drained)
    ///   and has no internally known wake-up time.
    ///
    /// Nothing but this core's own state enters the bound, and a core that
    /// is retrying against the hierarchy (blocked store, refused load or
    /// fetch) reports `now` — so between completions only the core's own
    /// tick can invalidate it, which is what lets the system keep it as
    /// the core's wake cycle.
    ///
    /// The bound is intentionally conservative: returning `now` when
    /// nothing would actually happen only costs a probe tick, while
    /// overshooting would change behaviour and is never allowed.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // Issue: an op on `issuable` can issue (or retry a blocked load)
        // from its ready time on. A parked op's producer is itself
        // waiting — on this list, or on a producer that is — or waiting
        // on memory, which the hierarchy's bound covers.
        self.next_event_given(now, self.issuable.iter().map(|&(_, ready_at)| ready_at))
    }

    /// [`Core::next_event_at`] over the operand times of the ops the issue
    /// stage could pick.
    #[inline]
    fn next_event_given(
        &self,
        now: Cycle,
        issue_ready: impl Iterator<Item = Cycle>,
    ) -> Option<Cycle> {
        let mut bound: Option<Cycle> = None;
        let mut fold = |t: Cycle| {
            bound = Some(bound.map_or(t, |b: Cycle| b.min(t)));
        };
        // Commit: a resolved head retires (or retries a blocked store)
        // this cycle; an executing head wakes commit when it finishes.
        // A non-head op finishing execution mutates nothing — it only
        // matters once it reaches the head (covered here) or as a
        // producer of a waiting op (covered below), so those done-times
        // need no bound of their own.
        if self.head_seq != self.next_seq {
            match self.rob[self.slot_of(self.head_seq)].resolved_at() {
                Some(at) if at <= now => return Some(now),
                Some(at) => fold(at),
                None => {}
            }
        }
        // Dispatch: open unless the front end is stalled or a structural
        // limit binds. A front-end stall has a known expiry; ROB/IQ/LQ/SQ
        // limits clear only at commit, which the other bounds cover.
        if !self.fetch_pending
            && self.halted_by_branch.is_none()
            && self.rob_len() < self.cfg.rob
            && self.iq_used < self.cfg.iq
        {
            if now < self.fetch_stall_until {
                fold(self.fetch_stall_until);
            } else {
                let staged_blocked = match &self.staged {
                    Some(op) => match op.kind {
                        OpKind::Load { .. } => self.loads_in_rob >= self.cfg.lq,
                        OpKind::Store { .. } => self.stores_in_rob >= self.cfg.sq,
                        _ => false,
                    },
                    None => false,
                };
                if !staged_blocked {
                    return Some(now);
                }
            }
        }
        for ready_at in issue_ready {
            if ready_at <= now {
                return Some(now);
            }
            fold(ready_at);
        }
        bound
    }

    fn commit(&mut self, now: Cycle, mem: &mut dyn CoreMemory) {
        let mut retired = 0;
        while retired < self.cfg.width && self.head_seq != self.next_seq {
            let head = &self.rob[self.slot_of(self.head_seq)];
            match head.resolved_at() {
                Some(at) if at <= now => {}
                _ => break,
            }
            debug_assert_eq!(head.consumers, NIL, "a resolved op has woken its consumers");
            // Stores write into the hierarchy at retirement; back-pressure
            // stalls commit in order.
            match head.kind {
                OpKind::Store { addr } => {
                    if !mem.store(self.id, addr, now) {
                        break;
                    }
                    self.stores_in_rob -= 1;
                }
                OpKind::Load { .. } => self.loads_in_rob -= 1,
                _ => {}
            }
            self.head_seq += 1;
            retired += 1;
            self.stats.committed += 1;
            let c = self.stats.committed;
            if self.window_measure.is_some() {
                if c == self.window_skip {
                    self.window_start = Some(now);
                }
                if Some(c) == self.window_measure.map(|m| m + self.window_skip) {
                    self.window_end = Some(now.max(self.window_start.unwrap_or(0) + 1));
                }
            }
        }
    }

    /// Select and issue: walk `issuable` in program order, oldest ready
    /// op first, until the width budget is spent. The ready set is fixed
    /// on entry — every result time raised inside the pass is for a later
    /// cycle — so the ops this pass wakes are appended behind the walked
    /// range and sorted into place afterwards.
    fn issue(&mut self, now: Cycle, mem: &mut dyn CoreMemory) {
        let listed = self.issuable.len();
        if listed == 0 {
            return;
        }
        let mut budget = self.cfg.width;
        let mut fu = [self.cfg.int_alu, self.cfg.int_mult, self.cfg.fp_alu, self.cfg.fp_mult];
        let (mut walked, mut kept) = (0, 0);
        while walked < listed && budget > 0 {
            let (seq, ready_at) = self.issuable[walked];
            if ready_at <= now && self.try_issue_one(seq, &mut fu, now, mem) {
                budget -= 1;
            } else {
                self.issuable[kept] = (seq, ready_at);
                kept += 1;
            }
            walked += 1;
        }
        self.issue_work.examined += walked as u64;
        let issued = walked - kept;
        if issued > 0 {
            self.issue_work.issued += issued as u64;
            self.iq_used -= issued;
            self.issuable.copy_within(walked.., kept);
            self.issuable.truncate(self.issuable.len() - issued);
            self.settle_woken(listed - issued);
        }
    }

    /// Attempt to issue waiting op `seq`, whose operands are ready;
    /// returns whether it left `Waiting`.
    fn try_issue_one(
        &mut self,
        seq: u64,
        fu: &mut [usize; 4],
        now: Cycle,
        mem: &mut dyn CoreMemory,
    ) -> bool {
        let slot = self.slot_of(seq);
        debug_assert_eq!(self.rob[slot].state, OpState::Waiting, "stale worklist entry");
        let kind = self.rob[slot].kind;
        // Functional-unit check (loads/stores use an IntALU for
        // address generation; branches use an IntALU).
        let fu_idx = match kind {
            OpKind::IntMult => 1,
            OpKind::FpAlu => 2,
            OpKind::FpMult => 3,
            _ => 0,
        };
        if fu[fu_idx] == 0 {
            return false;
        }
        let done_at = match kind {
            OpKind::Load { addr } => match mem.load(self.id, CoreToken::Load(seq), addr, now) {
                MemResponse::HitAt(at) => Some(at),
                MemResponse::Pending => None,
                // Structural stall: retry next cycle, keep IQ slot.
                MemResponse::Blocked => return false,
            },
            kind => {
                let done_at = now + kind.exec_latency();
                if let OpKind::Branch { mispredict: true } = kind {
                    // The redirect resolves when the branch executes;
                    // then the front-end refills.
                    if self.halted_by_branch == Some(seq) {
                        self.halted_by_branch = None;
                        self.fetch_stall_until =
                            self.fetch_stall_until.max(done_at + self.cfg.redirect_penalty);
                    }
                }
                Some(done_at)
            }
        };
        fu[fu_idx] -= 1;
        match done_at {
            Some(done_at) => {
                // What keeps the issue pass's ready set fixed on entry.
                assert!(done_at > now, "op {seq} issued at {now} with its result due at {done_at}");
                self.rob[slot].state = OpState::Executing { done_at };
                self.wake_consumers(slot, done_at);
            }
            // Its consumers stay parked until `finish` delivers the data.
            None => self.rob[slot].state = OpState::WaitingMem,
        }
        true
    }

    fn dispatch(&mut self, now: Cycle, mem: &mut dyn CoreMemory) {
        if self.fetch_pending || self.halted_by_branch.is_some() || now < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob_len() >= self.cfg.rob || self.iq_used >= self.cfg.iq {
                break;
            }
            let op = match self.staged.take() {
                Some(op) => op,
                None => {
                    self.fetched += 1;
                    self.stream.next_op()
                }
            };
            // Structural queue checks.
            let blocked = match op.kind {
                OpKind::Load { .. } => self.loads_in_rob >= self.cfg.lq,
                OpKind::Store { .. } => self.stores_in_rob >= self.cfg.sq,
                _ => false,
            };
            if blocked {
                self.staged = Some(op);
                break;
            }
            // Instruction fetch: crossing into a new line requires L1I.
            let linea = line_addr(op.pc);
            if self.fetch_line != Some(linea) {
                match mem.ifetch(self.id, CoreToken::Fetch, linea, now) {
                    MemResponse::HitAt(_) => self.fetch_line = Some(linea),
                    MemResponse::Pending => {
                        self.fetch_pending = true;
                        self.staged = Some(op);
                        break;
                    }
                    MemResponse::Blocked => {
                        self.staged = Some(op);
                        break;
                    }
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let dep_seq = if op.dep_dist > 0 && seq >= op.dep_dist as u64 {
                seq - op.dep_dist as u64
            } else {
                NO_DEP
            };
            match op.kind {
                OpKind::Load { .. } => self.loads_in_rob += 1,
                OpKind::Store { .. } => self.stores_in_rob += 1,
                OpKind::Branch { mispredict } if mispredict => self.halted_by_branch = Some(seq),
                _ => {}
            }
            let slot = self.slot_of(seq);
            self.rob[slot] = RobSlot {
                kind: op.kind,
                dep_seq,
                state: OpState::Waiting,
                consumers: NIL,
                next_consumer: NIL,
            };
            self.iq_used += 1;
            self.enter_waiting(seq);
            if self.halted_by_branch.is_some() {
                break; // cannot fetch past an unresolved mispredict
            }
        }
    }
}

/// The full-scan select that wake-up/select replaced, kept as its oracle:
/// every cycle it walks every op in flight, in program order, and judges
/// each waiting op by its producer's state as it stands — no chain, no
/// list, nothing remembered from an earlier cycle.
#[cfg(test)]
impl Core {
    /// The `Waiting` ops in program order.
    fn waiting_seqs(&self) -> Vec<u64> {
        (self.head_seq..self.next_seq)
            .filter(|&seq| self.rob[self.slot_of(seq)].state == OpState::Waiting)
            .collect()
    }

    /// [`Core::tick`] with the full-scan select in the issue stage.
    fn tick_full_scan(&mut self, now: Cycle, mem: &mut dyn CoreMemory) -> bool {
        let before = self.progress_marks();
        self.stats.cycles += 1;
        self.commit(now, mem);
        self.issue_full_scan(now, mem);
        self.dispatch(now, mem);
        before != self.progress_marks()
    }

    fn issue_full_scan(&mut self, now: Cycle, mem: &mut dyn CoreMemory) {
        let mut budget = self.cfg.width;
        let mut fu = [self.cfg.int_alu, self.cfg.int_mult, self.cfg.fp_alu, self.cfg.fp_mult];
        for seq in self.waiting_seqs() {
            if budget == 0 {
                break;
            }
            let ready = self.operands_known_at(seq).is_some_and(|at| at <= now);
            if ready && self.try_issue_one(seq, &mut fu, now, mem) {
                budget -= 1;
                self.iq_used -= 1;
            }
        }
        // Nothing above read the chains or the list; leave them as a
        // restore would, for `finish` and `dispatch` to extend.
        self.rebuild_wakeup();
    }

    /// [`Core::next_event_at`] from the ROB's op states alone.
    fn next_event_at_full_scan(&self, now: Cycle) -> Option<Cycle> {
        let ready = self.waiting_seqs().into_iter().filter_map(|seq| self.operands_known_at(seq));
        self.next_event_given(now, ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PerfectMemory;
    use melreq_trace::MicroOp;
    use proptest::prelude::*;

    /// A scripted instruction stream for deterministic pipeline tests.
    struct Script {
        ops: Vec<MicroOp>,
        i: usize,
    }

    impl Script {
        fn cyclic(ops: Vec<MicroOp>) -> Self {
            Script { ops, i: 0 }
        }
    }

    impl InstrStream for Script {
        fn next_op(&mut self) -> MicroOp {
            let op = self.ops[self.i % self.ops.len()];
            self.i += 1;
            op
        }

        fn label(&self) -> &str {
            "script"
        }

        fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
            let Self { ops: _, i } = self; // `ops`: the script, fixed at construction
            ar.usize(i)
        }
    }

    fn alu(pc: Addr) -> MicroOp {
        MicroOp { pc, kind: OpKind::IntAlu, dep_dist: 0 }
    }

    fn run(core: &mut Core, mem: &mut PerfectMemory, cycles: Cycle) {
        for now in 0..cycles {
            core.tick(now, mem);
        }
    }

    #[test]
    fn independent_alu_ops_reach_full_width() {
        let ops = (0..64).map(|i| alu(0x1000 + i * 4)).collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        let mut mem = PerfectMemory { latency: 3 };
        run(&mut core, &mut mem, 1000);
        let ipc = core.stats().ipc();
        assert!(ipc > 3.5, "independent ALU IPC should approach 4, got {ipc}");
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let ops = (0..64)
            .map(|i| MicroOp { pc: 0x1000 + i * 4, kind: OpKind::IntAlu, dep_dist: 1 })
            .collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        let mut mem = PerfectMemory { latency: 3 };
        run(&mut core, &mut mem, 2000);
        let ipc = core.stats().ipc();
        assert!(ipc < 1.2, "serial chain must bound IPC near 1, got {ipc}");
        assert!(ipc > 0.5, "chain should still make progress, got {ipc}");
    }

    #[test]
    fn loads_overlap_when_independent() {
        // All loads, no deps: MLP limited by LQ/width, not latency.
        let ops = (0..64)
            .map(|i| MicroOp {
                pc: 0x1000 + i * 4,
                kind: OpKind::Load { addr: 0x10_0000 + i * 64 },
                dep_dist: 0,
            })
            .collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        let mut mem = PerfectMemory { latency: 50 };
        run(&mut core, &mut mem, 4000);
        let ipc = core.stats().ipc();
        // Each load occupies an LQ entry from dispatch to in-order commit
        // (~latency cycles), so MLP saturates at LQ/latency = 32/50 = 0.64
        // loads per cycle. The model should get close to that bound —
        // vastly above the 1/50 = 0.02 of serialized loads.
        assert!(ipc > 0.55, "independent loads should overlap to ~0.64, got {ipc}");
        assert!(ipc < 0.70, "IPC cannot beat the LQ/latency bound, got {ipc}");
    }

    #[test]
    fn dependent_loads_serialize() {
        let ops = (0..64)
            .map(|i| MicroOp {
                pc: 0x1000 + i * 4,
                kind: OpKind::Load { addr: 0x10_0000 + i * 64 },
                dep_dist: 1,
            })
            .collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        let mut mem = PerfectMemory { latency: 50 };
        run(&mut core, &mut mem, 10_000);
        let ipc = core.stats().ipc();
        assert!(ipc < 0.05, "chained 50-cycle loads must crawl, got {ipc}");
    }

    #[test]
    fn ipc_responds_to_memory_latency() {
        let mk = || {
            let ops: Vec<MicroOp> = (0..64)
                .map(|i| {
                    if i % 4 == 0 {
                        MicroOp {
                            pc: 0x1000 + i * 4,
                            kind: OpKind::Load { addr: 0x10_0000 + i * 64 },
                            dep_dist: 0,
                        }
                    } else {
                        MicroOp { pc: 0x1000 + i * 4, kind: OpKind::IntAlu, dep_dist: 1 }
                    }
                })
                .collect();
            Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)))
        };
        let mut fast_core = mk();
        let mut slow_core = mk();
        run(&mut fast_core, &mut PerfectMemory { latency: 3 }, 5000);
        run(&mut slow_core, &mut PerfectMemory { latency: 300 }, 5000);
        assert!(
            fast_core.stats().ipc() > 1.5 * slow_core.stats().ipc(),
            "IPC must degrade with memory latency: fast {} vs slow {}",
            fast_core.stats().ipc(),
            slow_core.stats().ipc()
        );
    }

    #[test]
    fn mispredicts_cost_fetch_bubbles() {
        let mk = |mispredict| {
            let ops: Vec<MicroOp> = (0..64)
                .map(|i| {
                    if i % 8 == 0 {
                        MicroOp {
                            pc: 0x1000 + i * 4,
                            kind: OpKind::Branch { mispredict },
                            dep_dist: 0,
                        }
                    } else {
                        alu(0x1000 + i * 4)
                    }
                })
                .collect();
            Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)))
        };
        let mut good = mk(false);
        let mut bad = mk(true);
        run(&mut good, &mut PerfectMemory { latency: 3 }, 3000);
        run(&mut bad, &mut PerfectMemory { latency: 3 }, 3000);
        assert!(
            good.stats().ipc() > 1.5 * bad.stats().ipc(),
            "mispredicts must hurt: {} vs {}",
            good.stats().ipc(),
            bad.stats().ipc()
        );
    }

    #[test]
    fn stores_retire_through_memory() {
        let ops = (0..16)
            .map(|i| MicroOp {
                pc: 0x1000 + i * 4,
                kind: OpKind::Store { addr: 0x20_0000 + i * 64 },
                dep_dist: 0,
            })
            .collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        let mut mem = PerfectMemory { latency: 3 };
        run(&mut core, &mut mem, 500);
        assert!(core.committed() > 100);
    }

    #[test]
    fn target_cycle_recorded_once() {
        let ops = (0..16).map(|i| alu(0x1000 + i * 4)).collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        core.set_window(0, 100);
        let mut mem = PerfectMemory { latency: 3 };
        run(&mut core, &mut mem, 500);
        let at = core.target_cycle().expect("target should be hit");
        assert!(at < 200, "100 ops at ~IPC 4 should finish quickly, got {at}");
        let ipc = core.measured_ipc();
        assert!(ipc > 2.0);
        // Core keeps running past the target (reload-and-continue).
        assert!(core.committed() > 100);
    }

    #[test]
    fn measured_ipc_falls_back_to_running_ipc() {
        let ops = (0..16).map(|i| alu(0x1000 + i * 4)).collect();
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        core.set_window(0, 1_000_000);
        let mut mem = PerfectMemory { latency: 3 };
        run(&mut core, &mut mem, 100);
        assert!(core.target_cycle().is_none());
        assert!(core.measured_ipc() > 0.0);
    }

    #[test]
    #[should_panic(expected = "target must be positive")]
    fn zero_target_rejected() {
        let ops = vec![alu(0x1000)];
        let mut core = Core::new(CoreId(0), CoreConfig::paper(), Box::new(Script::cyclic(ops)));
        core.set_window(0, 0);
    }

    fn op(kind: OpKind, dep_dist: u16) -> MicroOp {
        MicroOp { pc: 0x1000, kind, dep_dist }
    }

    fn load(dep_dist: u16) -> MicroOp {
        op(OpKind::Load { addr: 0x10_0000 }, dep_dist)
    }

    fn scripted(cfg: CoreConfig, ops: Vec<MicroOp>) -> Core {
        Core::new(CoreId(0), cfg, Box::new(Script::cyclic(ops)))
    }

    /// A memory whose load answers a test chooses per (sequence number,
    /// cycle); fetches and stores always succeed. Keeps the load calls.
    struct LoadPlan<F: FnMut(u64, Cycle) -> MemResponse> {
        answer: F,
        calls: Vec<(Cycle, u64)>,
    }

    impl<F: FnMut(u64, Cycle) -> MemResponse> LoadPlan<F> {
        fn new(answer: F) -> Self {
            LoadPlan { answer, calls: Vec::new() }
        }
    }

    impl<F: FnMut(u64, Cycle) -> MemResponse> CoreMemory for LoadPlan<F> {
        fn load(&mut self, _: CoreId, token: CoreToken, _: Addr, now: Cycle) -> MemResponse {
            let CoreToken::Load(seq) = token else { panic!("load with a fetch token") };
            self.calls.push((now, seq));
            (self.answer)(seq, now)
        }

        fn ifetch(&mut self, _: CoreId, _: CoreToken, _: Addr, now: Cycle) -> MemResponse {
            MemResponse::HitAt(now + 1)
        }

        fn store(&mut self, _: CoreId, _: Addr, _: Cycle) -> bool {
            true
        }
    }

    /// Tick `core` through `cycles`, returning what issued in each.
    fn issued_per_cycle(
        core: &mut Core,
        mem: &mut dyn CoreMemory,
        cycles: std::ops::Range<Cycle>,
    ) -> Vec<Vec<u64>> {
        cycles
            .map(|now| {
                let before = core.waiting_seqs();
                core.tick(now, mem);
                let after = core.waiting_seqs();
                before.into_iter().filter(|seq| !after.contains(seq)).collect()
            })
            .collect()
    }

    #[test]
    fn oldest_ready_op_takes_the_one_fp_multiplier() {
        let mut ops = vec![op(OpKind::FpMult, 0); 3];
        ops.resize(64, alu(0x1000));
        let mut core = scripted(CoreConfig::paper(), ops);
        let issued = issued_per_cycle(&mut core, &mut PerfectMemory { latency: 3 }, 0..4);
        // Cycle 0 dispatches ops 0-3; all are ready from cycle 1 on, and
        // the single FpMult serves them one a cycle, oldest first, while
        // the ALU ops behind them go ahead.
        assert_eq!(issued[1], [0, 3]);
        assert_eq!(issued[2][0], 1);
        assert_eq!(issued[3][0], 2);
    }

    #[test]
    fn width_budget_stops_the_pass() {
        // A missing load, six direct consumers on five kinds of unit, then
        // a serial chain hanging off the last of them. Nothing but the
        // load's data can make any of it ready.
        let mut ops = vec![load(0)];
        let kinds = [
            OpKind::IntAlu,
            OpKind::IntAlu,
            OpKind::IntMult,
            OpKind::FpAlu,
            OpKind::FpMult,
            OpKind::IntAlu,
        ];
        ops.extend(kinds.iter().zip(1..).map(|(&kind, dist)| op(kind, dist)));
        ops.resize(64, op(OpKind::IntAlu, 1));
        let mut core = scripted(CoreConfig::paper(), ops);
        let mut mem = LoadPlan::new(|_, _| MemResponse::Pending);
        let before = issued_per_cycle(&mut core, &mut mem, 0..10);
        assert_eq!(before.concat(), [0], "only the load can issue");
        core.finish(CoreToken::Load(0), 10);
        let after = issued_per_cycle(&mut core, &mut mem, 10..12);
        assert_eq!(after[0], [1, 2, 3, 4], "six ready, four wide");
        assert_eq!(after[1], [5, 6], "the two the budget cut off");
    }

    #[test]
    fn blocked_load_keeps_its_slot_and_order() {
        let mut ops = vec![load(0), load(0)];
        ops.resize(64, alu(0x1000));
        let mut core = scripted(CoreConfig::paper(), ops);
        let mut mem = LoadPlan::new(|seq, now| {
            if seq == 0 && now < 4 {
                MemResponse::Blocked
            } else {
                MemResponse::HitAt(now + 3)
            }
        });
        let issued = issued_per_cycle(&mut core, &mut mem, 0..5);
        // The refused load is asked again first every cycle, costs no
        // issue slot while refused, and goes the cycle it is accepted.
        assert_eq!(mem.calls, [(1, 0), (1, 1), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(issued[1], [1, 2, 3], "the three ops behind it issue around it");
        assert_eq!(issued[2].len(), 4, "a refused load takes none of the width");
        assert_eq!(issued[4][0], 0);
    }

    #[test]
    fn load_consumer_issues_the_cycle_the_data_arrives() {
        let mut ops = vec![load(0), op(OpKind::IntAlu, 1)];
        ops.resize(64, op(OpKind::IntAlu, 1));
        let mut core = scripted(CoreConfig::paper(), ops);
        let mut mem = LoadPlan::new(|_, _| MemResponse::Pending);
        issued_per_cycle(&mut core, &mut mem, 0..20);
        assert!(core.issuable.is_empty(), "everything behind the load is parked");
        assert_eq!(core.next_event_at(20), None, "only memory can wake this core");
        core.finish(CoreToken::Load(0), 20);
        assert_eq!(core.next_event_at(20), Some(20));
        assert_eq!(issued_per_cycle(&mut core, &mut mem, 20..21), [[1]]);
    }

    #[test]
    fn chain_wakes_link_by_link() {
        // load <- FpAlu (2 cycles) <- IntMult (3 cycles) <- IntAlu <- ...
        let mut ops = vec![load(0), op(OpKind::FpAlu, 1), op(OpKind::IntMult, 1)];
        ops.resize(64, op(OpKind::IntAlu, 1));
        let mut core = scripted(CoreConfig::paper(), ops);
        let mut mem = LoadPlan::new(|_, _| MemResponse::Pending);
        issued_per_cycle(&mut core, &mut mem, 0..8);
        core.finish(CoreToken::Load(0), 8);
        // Each link enters the worklist when the one before issues, with
        // that op's result time, and is all the worklist ever holds.
        let mut link = (1, 8);
        for now in 8..15 {
            assert_eq!(core.issuable, [link], "before cycle {now}");
            let issued = issued_per_cycle(&mut core, &mut mem, now..now + 1).concat();
            if now == link.1 {
                assert_eq!(issued, [link.0]);
                let latency = [2, 3, 1, 1][link.0 as usize - 1];
                link = (link.0 + 1, now + latency);
            } else {
                assert!(issued.is_empty(), "cycle {now} issued {issued:?}");
            }
        }
        assert_eq!(link, (5, 15), "four links in seven cycles");
    }

    /// A memory that answers from a hash of the question, so two cores
    /// asking the same things in the same cycles get the same answers:
    /// hits of varying latency, misses that complete later, refusals.
    struct HashedMemory {
        salt: u64,
        /// Every call: loads and fetches with their answer, stores (which
        /// carry no token) as a fetch token with none.
        log: Vec<(Cycle, CoreToken, Addr, Option<MemResponse>)>,
        due: Vec<(Cycle, CoreToken)>,
    }

    impl HashedMemory {
        fn new(salt: u64) -> Self {
            HashedMemory { salt, log: Vec::new(), due: Vec::new() }
        }

        fn roll(&self, a: u64, b: u64) -> u64 {
            let mut z = self.salt ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn answer(&mut self, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
            let id = match token {
                CoreToken::Load(seq) => seq,
                CoreToken::Fetch => addr,
            };
            let roll = self.roll(id, now);
            let response = match roll % 16 {
                0 => MemResponse::Blocked,
                1..=3 => {
                    self.due.push((now + 1 + (roll >> 8) % 60, token));
                    MemResponse::Pending
                }
                _ => MemResponse::HitAt(now + 1 + (roll >> 8) % 5),
            };
            self.log.push((now, token, addr, Some(response)));
            response
        }

        /// Hand `core` the misses that complete at `now`, oldest first.
        fn deliver(&mut self, now: Cycle, core: &mut Core) {
            self.due.sort_by_key(|&(at, _)| at);
            let ready = self.due.partition_point(|&(at, _)| at <= now);
            for (_, token) in self.due.drain(..ready) {
                core.finish(token, now);
            }
        }
    }

    impl CoreMemory for HashedMemory {
        fn load(&mut self, _: CoreId, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
            self.answer(token, addr, now)
        }

        fn ifetch(&mut self, _: CoreId, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
            self.answer(token, addr, now)
        }

        fn store(&mut self, _: CoreId, addr: Addr, now: Cycle) -> bool {
            self.log.push((now, CoreToken::Fetch, addr, None));
            !self.roll(addr, now).is_multiple_of(4)
        }
    }

    fn state_bytes(core: &mut Core) -> Vec<u8> {
        melreq_snap::Enc::save(|enc| core.state(enc))
    }

    /// Run the wake-up/select core and the full-scan core side by side
    /// on `ops` for `cycles`: what issues, what memory is asked, whether
    /// the tick progressed and the next-event bound must agree every
    /// cycle. At each cycle in `pauses` the two must serialize to the same
    /// bytes, and the wake-up/select core continues as another core
    /// restored from them.
    fn lockstep(
        cfg: CoreConfig,
        ops: &[MicroOp],
        salt: u64,
        cycles: Cycle,
        pauses: &[Cycle],
    ) -> Result<u64, String> {
        let mut fast = scripted(cfg, ops.to_vec());
        let mut slow = scripted(cfg, ops.to_vec());
        let (mut fast_mem, mut slow_mem) = (HashedMemory::new(salt), HashedMemory::new(salt));
        for now in 0..cycles {
            fast_mem.deliver(now, &mut fast);
            slow_mem.deliver(now, &mut slow);
            let asked = fast_mem.log.len();
            let waiting = fast.waiting_seqs();
            prop_assert_eq!(&waiting, &slow.waiting_seqs(), "cycle {}: worklists differ", now);
            let progressed =
                (fast.tick(now, &mut fast_mem), slow.tick_full_scan(now, &mut slow_mem));
            prop_assert_eq!(progressed.0, progressed.1, "cycle {}: progress differs", now);
            let left = |core: &Core| -> Vec<u64> {
                let after = core.waiting_seqs();
                waiting.iter().copied().filter(|seq| !after.contains(seq)).collect()
            };
            prop_assert_eq!(left(&fast), left(&slow), "cycle {}: issued ops differ", now);
            prop_assert_eq!(
                &fast_mem.log[asked..],
                &slow_mem.log[asked..],
                "cycle {}: memory was asked different things",
                now
            );
            let bound = fast.next_event_at(now + 1);
            prop_assert_eq!(bound, fast.next_event_at_full_scan(now + 1), "cycle {}", now);
            prop_assert_eq!(bound, slow.next_event_at_full_scan(now + 1), "cycle {}", now);
            if pauses.contains(&now) {
                let bytes = state_bytes(&mut fast);
                prop_assert!(bytes == state_bytes(&mut slow), "cycle {}: states differ", now);
                // Restore over a core with a past of its own: none of
                // its chains or list entries may survive the load.
                let mut resumed = scripted(cfg, ops.to_vec());
                issued_per_cycle(&mut resumed, &mut PerfectMemory { latency: 9 }, 0..40);
                resumed
                    .state(&mut melreq_snap::Dec::new(&bytes))
                    .map_err(|e| format!("cycle {now}: the core refuses its own state: {e:?}"))?;
                fast = resumed;
            }
        }
        prop_assert!(state_bytes(&mut fast) == state_bytes(&mut slow), "final states differ");
        prop_assert_eq!(fast.committed(), slow.committed());
        Ok(fast.committed())
    }

    /// A cramped core: every structural limit binds within a few ops, and
    /// the 8-slot ring wraps every other cycle.
    fn cramped() -> CoreConfig {
        CoreConfig { rob: 7, iq: 5, lq: 2, sq: 2, ..CoreConfig::paper() }
    }

    fn arb_ops() -> impl Strategy<Value = Vec<MicroOp>> {
        let one = (0u8..16, 0u8..8, 0u16..=64, any::<u16>()).prop_map(|(pick, near, far, r)| {
            // Mostly close producers, so ops park and wake in clusters;
            // the full range, so some producers have long retired.
            let dep_dist = if near < 5 { 1 + u16::from(near) % 3 } else { far };
            let addr = 0x10_0000 + u64::from(r) * 8;
            let kind = match pick {
                0..=3 => OpKind::IntAlu,
                4 => OpKind::IntMult,
                5 | 6 => OpKind::FpAlu,
                7 => OpKind::FpMult,
                8 | 9 => OpKind::Branch { mispredict: pick == 9 && r % 3 == 0 },
                10..=13 => OpKind::Load { addr },
                _ => OpKind::Store { addr },
            };
            // Short runs of pcs, so fetch crosses lines at random.
            MicroOp { pc: 0x4000 + u64::from(r % 64) * 16, kind, dep_dist }
        });
        collection::vec(one, 4..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wakeup_select_matches_the_full_scan(
            ops in arb_ops(),
            salt in any::<u64>(),
            cramped_core in any::<bool>(),
            pauses in collection::vec(0u64..700, 0..4),
        ) {
            let cfg = if cramped_core { cramped() } else { CoreConfig::paper() };
            lockstep(cfg, &ops, salt, 700, &pauses)?;
        }
    }

    #[test]
    fn rob_wraps_around_the_ring() {
        let ops: Vec<MicroOp> = (0..23u16)
            .map(|i| match i % 5 {
                0 => load(i % 3),
                1 => op(OpKind::Store { addr: 0x20_0000 }, 1),
                2 => op(OpKind::FpMult, 2),
                _ => op(OpKind::IntAlu, i % 4),
            })
            .collect();
        let cfg = cramped();
        assert_eq!(scripted(cfg, ops.clone()).rob.len(), 8);
        let committed = lockstep(cfg, &ops, 17, 4_000, &[5, 1_000, 3_999]).unwrap();
        assert!(committed > 100 * 8, "{committed} ops is not many laps of the ring");
    }

    #[test]
    #[should_panic(expected = "with its result due at")]
    fn zero_latency_hit_is_refused() {
        let mut core = scripted(CoreConfig::paper(), vec![load(0)]);
        issued_per_cycle(&mut core, &mut PerfectMemory { latency: 0 }, 0..2);
    }
}
