//! A logical DRAM channel: independent banks sharing one data bus, and
//! the per-bank row-buffer model.

// A01 (DESIGN.md "Determinism rules"): cycle horizons are computed
// here, where a silent wrap corrupts timing instead of crashing; use the
// checked helpers (`cyc_add`, `cyc_mul`).
#![deny(clippy::arithmetic_side_effects)]

use crate::timing::DramTiming;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{cyc_add, AccessKind, Cycle};

/// Sentinel value of a bank's open-row latch meaning "all rows closed".
///
/// Row indices come from the address mapping and are bounded by the
/// geometry's rows-per-bank, so `u64::MAX` can never collide with a real
/// row.
pub const NO_OPEN_ROW: u64 = u64::MAX;

/// How a granted transaction found the bank — determines its latency class
/// and is the signal the Hit-First policy ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The addressed row was already open: column access only.
    Hit,
    /// The bank was closed: activate, then column access.
    ClosedMiss,
    /// Another row was open: precharge, activate, then column access.
    Conflict,
}

impl From<RowOutcome> for melreq_audit::GrantOutcome {
    /// The audit stream carries outcomes as plain data so the checker
    /// stays decoupled from this crate's types.
    fn from(o: RowOutcome) -> Self {
        match o {
            RowOutcome::Hit => melreq_audit::GrantOutcome::Hit,
            RowOutcome::ClosedMiss => melreq_audit::GrantOutcome::ClosedMiss,
            RowOutcome::Conflict => melreq_audit::GrantOutcome::Conflict,
        }
    }
}

/// One logical channel: `n` banks plus a shared 16-byte data bus.
///
/// Transactions from different banks pipeline on the bus: a burst occupies
/// the bus for `timing.burst` cycles starting no earlier than the bank's
/// data-ready cycle and no earlier than the bus becoming free.
///
/// Each bank is an open-row latch plus a ready horizon before which no new
/// command sequence may start, held struct-of-arrays (`open_row` +
/// `bank_ready`) so the controller's candidate scans and ready-horizon
/// folds walk dense slices. Time advances only when a transaction is
/// granted, a refresh falls due or a row is precharged: a bank needs no
/// per-cycle tick, which keeps the model O(transactions), not O(cycles).
#[derive(Debug, Clone)]
pub struct Channel {
    /// Per-bank open-row latch ([`NO_OPEN_ROW`] when closed).
    open_row: Vec<u64>,
    /// Per-bank earliest cycle the next command sequence may start.
    bank_ready: Vec<Cycle>,
    /// First cycle at which the data bus is free.
    bus_free: Cycle,
    /// Total cycles the data bus has been occupied (for utilization).
    bus_busy_cycles: Cycle,
    /// Next scheduled all-bank refresh (when refresh is enabled).
    next_refresh: Cycle,
    /// Refreshes performed.
    refreshes: u64,
    /// Recent ACT start times (ring of 4) for the tRRD/tFAW windows.
    recent_acts: [Cycle; 4],
    act_head: usize,
    /// Total ACTs recorded (the windows only bind once enough history
    /// exists).
    acts_seen: u64,
}

/// Completed service computation for one granted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelGrant {
    /// Cycle at which the last data beat has transferred: the request's
    /// data is available to the cache hierarchy at this point.
    pub data_ready: Cycle,
    /// How the row buffer was found.
    pub outcome: RowOutcome,
    /// Effective cycle the command sequence started: the requested cycle,
    /// possibly pushed back by the tRRD/tFAW activate windows.
    pub granted_at: Cycle,
}

impl Channel {
    /// A channel with `banks` closed banks and a free bus.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "channel needs at least one bank");
        Channel {
            open_row: vec![NO_OPEN_ROW; banks],
            bank_ready: vec![0; banks],
            bus_free: 0,
            bus_busy_cycles: 0,
            next_refresh: 0,
            refreshes: 0,
            recent_acts: [0; 4],
            act_head: 0,
            acts_seen: 0,
        }
    }

    /// Catch up any refreshes that have come due by `now` (no-op when
    /// `t.t_refi == 0`). Call before issuing or probing availability.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`refreshes` is an event counter, not a deadline"
    )]
    pub fn sync_refresh(&mut self, now: Cycle, t: &DramTiming) {
        if t.t_refi == 0 {
            return;
        }
        if self.next_refresh == 0 {
            self.next_refresh = t.t_refi;
        }
        while self.next_refresh <= now {
            // Every row closes and every bank is unavailable for tRFC,
            // stacked on any work it was still finishing.
            self.open_row.fill(NO_OPEN_ROW);
            for ready in &mut self.bank_ready {
                *ready = cyc_add((*ready).max(self.next_refresh), t.t_rfc);
            }
            self.refreshes += 1;
            self.next_refresh = cyc_add(self.next_refresh, t.t_refi);
        }
    }

    /// Number of all-bank refreshes performed.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// The next all-bank refresh boundary, or `None` when refresh is
    /// disabled. Lazy catch-up means the boundary may already be in the
    /// past relative to the caller's clock until [`Channel::sync_refresh`]
    /// runs; callers treating this as an event horizon must clamp to
    /// their own `now`.
    pub fn next_refresh_at(&self, t: &DramTiming) -> Option<Cycle> {
        if t.t_refi == 0 {
            return None;
        }
        Some(if self.next_refresh == 0 { t.t_refi } else { self.next_refresh })
    }

    /// Earliest cycle a new ACT may start, per the tRRD/tFAW windows.
    fn act_allowed_at(&self, t: &DramTiming) -> Cycle {
        let mut at = 0;
        if t.t_rrd > 0 && self.acts_seen >= 1 {
            #[expect(clippy::arithmetic_side_effects, reason = "ring index, bounded by the modulo")]
            let last = self.recent_acts[(self.act_head + 3) % 4];
            at = at.max(cyc_add(last, t.t_rrd));
        }
        if t.t_faw > 0 && self.acts_seen >= 4 {
            // Four ACTs within t_faw: the oldest of the ring gates the
            // fifth.
            let oldest = self.recent_acts[self.act_head];
            at = at.max(cyc_add(oldest, t.t_faw));
        }
        at
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`act_head` is a ring index, bounded by the modulo; `acts_seen` is an event counter, not a deadline"
    )]
    fn note_act(&mut self, at: Cycle) {
        self.recent_acts[self.act_head] = at;
        self.act_head = (self.act_head + 1) % 4;
        self.acts_seen += 1;
    }

    /// Whether a request for (`bank`, `row`) would be a row-buffer hit
    /// right now.
    pub fn is_row_hit(&self, bank: usize, row: u64) -> bool {
        self.open_row[bank] == row && row != NO_OPEN_ROW
    }

    /// Earliest cycle `bank` may start a new command sequence.
    pub fn bank_ready_at(&self, bank: usize) -> Cycle {
        self.bank_ready[bank]
    }

    /// The per-bank ready horizons as a dense slice (index = bank). The
    /// controller's candidate scans fold over this directly rather than
    /// probing banks one at a time.
    pub fn bank_ready_slice(&self) -> &[Cycle] {
        &self.bank_ready
    }

    /// Whether a transaction to `bank` could be granted at `now`.
    ///
    /// Requires the bank ready for a new command sequence. The bus may
    /// still be busy — bursts queue behind it (pipelining), bounded
    /// because the controller grants at most one transaction per bank
    /// command-cycle.
    pub fn can_issue(&self, bank: usize, now: Cycle) -> bool {
        self.bank_ready[bank] <= now
    }

    /// Grant a transaction to (`bank`, `row`) at `now`; the bank must be
    /// ready ([`Channel::can_issue`], asserted in debug builds).
    ///
    /// `keep_open` is the scheduler's close-page decision: `true` leaves
    /// the row latched for a potential follow-up hit, `false` issues
    /// auto-precharge so the bank closes.
    pub fn issue(
        &mut self,
        bank: usize,
        row: u64,
        kind: AccessKind,
        now: Cycle,
        keep_open: bool,
        t: &DramTiming,
    ) -> ChannelGrant {
        self.sync_refresh(now, t);
        let open = self.open_row[bank];
        let (to_data, outcome) = if open == NO_OPEN_ROW {
            (t.idle_to_data(), RowOutcome::ClosedMiss)
        } else if open == row {
            (t.hit_to_data(), RowOutcome::Hit)
        } else {
            (t.conflict_to_data(), RowOutcome::Conflict)
        };
        // A transaction that needs an ACT (no open-row hit) must honour
        // the channel's activate-spacing windows; the ACT begins after any
        // precharge a conflict implies.
        let grant_at = match outcome {
            RowOutcome::Hit => now,
            _ => now.max(self.act_allowed_at(t)),
        };
        match outcome {
            RowOutcome::Hit => {}
            RowOutcome::ClosedMiss => self.note_act(grant_at),
            RowOutcome::Conflict => self.note_act(cyc_add(grant_at, t.t_rp)),
        }
        let ready = &mut self.bank_ready[bank];
        debug_assert!(*ready <= grant_at, "bank busy until {ready} at {grant_at}");
        let data_start = cyc_add(grant_at, to_data);
        if keep_open {
            self.open_row[bank] = row;
            // The next column access to the open row may pipeline right
            // behind this one's data transfer.
            *ready = data_start;
        } else {
            self.open_row[bank] = NO_OPEN_ROW;
            // Auto-precharge: tRP after the access completes (plus write
            // recovery for writes). The next ACT must wait it out.
            let recovery = if kind.is_write() { t.t_wr } else { 0 };
            *ready = cyc_add(cyc_add(data_start, t.burst), cyc_add(recovery, t.t_rp));
        }
        let bus_start = data_start.max(self.bus_free);
        self.bus_free = cyc_add(bus_start, t.burst);
        self.bus_busy_cycles = cyc_add(self.bus_busy_cycles, t.burst);
        ChannelGrant { data_ready: self.bus_free, outcome, granted_at: grant_at }
    }

    /// Walk bank latches, bus occupancy, refresh and ACT-window tracking
    /// ([`Archive`]); a load needs the same bank count. Each bank is a
    /// tagged open row (0 closed, 1 then the row), then its ready horizon.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self {
            open_row,
            bank_ready,
            bus_free,
            bus_busy_cycles,
            next_refresh,
            refreshes,
            recent_acts,
            act_head,
            acts_seen,
        } = self;
        ar.len(open_row.len(), SnapError::Invalid("bank count mismatch"))?;
        for (row, ready) in open_row.iter_mut().zip(bank_ready) {
            let mut open = u8::from(*row != NO_OPEN_ROW);
            ar.u8(&mut open)?;
            match open {
                0 => *row = NO_OPEN_ROW,
                1 => ar.u64(row)?,
                t => return Err(SnapError::BadTag(t)),
            }
            ar.u64(ready)?;
        }
        for c in [bus_free, bus_busy_cycles, next_refresh, refreshes] {
            ar.u64(c)?;
        }
        recent_acts.iter_mut().try_for_each(|a| ar.u64(a))?;
        ar.usize(act_head)?;
        ar.ensure(*act_head < 4, SnapError::Invalid("ACT ring head out of range"))?;
        ar.u64(acts_seen)
    }

    /// Explicitly close `bank`'s row, if one is open (the controller's
    /// close-page sweep when the last queued same-row request drains).
    pub fn precharge(&mut self, bank: usize, now: Cycle, t: &DramTiming) {
        if self.open_row[bank] != NO_OPEN_ROW {
            self.open_row[bank] = NO_OPEN_ROW;
            self.bank_ready[bank] = cyc_add(self.bank_ready[bank].max(now), t.t_rp);
        }
    }

    /// Cycle at which the data bus next becomes free.
    pub fn bus_free_at(&self) -> Cycle {
        self.bus_free
    }

    /// Total data-bus busy cycles so far (numerator of bus utilization).
    pub fn bus_busy_cycles(&self) -> Cycle {
        self.bus_busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr2_800_at_3_2ghz()
    }

    #[test]
    fn single_read_latency() {
        let mut ch = Channel::new(8);
        let g = ch.issue(0, 5, AccessKind::Read, 0, false, &t());
        assert_eq!(g.outcome, RowOutcome::ClosedMiss);
        // tRCD + tCL + burst.
        assert_eq!(g.data_ready, 40 + 40 + 16);
    }

    #[test]
    fn different_banks_pipeline_on_bus() {
        let mut ch = Channel::new(8);
        let g0 = ch.issue(0, 5, AccessKind::Read, 0, false, &t());
        // Second bank granted 1 cycle later: its bank latency overlaps the
        // first's; the bus serializes only the 16-cycle bursts.
        let g1 = ch.issue(1, 5, AccessKind::Read, 1, false, &t());
        assert_eq!(g0.data_ready, 96);
        // Bank 1's data is ready at 1+80 = 81 but the bus is busy with
        // bank 0's burst until 96, so its burst runs 96..112: the 80-cycle
        // bank latencies fully overlap, only the bursts serialize.
        assert_eq!(g1.data_ready, 112);
    }

    #[test]
    fn bus_contention_serializes_bursts() {
        let mut ch = Channel::new(8);
        let mut grants = Vec::new();
        for b in 0..4 {
            grants.push(ch.issue(b, 0, AccessKind::Read, 0, false, &t()));
        }
        // All four banks start ACT at 0 and want the bus at cycle 80; the
        // bus serializes them 16 cycles apart.
        let readies: Vec<Cycle> = grants.iter().map(|g| g.data_ready).collect();
        assert_eq!(readies, vec![96, 112, 128, 144]);
        assert_eq!(ch.bus_busy_cycles(), 64);
    }

    #[test]
    fn same_bank_back_to_back_respects_precharge() {
        let mut ch = Channel::new(8);
        let g0 = ch.issue(0, 1, AccessKind::Read, 0, false, &t());
        assert!(!ch.can_issue(0, g0.data_ready));
        let ready = g0.data_ready + 40; // + tRP
        assert!(ch.can_issue(0, ready));
        let g1 = ch.issue(0, 2, AccessKind::Read, ready, false, &t());
        assert_eq!(g1.outcome, RowOutcome::ClosedMiss);
    }

    #[test]
    fn row_hit_via_keep_open() {
        let mut ch = Channel::new(8);
        let g0 = ch.issue(0, 1, AccessKind::Read, 0, true, &t());
        assert!(ch.is_row_hit(0, 1));
        let start = 80; // bank ready at data_start = 80
        let g1 = ch.issue(0, 1, AccessKind::Read, start, false, &t());
        assert_eq!(g1.outcome, RowOutcome::Hit);
        // Hit: tCL from grant (80+40 = 120), then the 16-cycle burst; the
        // bus freed at 96 so the hit's own CAS latency dominates.
        assert_eq!(g0.data_ready, 96);
        assert_eq!(g1.data_ready, 136);
    }

    #[test]
    fn conflict_pays_precharge_activate_and_cas() {
        let mut ch = Channel::new(1);
        ch.issue(0, 7, AccessKind::Read, 0, true, &t());
        let start = ch.bank_ready_at(0); // the open row's data start, 80
        let g = ch.issue(0, 9, AccessKind::Read, start, false, &t());
        assert_eq!(g.outcome, RowOutcome::Conflict);
        assert_eq!(g.data_ready, start + 40 + 40 + 40 + 16); // tRP + tRCD + tCL + burst
    }

    #[test]
    fn auto_precharge_and_write_recovery_set_the_next_activate() {
        for (kind, recovery) in [(AccessKind::Read, 0), (AccessKind::Write, 48)] {
            let mut ch = Channel::new(1);
            let g = ch.issue(0, 3, kind, 0, false, &t());
            assert!(!ch.is_row_hit(0, 3), "{kind:?}: auto-precharge closes the row");
            // The burst ends at data_ready; the next ACT waits tWR
            // (writes only), then tRP.
            assert_eq!(ch.bank_ready_at(0), g.data_ready + recovery + 40, "{kind:?}");
        }
    }

    #[test]
    fn explicit_precharge_closes_an_open_row_and_skips_a_closed_bank() {
        let mut ch = Channel::new(2);
        ch.issue(0, 3, AccessKind::Read, 0, true, &t());
        let open_at = ch.bank_ready_at(0);
        ch.precharge(0, open_at, &t());
        assert!(!ch.is_row_hit(0, 3));
        assert!(!ch.can_issue(0, open_at + 39));
        assert!(ch.can_issue(0, open_at + 40)); // + tRP
        let g = ch.issue(0, 3, AccessKind::Read, open_at + 40, false, &t());
        assert_eq!(g.outcome, RowOutcome::ClosedMiss);
        ch.precharge(1, 100, &t());
        assert!(ch.can_issue(1, 0), "a closed bank has nothing to precharge");
    }

    #[test]
    fn the_closed_sentinel_never_hits() {
        // Even a (physically impossible) request for the sentinel row
        // index must not read as a hit on a closed bank.
        assert!(!Channel::new(1).is_row_hit(0, NO_OPEN_ROW));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = Channel::new(0);
    }

    #[test]
    fn refresh_blocks_banks_and_closes_rows() {
        let t = DramTiming::ddr2_800_at_3_2ghz().with_refresh();
        let mut ch = Channel::new(8);
        // Open a row before the first refresh boundary.
        ch.issue(0, 3, AccessKind::Read, 0, true, &t);
        assert!(ch.is_row_hit(0, 3));
        // Jump past the refresh boundary.
        ch.sync_refresh(t.t_refi + 1, &t);
        assert_eq!(ch.refresh_count(), 1);
        assert!(!ch.is_row_hit(0, 3), "refresh must close rows");
        // Banks are blocked for tRFC after the refresh started.
        assert!(!ch.can_issue(1, t.t_refi + 1));
        assert!(ch.can_issue(1, t.t_refi + t.t_rfc));
    }

    #[test]
    fn refresh_disabled_by_default() {
        let t = DramTiming::ddr2_800_at_3_2ghz();
        let mut ch = Channel::new(8);
        ch.sync_refresh(1_000_000, &t);
        assert_eq!(ch.refresh_count(), 0);
    }

    #[test]
    fn multiple_missed_refreshes_catch_up() {
        let t = DramTiming::ddr2_800_at_3_2ghz().with_refresh();
        let mut ch = Channel::new(8);
        ch.sync_refresh(3 * t.t_refi + 5, &t);
        assert_eq!(ch.refresh_count(), 3);
    }

    #[test]
    fn trrd_spaces_back_to_back_activates() {
        let t = DramTiming::ddr2_800_at_3_2ghz().with_activation_windows();
        let mut ch = Channel::new(8);
        let g0 = ch.issue(0, 0, AccessKind::Read, 0, false, &t);
        // Bank 1 granted the same cycle: its ACT must wait tRRD, shifting
        // data by tRRD relative to an unconstrained issue.
        let g1 = ch.issue(1, 0, AccessKind::Read, 0, false, &t);
        assert_eq!(g0.data_ready, 96);
        // Unconstrained this would be bus-serialized to 112; with
        // tRRD = 24 the second ACT starts at 24, its data starts at
        // 24+80 = 104 (past the bus-free point 96) and finishes at 120.
        assert_eq!(g1.data_ready, 120);
        // But a third and beyond keep spacing: issue to 4 more banks and
        // confirm ACTs are at least tRRD apart via data times.
        let g2 = ch.issue(2, 0, AccessKind::Read, 0, false, &t);
        let g3 = ch.issue(3, 0, AccessKind::Read, 0, false, &t);
        assert!(g3.data_ready >= g2.data_ready + t.burst);
    }

    #[test]
    fn tfaw_limits_activation_burst() {
        let mut t = DramTiming::ddr2_800_at_3_2ghz().with_activation_windows();
        // Exaggerate the window so it clearly dominates the bus.
        t.t_faw = 1000;
        let mut ch = Channel::new(8);
        let mut last_ready = 0;
        for b in 0..5 {
            let g = ch.issue(b, 0, AccessKind::Read, 0, false, &t);
            last_ready = g.data_ready;
        }
        // The fifth ACT waits for the four-activate window: its data
        // cannot be ready before t_faw + tRCD + tCL.
        assert!(last_ready >= 1000 + 80, "fifth activate ignored tFAW: ready at {last_ready}");
    }

    #[test]
    fn row_hits_bypass_activation_windows() {
        let mut t = DramTiming::ddr2_800_at_3_2ghz().with_activation_windows();
        t.t_faw = 10_000;
        let mut ch = Channel::new(8);
        let g0 = ch.issue(0, 7, AccessKind::Read, 0, true, &t);
        // A row hit needs no ACT, so the huge tFAW must not delay it.
        let g1 = ch.issue(0, 7, AccessKind::Read, g0.data_ready, false, &t);
        assert_eq!(g1.outcome, RowOutcome::Hit);
        assert!(g1.data_ready <= g0.data_ready + t.t_cl + 2 * t.burst);
    }

    #[test]
    fn snapshot_round_trips_soa_bank_state() {
        let t = DramTiming::ddr2_800_at_3_2ghz();
        let mut ch = Channel::new(4);
        ch.issue(0, 9, AccessKind::Read, 0, true, &t);
        ch.issue(2, 3, AccessKind::Write, 5, false, &t);
        let bytes = melreq_snap::Enc::save(|enc| ch.state(enc));
        let mut restored = Channel::new(4);
        let mut dec = melreq_snap::Dec::new(&bytes);
        restored.state(&mut dec).expect("round trip");
        assert!(dec.is_exhausted());
        assert!(restored.is_row_hit(0, 9));
        assert!(!restored.is_row_hit(2, 3));
        assert_eq!(restored.bank_ready_slice(), ch.bank_ready_slice());
        assert_eq!(restored.bus_free_at(), ch.bus_free_at());
    }
}
