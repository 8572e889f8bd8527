//! A logical DRAM channel: independent banks sharing one data bus, and
//! the per-bank row-buffer model.

// A01 (DESIGN.md "Determinism rules"): cycle horizons are computed
// here, where a silent wrap corrupts timing instead of crashing; use
// the checked `cyc_add`.
#![deny(clippy::arithmetic_side_effects)]

use crate::timing::DramTiming;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{cyc_add, AccessKind, Cycle, RowOutcome};

/// Sentinel value of a bank's open-row latch meaning "all rows closed".
///
/// Row indices come from the address mapping and are bounded by the
/// geometry's rows-per-bank, so `u64::MAX` can never collide with a real
/// row.
pub const NO_OPEN_ROW: u64 = u64::MAX;

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
/// granted: a bank needs no per-cycle tick, which keeps the model
/// O(transactions), not O(cycles).
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
}

/// Completed service computation for one granted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelGrant {
    /// Cycle at which the last data beat has transferred: the request's
    /// data is available to the cache hierarchy at this point.
    pub data_ready: Cycle,
    /// How the row buffer was found.
    pub outcome: RowOutcome,
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
        }
    }

    /// Whether a request for (`bank`, `row`) would be a row-buffer hit
    /// right now.
    pub fn is_row_hit(&self, bank: usize, row: u64) -> bool {
        self.open_row[bank] == row && row != NO_OPEN_ROW
    }

    /// The per-bank earliest cycles to start a new command sequence, as a
    /// dense slice (index = bank). The controller's candidate scans fold
    /// over this directly rather than probing banks one at a time.
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
        let open = self.open_row[bank];
        let (to_data, outcome) = if open == NO_OPEN_ROW {
            (t.idle_to_data(), RowOutcome::ClosedMiss)
        } else if open == row {
            (t.hit_to_data(), RowOutcome::Hit)
        } else {
            (t.conflict_to_data(), RowOutcome::Conflict)
        };
        let ready = &mut self.bank_ready[bank];
        debug_assert!(*ready <= now, "bank busy until {ready} at {now}");
        let data_start = cyc_add(now, to_data);
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
        ChannelGrant { data_ready: self.bus_free, outcome }
    }

    /// Walk bank latches and bus occupancy ([`Archive`]); a load needs the same bank count. Each bank is a
    /// tagged open row (0 closed, 1 then the row), then its ready horizon.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { open_row, bank_ready, bus_free, bus_busy_cycles } = self;
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
        ar.u64(bus_free)?;
        ar.u64(bus_busy_cycles)
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
        let start = ch.bank_ready_slice()[0]; // the open row's data start, 80
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
            assert_eq!(ch.bank_ready_slice()[0], g.data_ready + recovery + 40, "{kind:?}");
        }
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
        assert_eq!(melreq_snap::Enc::save(|enc| restored.state(enc)), bytes);
    }
}
