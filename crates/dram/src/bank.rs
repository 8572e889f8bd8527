//! Per-bank row-buffer state machine.
//!
//! The bank model is expressed twice over one set of scalar transition
//! functions: [`Bank`] packages an `(open_row, ready_at)` pair for
//! unit-level reasoning, while [`crate::channel::Channel`] holds the same
//! scalars in struct-of-arrays form (`Vec<u64>` + `Vec<Cycle>`) so the
//! controller's hot candidate scans walk dense, cache-friendly slices.
//! Both views delegate every transition to the `scalar_*` functions below,
//! so they cannot diverge.

// A01 (DESIGN.md "Determinism rules"): cycle horizons are computed
// here, where a silent wrap corrupts timing instead of crashing; use the
// checked helpers (`cyc_add`, `cyc_mul`).
#![deny(clippy::arithmetic_side_effects)]

use crate::timing::DramTiming;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{cyc_add, AccessKind, Cycle};

/// Sentinel value of the `open_row` scalar meaning "all rows closed".
///
/// Row indices come from the address mapping and are bounded by the
/// geometry's rows-per-bank, so `u64::MAX` can never collide with a real
/// row.
pub const NO_OPEN_ROW: u64 = u64::MAX;

/// The observable state of a DRAM bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; an ACT may start once `ready_at` passes.
    Closed,
    /// `row` is latched in the row buffer; column accesses may issue.
    Open { row: u64 },
}

/// One DRAM bank: an open-row latch plus a `ready_at` horizon before which
/// no new command sequence may start.
///
/// Time is advanced only by [`Bank::service`]; the bank never needs a
/// per-cycle tick, which keeps the DRAM model O(transactions) rather than
/// O(cycles).
#[derive(Debug, Clone)]
pub struct Bank {
    /// Open-row latch: a row index, or [`NO_OPEN_ROW`] when closed.
    open_row: u64,
    /// Earliest cycle at which the next command sequence may start.
    ready_at: Cycle,
}

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

/// Whether a request for `row` finds it latched.
#[inline]
pub(crate) fn scalar_is_row_hit(open_row: u64, row: u64) -> bool {
    open_row == row && open_row != NO_OPEN_ROW
}

/// Service one transaction for `row` granted at `now` against the scalar
/// pair; returns the bank-side data-start cycle and the row outcome. See
/// [`Bank::service`] for the timing contract.
#[inline]
pub(crate) fn scalar_service(
    open_row: &mut u64,
    ready_at: &mut Cycle,
    row: u64,
    kind: AccessKind,
    now: Cycle,
    keep_open: bool,
    t: &DramTiming,
) -> (Cycle, RowOutcome) {
    let cur = *open_row;
    debug_assert!(*ready_at <= now, "bank busy until {ready_at} at {now}");
    let (data_start, outcome) = if cur == NO_OPEN_ROW {
        (cyc_add(now, t.idle_to_data()), RowOutcome::ClosedMiss)
    } else if cur == row {
        (cyc_add(now, t.hit_to_data()), RowOutcome::Hit)
    } else {
        (cyc_add(now, t.conflict_to_data()), RowOutcome::Conflict)
    };
    let data_end = cyc_add(data_start, t.burst);
    if keep_open {
        *open_row = row;
        // The next column access to the open row may pipeline right
        // behind this one's data transfer.
        *ready_at = data_start;
    } else {
        *open_row = NO_OPEN_ROW;
        // Auto-precharge: tRP after the access completes (plus write
        // recovery for writes). The next ACT must wait it out.
        let recovery = if kind.is_write() { t.t_wr } else { 0 };
        *ready_at = cyc_add(data_end, cyc_add(recovery, t.t_rp));
    }
    (data_start, outcome)
}

/// Apply an all-bank refresh that started at `at` to the scalar pair.
#[inline]
pub(crate) fn scalar_refresh(open_row: &mut u64, ready_at: &mut Cycle, at: Cycle, t_rfc: Cycle) {
    *open_row = NO_OPEN_ROW;
    *ready_at = cyc_add((*ready_at).max(at), t_rfc);
}

/// Explicitly close the row if one is open.
#[inline]
pub(crate) fn scalar_precharge(
    open_row: &mut u64,
    ready_at: &mut Cycle,
    now: Cycle,
    t: &DramTiming,
) {
    let cur = *open_row;
    if cur != NO_OPEN_ROW {
        *open_row = NO_OPEN_ROW;
        *ready_at = cyc_add((*ready_at).max(now), t.t_rp);
    }
}

/// Walk one bank's scalar pair (tagged open-row latch, then the ready
/// horizon): the per-bank wire format of [`crate::channel::Channel::state`].
pub(crate) fn scalar_state<A: Archive>(
    open_row: &mut u64,
    ready_at: &mut Cycle,
    ar: &mut A,
) -> Result<(), SnapError> {
    let mut open = u8::from(*open_row != NO_OPEN_ROW);
    ar.u8(&mut open)?;
    match open {
        0 => *open_row = NO_OPEN_ROW,
        1 => ar.u64(open_row)?,
        t => return Err(SnapError::BadTag(t)),
    }
    ar.u64(ready_at)
}

impl Bank {
    /// A bank with all rows closed, ready immediately.
    pub fn new() -> Self {
        Bank { open_row: NO_OPEN_ROW, ready_at: 0 }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        if self.open_row == NO_OPEN_ROW {
            BankState::Closed
        } else {
            BankState::Open { row: self.open_row }
        }
    }

    /// Earliest cycle the next command sequence may start.
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Whether a request for `row` would be a row-buffer hit right now.
    pub fn is_row_hit(&self, row: u64) -> bool {
        scalar_is_row_hit(self.open_row, row)
    }

    /// Whether the bank can accept a new command sequence at `now`.
    pub fn can_issue(&self, now: Cycle) -> bool {
        self.ready_at <= now
    }

    /// Service one transaction for `row` granted at `now`.
    ///
    /// Returns the cycle the first data beat may appear on the data bus
    /// (bus arbitration is the channel's job) and the row outcome.
    ///
    /// `keep_open` is the scheduler's close-page decision: `true` leaves
    /// the row latched for a potential follow-up hit, `false` issues
    /// auto-precharge so the bank returns to `Closed`.
    ///
    /// # Panics
    /// Panics (debug) if called before `ready_at` — the controller must
    /// check [`Bank::can_issue`] first.
    pub fn service(
        &mut self,
        row: u64,
        kind: AccessKind,
        now: Cycle,
        keep_open: bool,
        t: &DramTiming,
    ) -> (Cycle, RowOutcome) {
        scalar_service(&mut self.open_row, &mut self.ready_at, row, kind, now, keep_open, t)
    }

    /// Apply an all-bank refresh that started at `at`: the row closes and
    /// the bank is unavailable for `t_rfc` cycles (stacked on any work it
    /// was still finishing).
    pub fn refresh(&mut self, at: Cycle, t_rfc: Cycle) {
        scalar_refresh(&mut self.open_row, &mut self.ready_at, at, t_rfc);
    }

    /// Explicitly close the row (used when the controller notices the last
    /// queued same-row request has drained).
    pub fn precharge(&mut self, now: Cycle, t: &DramTiming) {
        scalar_precharge(&mut self.open_row, &mut self.ready_at, now, t);
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr2_800_at_3_2ghz()
    }

    #[test]
    fn new_bank_is_closed_and_ready() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Closed);
        assert!(b.can_issue(0));
        assert!(!b.is_row_hit(0));
    }

    #[test]
    fn closed_miss_latency() {
        let mut b = Bank::new();
        let (data, out) = b.service(7, AccessKind::Read, 100, false, &t());
        assert_eq!(out, RowOutcome::ClosedMiss);
        assert_eq!(data, 100 + 40 + 40); // tRCD + tCL
    }

    #[test]
    fn hit_after_keep_open() {
        let mut b = Bank::new();
        let (d1, _) = b.service(7, AccessKind::Read, 0, true, &t());
        assert!(b.is_row_hit(7));
        assert!(b.can_issue(d1));
        let (d2, out) = b.service(7, AccessKind::Read, d1, false, &t());
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(d2, d1 + 40); // tCL only
    }

    #[test]
    fn conflict_latency_when_other_row_open() {
        let mut b = Bank::new();
        let (d1, _) = b.service(7, AccessKind::Read, 0, true, &t());
        let (d2, out) = b.service(9, AccessKind::Read, d1, false, &t());
        assert_eq!(out, RowOutcome::Conflict);
        assert_eq!(d2, d1 + 40 + 40 + 40); // tRP + tRCD + tCL
    }

    #[test]
    fn auto_precharge_closes_and_blocks() {
        let mut b = Bank::new();
        let (data, _) = b.service(3, AccessKind::Read, 0, false, &t());
        assert_eq!(b.state(), BankState::Closed);
        // Next ACT must wait data_end + tRP.
        assert!(!b.can_issue(data + 16));
        assert!(b.can_issue(data + 16 + 40));
    }

    #[test]
    fn write_recovery_extends_precharge() {
        let mut b = Bank::new();
        let (data, _) = b.service(3, AccessKind::Write, 0, false, &t());
        assert!(!b.can_issue(data + 16 + 40));
        assert!(b.can_issue(data + 16 + 48 + 40));
    }

    #[test]
    fn explicit_precharge() {
        let mut b = Bank::new();
        let (d1, _) = b.service(3, AccessKind::Read, 0, true, &t());
        b.precharge(d1, &t());
        assert_eq!(b.state(), BankState::Closed);
        assert!(!b.can_issue(d1 + 39));
        assert!(b.can_issue(d1 + 40));
    }

    #[test]
    fn precharge_on_closed_bank_is_noop() {
        let mut b = Bank::new();
        b.precharge(100, &t());
        assert!(b.can_issue(0));
    }

    #[test]
    fn no_open_row_sentinel_never_hits() {
        let b = Bank::new();
        // Even a (physically impossible) request for the sentinel row
        // index must not read as a hit on a closed bank.
        assert!(!b.is_row_hit(NO_OPEN_ROW));
    }
}
