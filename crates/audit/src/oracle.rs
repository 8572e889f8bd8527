//! The timing oracle: an independent DDR2 legality checker.
//!
//! The oracle replays the audit event stream through its own per-bank
//! state machines — written against the DDR2 command-timing rules the
//! simulator claims to honour (Zheng et al., ICPP 2008, Section 2;
//! JEDEC DDR2 tRCD/tCL/tRP/tWR) — and flags every grant whose claimed
//! timing it cannot legally re-derive. It shares no code with
//! `melreq-dram`: everything is recomputed from the [`TimingParams`]
//! carried in the stream.

use crate::event::{Grant, TimingParams};
use melreq_stats::types::{Cycle, RowOutcome};

/// What rule a stream event broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Grant before the bank finished its previous command sequence.
    BankBusy,
    /// Claimed data completes before the bank latency allows (tRCD /
    /// tCL / tRP path for the claimed outcome).
    DataTooEarly,
    /// Claimed burst overlaps the previous burst on the channel's bus.
    BusOverlap,
    /// Claimed data-ready differs from the derived cycle (late is also
    /// an error: the model is deterministic, not merely lower-bounded).
    DataMismatch,
    /// Claimed row-buffer outcome disagrees with the replayed state.
    OutcomeMismatch,
    /// A grant or decision arrived before the stream's `DramConfig`, or
    /// named a bank the device lacks.
    StreamInvalid,
    /// The granted request was not in the decision's candidate set.
    ChosenNotCandidate,
    /// A listed candidate was not actually issuable (bank busy or the
    /// controller pipeline overhead had not elapsed).
    NotIssuable,
    /// A candidate's claimed row-hit flag disagrees with the replayed
    /// row latch.
    RowHitMismatch,
    /// The grant's class (read/write) contradicts the read-first /
    /// write-drain discipline.
    ClassViolated,
    /// Within the selected class/core the grant was not
    /// hit-first-then-oldest.
    HitFirstViolated,
    /// Plain FCFS granted out of arrival order.
    FcfsOrderViolated,
    /// The core-aware policy (RR/LREQ/ME/FIX/ME-LREQ) selected a core
    /// its ranking rule does not permit.
    CoreChoiceViolated,
    /// ME-LREQ's choice is inconsistent with the priority table implied
    /// by the last profile update.
    TableInconsistent,
    /// The pending-read counts the policy saw disagree with the counts
    /// implied by the submit/grant history.
    PendingMismatch,
    /// A request exceeded the configured starvation age cap.
    Starvation,
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Rule broken.
    pub kind: ViolationKind,
    /// Cycle of the offending event.
    pub at: Cycle,
    /// Channel involved (when applicable).
    pub channel: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] ch{} @{}: {}", self.kind, self.channel, self.at, self.detail)
    }
}

/// Replayed state of one bank.
#[derive(Debug, Clone, Copy)]
struct BankReplica {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// Replayed state of one channel.
#[derive(Debug, Clone)]
struct ChannelReplica {
    banks: Vec<BankReplica>,
    bus_free: Cycle,
}

impl ChannelReplica {
    fn new(banks: usize) -> Self {
        ChannelReplica {
            banks: vec![BankReplica { open_row: None, ready_at: 0 }; banks],
            bus_free: 0,
        }
    }
}

/// The timing oracle. Feed it the stream via the `on_*` methods (the
/// [`Auditor`](crate::Auditor) does this) and collect violations.
#[derive(Debug, Clone, Default)]
pub struct TimingOracle {
    timing: TimingParams,
    channels: Vec<ChannelReplica>,
    configured: bool,
}

impl TimingOracle {
    /// An unconfigured oracle (configure via [`TimingOracle::on_config`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply the stream's `DramConfig`.
    pub fn on_config(&mut self, channels: usize, banks_per_channel: usize, timing: TimingParams) {
        self.timing = timing;
        self.channels = (0..channels).map(|_| ChannelReplica::new(banks_per_channel)).collect();
        self.configured = true;
    }

    /// Whether `bank` on `channel` could legally accept a new command
    /// sequence at `now` (used by the policy auditor for candidate
    /// issuability checks).
    pub fn can_issue(&self, channel: usize, bank: usize, now: Cycle) -> bool {
        self.channels
            .get(channel)
            .and_then(|c| c.banks.get(bank))
            .is_some_and(|b| b.ready_at <= now)
    }

    /// The row the replayed state holds open in `bank` (if any).
    pub fn open_row(&self, channel: usize, bank: usize) -> Option<u64> {
        self.channels.get(channel)?.banks.get(bank)?.open_row
    }

    /// Replay one grant, checking every timing rule, then advance the
    /// replica to the state a legal device would be in.
    pub fn on_grant(&mut self, g: &Grant, out: &mut Vec<Violation>) {
        let t = self.timing;
        if !self.configured || self.channels.get(g.channel).is_none_or(|c| g.bank >= c.banks.len())
        {
            out.push(Violation {
                kind: ViolationKind::StreamInvalid,
                at: g.at,
                channel: g.channel,
                detail: format!("grant before DramConfig or on unknown bank {}", g.bank),
            });
            return;
        }
        let bank = self.channels[g.channel].banks[g.bank];

        // Bank availability: the previous command sequence must be done.
        if bank.ready_at > g.at {
            out.push(Violation {
                kind: ViolationKind::BankBusy,
                at: g.at,
                channel: g.channel,
                detail: format!(
                    "bank {} busy until {} but granted at {}",
                    g.bank, bank.ready_at, g.at
                ),
            });
        }

        // Row-buffer outcome: re-derive from the replayed row latch.
        let expected_outcome = match bank.open_row {
            Some(r) if r == g.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::ClosedMiss,
        };
        if expected_outcome != g.outcome {
            out.push(Violation {
                kind: ViolationKind::OutcomeMismatch,
                at: g.at,
                channel: g.channel,
                detail: format!(
                    "bank {} row {}: claimed {:?}, replay says {:?}",
                    g.bank, g.row, g.outcome, expected_outcome
                ),
            });
        }

        // Data timing: derive when a legal device would finish the burst
        // for the *replayed* outcome and compare against the claim.
        let bank_latency = match expected_outcome {
            RowOutcome::Hit => t.t_cl,
            RowOutcome::ClosedMiss => t.t_rcd + t.t_cl,
            RowOutcome::Conflict => t.t_rp + t.t_rcd + t.t_cl,
        };
        let bank_data_start = g.at + bank_latency;
        let bus_free = self.channels[g.channel].bus_free;
        let bus_start = bank_data_start.max(bus_free);
        let expected_ready = bus_start + t.burst;
        if g.data_ready != expected_ready {
            let claimed_start = g.data_ready.saturating_sub(t.burst);
            let (kind, what) = if claimed_start < bank_data_start {
                (ViolationKind::DataTooEarly, "before the bank's CAS latency allows")
            } else if claimed_start < bus_free {
                (ViolationKind::BusOverlap, "overlapping the previous burst on the bus")
            } else {
                (ViolationKind::DataMismatch, "diverging from the derived schedule")
            };
            out.push(Violation {
                kind,
                at: g.at,
                channel: g.channel,
                detail: format!(
                    "bank {}: claimed data ready {} {what}; derived {expected_ready}",
                    g.bank, g.data_ready
                ),
            });
        }

        // Advance the replica along the legal schedule (the derived one,
        // so one bad claim yields one violation, not an avalanche).
        let ch = &mut self.channels[g.channel];
        ch.bus_free = expected_ready;
        let b = &mut ch.banks[g.bank];
        if g.keep_open {
            b.open_row = Some(g.row);
            b.ready_at = bank_data_start;
        } else {
            b.open_row = None;
            let recovery = if g.write { t.t_wr } else { 0 };
            b.ready_at = bank_data_start + t.burst + recovery + t.t_rp;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr2() -> TimingParams {
        TimingParams { t_rcd: 40, t_cl: 40, t_rp: 40, t_wr: 48, burst: 16 }
    }

    fn grant(bank: usize, row: u64, at: Cycle, outcome: RowOutcome, ready: Cycle) -> Grant {
        Grant {
            id: 0,
            core: 0,
            channel: 0,
            bank,
            row,
            write: false,
            at,
            keep_open: false,
            outcome,
            data_ready: ready,
        }
    }

    #[test]
    fn legal_closed_miss_passes() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, RowOutcome::ClosedMiss, 96), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn data_too_early_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, RowOutcome::ClosedMiss, 95), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::DataTooEarly);
    }

    #[test]
    fn bus_overlap_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, RowOutcome::ClosedMiss, 96), &mut v);
        // Bank 1's data could start at 81 but the bus is busy until 96;
        // claiming 81+16 = 97..112 region start (ready 100) overlaps.
        o.on_grant(&grant(1, 5, 1, RowOutcome::ClosedMiss, 100), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::BusOverlap);
    }

    #[test]
    fn bank_busy_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, RowOutcome::ClosedMiss, 96), &mut v);
        // Auto-precharge holds the bank until 96 + 40 = 136.
        o.on_grant(&grant(0, 6, 100, RowOutcome::ClosedMiss, 196), &mut v);
        assert!(v.iter().any(|x| x.kind == ViolationKind::BankBusy), "{v:?}");
    }

    #[test]
    fn outcome_mismatch_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        // Claim a Hit on a closed bank; data timing checked against the
        // replayed ClosedMiss, so give the legal miss timing to isolate
        // the outcome check.
        o.on_grant(&grant(0, 5, 0, RowOutcome::Hit, 96), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::OutcomeMismatch);
    }

    #[test]
    fn keep_open_then_hit_passes() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        let mut g0 = grant(0, 1, 0, RowOutcome::ClosedMiss, 96);
        g0.keep_open = true;
        o.on_grant(&g0, &mut v);
        assert_eq!(o.open_row(0, 0), Some(1));
        // Bank ready again at data_start = 80; a hit at 80 finishes at
        // 80 + tCL = 120, bus free since 96, burst ends 136.
        o.on_grant(&grant(0, 1, 80, RowOutcome::Hit, 136), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }
}
