//! The timing oracle: an independent DDR2 legality checker.
//!
//! The oracle replays the audit event stream through its own per-bank
//! state machines — written against the DDR2 command-timing rules the
//! simulator claims to honour (Zheng et al., ICPP 2008, Section 2;
//! JEDEC DDR2 tRCD/tCL/tRP/tWR/tRRD/tFAW/tREFI/tRFC) — and flags every
//! grant whose claimed timing it cannot legally re-derive. It shares no
//! code with `melreq-dram`: everything is recomputed from the
//! [`TimingParams`](crate::event::TimingParams) carried in the stream.

use crate::event::{GrantOutcome, TimingParams};
use melreq_stats::types::Cycle;

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
    /// ACT issued closer than tRRD to the previous ACT.
    ActTooSoon,
    /// Fifth ACT inside a tFAW window.
    FawExceeded,
    /// A grant was requested past a refresh boundary that was never
    /// performed.
    RefreshMissed,
    /// Refresh at the wrong cycle, out of order, or while disabled.
    RefreshBad,
    /// Grant effective before it was requested, or a grant/decision
    /// arrived before the stream's `DramConfig`.
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
    recent_acts: [Cycle; 4],
    act_head: usize,
    acts_seen: u64,
    refreshes: u64,
}

impl ChannelReplica {
    fn new(banks: usize) -> Self {
        ChannelReplica {
            banks: vec![BankReplica { open_row: None, ready_at: 0 }; banks],
            bus_free: 0,
            recent_acts: [0; 4],
            act_head: 0,
            acts_seen: 0,
            refreshes: 0,
        }
    }

    fn note_act(&mut self, at: Cycle) {
        self.recent_acts[self.act_head] = at;
        self.act_head = (self.act_head + 1) % 4;
        self.acts_seen += 1;
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

/// Per-grant facts the oracle needs from a `Grant` event.
#[derive(Debug, Clone, Copy)]
pub struct GrantFacts {
    /// Channel granted on.
    pub channel: usize,
    /// Bank granted on.
    pub bank: usize,
    /// Row addressed.
    pub row: u64,
    /// Write access (extends auto-precharge by tWR).
    pub write: bool,
    /// Controller's scheduling cycle.
    pub requested_at: Cycle,
    /// Effective grant cycle after activate-window spacing.
    pub granted_at: Cycle,
    /// Close-page decision.
    pub keep_open: bool,
    /// Claimed row-buffer outcome.
    pub outcome: GrantOutcome,
    /// Claimed cycle of the last data beat.
    pub data_ready: Cycle,
}

impl TimingOracle {
    /// An unconfigured oracle (configure via [`TimingOracle::on_config`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The timing parameters the stream declared.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
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

    /// Replay an all-bank refresh on `channel` claimed to start at `at`.
    pub fn on_refresh(&mut self, channel: usize, at: Cycle, out: &mut Vec<Violation>) {
        if !self.configured || channel >= self.channels.len() {
            out.push(Violation {
                kind: ViolationKind::StreamInvalid,
                at,
                channel,
                detail: "refresh before DramConfig or on unknown channel".into(),
            });
            return;
        }
        let t = self.timing;
        let ch = &mut self.channels[channel];
        if t.t_refi == 0 {
            out.push(Violation {
                kind: ViolationKind::RefreshBad,
                at,
                channel,
                detail: "refresh performed with refresh disabled (tREFI = 0)".into(),
            });
        } else {
            let expected = (ch.refreshes + 1) * t.t_refi;
            if at != expected {
                out.push(Violation {
                    kind: ViolationKind::RefreshBad,
                    at,
                    channel,
                    detail: format!("refresh #{} at {at}, expected {expected}", ch.refreshes + 1),
                });
            }
        }
        for b in &mut ch.banks {
            b.open_row = None;
            b.ready_at = b.ready_at.max(at) + t.t_rfc;
        }
        ch.refreshes += 1;
    }

    /// Replay an explicit precharge command.
    pub fn on_precharge(
        &mut self,
        channel: usize,
        bank: usize,
        at: Cycle,
        out: &mut Vec<Violation>,
    ) {
        let Some(b) = self.channels.get_mut(channel).and_then(|c| c.banks.get_mut(bank)) else {
            out.push(Violation {
                kind: ViolationKind::StreamInvalid,
                at,
                channel,
                detail: format!("precharge on unknown bank {bank}"),
            });
            return;
        };
        if b.open_row.is_some() {
            b.open_row = None;
            b.ready_at = b.ready_at.max(at) + self.timing.t_rp;
        }
    }

    /// Replay one grant, checking every timing rule, then advance the
    /// replica to the state a legal device would be in.
    pub fn on_grant(&mut self, g: &GrantFacts, out: &mut Vec<Violation>) {
        let t = self.timing;
        if !self.configured || self.channels.get(g.channel).is_none_or(|c| g.bank >= c.banks.len())
        {
            out.push(Violation {
                kind: ViolationKind::StreamInvalid,
                at: g.requested_at,
                channel: g.channel,
                detail: format!("grant before DramConfig or on unknown bank {}", g.bank),
            });
            return;
        }
        if g.granted_at < g.requested_at {
            out.push(Violation {
                kind: ViolationKind::StreamInvalid,
                at: g.requested_at,
                channel: g.channel,
                detail: format!(
                    "granted_at {} precedes requested_at {}",
                    g.granted_at, g.requested_at
                ),
            });
        }

        // Refresh discipline: the device must have caught up all refresh
        // boundaries before servicing a request at `requested_at`.
        if t.t_refi > 0 {
            let due = (self.channels[g.channel].refreshes + 1) * t.t_refi;
            if due <= g.requested_at {
                out.push(Violation {
                    kind: ViolationKind::RefreshMissed,
                    at: g.requested_at,
                    channel: g.channel,
                    detail: format!("refresh due at {due} not performed before grant"),
                });
            }
        }

        let bank = self.channels[g.channel].banks[g.bank];

        // Bank availability: the previous command sequence must be done.
        if bank.ready_at > g.granted_at {
            out.push(Violation {
                kind: ViolationKind::BankBusy,
                at: g.granted_at,
                channel: g.channel,
                detail: format!(
                    "bank {} busy until {} but granted at {}",
                    g.bank, bank.ready_at, g.granted_at
                ),
            });
        }

        // Row-buffer outcome: re-derive from the replayed row latch.
        let expected_outcome = match bank.open_row {
            Some(r) if r == g.row => GrantOutcome::Hit,
            Some(_) => GrantOutcome::Conflict,
            None => GrantOutcome::ClosedMiss,
        };
        if expected_outcome != g.outcome {
            out.push(Violation {
                kind: ViolationKind::OutcomeMismatch,
                at: g.granted_at,
                channel: g.channel,
                detail: format!(
                    "bank {} row {}: claimed {:?}, replay says {:?}",
                    g.bank, g.row, g.outcome, expected_outcome
                ),
            });
        }

        // Activate-window discipline for transactions that need an ACT.
        // We check against the replica's own derived outcome so a lying
        // `outcome` field cannot also corrupt the window check.
        let needs_act = !matches!(expected_outcome, GrantOutcome::Hit);
        let act_at = if matches!(expected_outcome, GrantOutcome::Conflict) {
            g.granted_at + t.t_rp
        } else {
            g.granted_at
        };
        if needs_act {
            let ch = &self.channels[g.channel];
            if t.t_rrd > 0 && ch.acts_seen >= 1 {
                let last = ch.recent_acts[(ch.act_head + 3) % 4];
                if act_at < last + t.t_rrd {
                    out.push(Violation {
                        kind: ViolationKind::ActTooSoon,
                        at: g.granted_at,
                        channel: g.channel,
                        detail: format!(
                            "ACT at {act_at} but previous ACT at {last} needs tRRD {}",
                            t.t_rrd
                        ),
                    });
                }
            }
            if t.t_faw > 0 && ch.acts_seen >= 4 {
                let oldest = ch.recent_acts[ch.act_head];
                if act_at < oldest + t.t_faw {
                    out.push(Violation {
                        kind: ViolationKind::FawExceeded,
                        at: g.granted_at,
                        channel: g.channel,
                        detail: format!(
                            "5th ACT at {act_at} inside tFAW window from {oldest} (tFAW {})",
                            t.t_faw
                        ),
                    });
                }
            }
        }

        // Data timing: derive when a legal device would finish the burst
        // for the *replayed* outcome and compare against the claim.
        let bank_latency = match expected_outcome {
            GrantOutcome::Hit => t.t_cl,
            GrantOutcome::ClosedMiss => t.t_rcd + t.t_cl,
            GrantOutcome::Conflict => t.t_rp + t.t_rcd + t.t_cl,
        };
        let bank_data_start = g.granted_at + bank_latency;
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
                at: g.granted_at,
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
        if needs_act {
            ch.note_act(act_at);
        }
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
        TimingParams {
            t_rcd: 40,
            t_cl: 40,
            t_rp: 40,
            t_wr: 48,
            burst: 16,
            t_refi: 0,
            t_rfc: 0,
            t_rrd: 0,
            t_faw: 0,
        }
    }

    fn grant(bank: usize, row: u64, at: Cycle, outcome: GrantOutcome, ready: Cycle) -> GrantFacts {
        GrantFacts {
            channel: 0,
            bank,
            row,
            write: false,
            requested_at: at,
            granted_at: at,
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
        o.on_grant(&grant(0, 5, 0, GrantOutcome::ClosedMiss, 96), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn data_too_early_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, GrantOutcome::ClosedMiss, 95), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::DataTooEarly);
    }

    #[test]
    fn bus_overlap_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, GrantOutcome::ClosedMiss, 96), &mut v);
        // Bank 1's data could start at 81 but the bus is busy until 96;
        // claiming 81+16 = 97..112 region start (ready 100) overlaps.
        o.on_grant(&grant(1, 5, 1, GrantOutcome::ClosedMiss, 100), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::BusOverlap);
    }

    #[test]
    fn bank_busy_detected() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        o.on_grant(&grant(0, 5, 0, GrantOutcome::ClosedMiss, 96), &mut v);
        // Auto-precharge holds the bank until 96 + 40 = 136.
        o.on_grant(&grant(0, 6, 100, GrantOutcome::ClosedMiss, 196), &mut v);
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
        o.on_grant(&grant(0, 5, 0, GrantOutcome::Hit, 96), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::OutcomeMismatch);
    }

    #[test]
    fn keep_open_then_hit_passes() {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, ddr2());
        let mut v = Vec::new();
        let mut g0 = grant(0, 1, 0, GrantOutcome::ClosedMiss, 96);
        g0.keep_open = true;
        o.on_grant(&g0, &mut v);
        assert_eq!(o.open_row(0, 0), Some(1));
        // Bank ready again at data_start = 80; a hit at 80 finishes at
        // 80 + tCL = 120, bus free since 96, burst ends 136.
        o.on_grant(&grant(0, 1, 80, GrantOutcome::Hit, 136), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn refresh_discipline() {
        let mut t = ddr2();
        t.t_refi = 1000;
        t.t_rfc = 300;
        let mut o = TimingOracle::new();
        o.on_config(1, 8, t);
        let mut v = Vec::new();
        // Grant past the first boundary without a refresh.
        o.on_grant(&grant(0, 5, 1500, GrantOutcome::ClosedMiss, 1596), &mut v);
        assert!(v.iter().any(|x| x.kind == ViolationKind::RefreshMissed), "{v:?}");
        v.clear();
        // Correct refresh then grant is clean (bank blocked until 1000 +
        // 300 = 1300 < 1500... but replica already advanced; rebuild).
        let mut o = TimingOracle::new();
        o.on_config(1, 8, t);
        o.on_refresh(0, 1000, &mut v);
        o.on_grant(&grant(0, 5, 1300, GrantOutcome::ClosedMiss, 1396), &mut v);
        assert!(v.is_empty(), "{v:?}");
        // Wrong-cycle refresh flagged.
        o.on_refresh(0, 2100, &mut v);
        assert!(v.iter().any(|x| x.kind == ViolationKind::RefreshBad), "{v:?}");
    }

    #[test]
    fn trrd_and_tfaw_detected() {
        let mut t = ddr2();
        t.t_rrd = 24;
        t.t_faw = 120;
        let mut o = TimingOracle::new();
        o.on_config(1, 8, t);
        let mut v = Vec::new();
        // Legal spacing mirrors the channel model: second ACT shifted to
        // 24, data at 24 + 80 = 104 (> bus_free 96), ready 120.
        let mut g = grant(0, 0, 0, GrantOutcome::ClosedMiss, 96);
        o.on_grant(&g, &mut v);
        g = grant(1, 0, 0, GrantOutcome::ClosedMiss, 120);
        g.granted_at = 24;
        o.on_grant(&g, &mut v);
        assert!(v.is_empty(), "{v:?}");
        // A third ACT ignoring tRRD (granted at 25, last ACT at 24).
        g = grant(2, 0, 25, GrantOutcome::ClosedMiss, 136);
        o.on_grant(&g, &mut v);
        assert!(v.iter().any(|x| x.kind == ViolationKind::ActTooSoon), "{v:?}");
        v.clear();
        // Fill the four-ACT window legally, then jam a fifth inside it.
        let mut o = TimingOracle::new();
        o.on_config(1, 8, t);
        for (i, at) in [0u64, 24, 48, 72].iter().enumerate() {
            // legal_ready derives the bus-serialized completion so this
            // fill violates no data rule — only the 5th ACT below does.
            let mut g = grant(i, 0, *at, GrantOutcome::ClosedMiss, 0);
            g.data_ready = legal_ready(&o, &g);
            o.on_grant(&g, &mut v);
        }
        assert!(v.is_empty(), "window fill should be legal: {v:?}");
        let mut g = grant(4, 0, 96, GrantOutcome::ClosedMiss, 0);
        g.data_ready = legal_ready(&o, &g);
        o.on_grant(&g, &mut v);
        assert!(v.iter().any(|x| x.kind == ViolationKind::FawExceeded), "{v:?}");
    }

    /// Derive the data-ready cycle the oracle itself would compute, so a
    /// test can violate exactly one rule at a time.
    fn legal_ready(o: &TimingOracle, g: &GrantFacts) -> Cycle {
        let t = *o.timing();
        let bank_latency = match g.outcome {
            GrantOutcome::Hit => t.t_cl,
            GrantOutcome::ClosedMiss => t.t_rcd + t.t_cl,
            GrantOutcome::Conflict => t.t_rp + t.t_rcd + t.t_cl,
        };
        let start = g.granted_at + bank_latency;
        start.max(o.channels[g.channel].bus_free) + t.burst
    }
}
