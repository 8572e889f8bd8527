//! The assembled DRAM system: geometry + timing + channels.

use crate::address::{DramGeometry, Location};
use crate::channel::{Channel, ChannelGrant};
use crate::timing::DramTiming;
use melreq_audit::{AuditEvent, AuditHandle, TimingParams};
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{AccessKind, Addr, Cycle};

/// Row-buffer management discipline (Section 4.1).
///
/// The controller applies this when granting a transaction: under
/// close-page, a row is kept open only while another queued request
/// targets it (scheduler-controlled precharge, the paper's mode); under
/// open-page, rows stay open until a conflicting access closes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowPolicy {
    /// Close the row with auto-precharge unless a queued same-row request
    /// exists — the paper's configuration.
    #[default]
    ClosePage,
    /// Leave rows open; conflicts pay precharge+activate.
    OpenPage,
}

/// The full DRAM device model behind the memory controller.
///
/// Stateless per cycle: all timing is advanced inside [`DramSystem::issue`],
/// so there is no per-cycle tick cost.
#[derive(Debug, Clone)]
pub struct DramSystem {
    geometry: DramGeometry,
    timing: DramTiming,
    channels: Vec<Channel>,
    /// Audit instrumentation (no-op unless a sink is attached).
    audit: AuditHandle,
    /// Refreshes already reported to the audit stream, per channel.
    refreshes_emitted: Vec<u64>,
}

impl DramSystem {
    /// Build a DRAM system from geometry and timing.
    pub fn new(geometry: DramGeometry, timing: DramTiming) -> Self {
        let channels =
            (0..geometry.channels).map(|_| Channel::new(geometry.banks_per_channel())).collect();
        DramSystem {
            channels,
            audit: AuditHandle::disabled(),
            refreshes_emitted: vec![0; geometry.channels],
            geometry,
            timing,
        }
    }

    /// Attach audit instrumentation and announce the device configuration
    /// on the stream. All subsequent refreshes, precharges, and grants on
    /// this device are reported through `audit`.
    pub fn set_audit(&mut self, audit: AuditHandle) {
        audit.emit(|| AuditEvent::DramConfig {
            channels: self.geometry.channels,
            banks_per_channel: self.geometry.banks_per_channel(),
            timing: TimingParams {
                t_rcd: self.timing.t_rcd,
                t_cl: self.timing.t_cl,
                t_rp: self.timing.t_rp,
                t_wr: self.timing.t_wr,
                burst: self.timing.burst,
                t_refi: self.timing.t_refi,
                t_rfc: self.timing.t_rfc,
                t_rrd: self.timing.t_rrd,
                t_faw: self.timing.t_faw,
            },
        });
        self.audit = audit;
    }

    /// Report any refreshes the channels performed that the audit stream
    /// has not seen yet. Refresh `k` on a channel always starts at
    /// `k × tREFI`, so the boundary cycles are reconstructible from the
    /// per-channel counts.
    fn emit_refreshes(&mut self) {
        if !self.audit.is_enabled() {
            return;
        }
        for (ch, emitted) in self.refreshes_emitted.iter_mut().enumerate() {
            let performed = self.channels[ch].refresh_count();
            while *emitted < performed {
                *emitted += 1;
                let at = *emitted * self.timing.t_refi;
                self.audit.emit(|| AuditEvent::Refresh { channel: ch, at });
            }
        }
    }

    /// The paper's Table 1 memory system.
    pub fn paper() -> Self {
        Self::new(DramGeometry::paper(), DramTiming::ddr2_800_at_3_2ghz())
    }

    /// Geometry in use.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Timing in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Decode a physical address to DRAM coordinates.
    pub fn decode(&self, addr: Addr) -> Location {
        self.geometry.decode(addr)
    }

    /// Whether `loc` would be a row-buffer hit right now (the signal the
    /// Hit-First family of policies ranks on).
    pub fn is_row_hit(&self, loc: &Location) -> bool {
        self.channels[loc.channel].is_row_hit(loc.bank, loc.row)
    }

    /// Whether a transaction to `loc` could be granted at `now`.
    pub fn can_issue(&self, loc: &Location, now: Cycle) -> bool {
        self.channels[loc.channel].can_issue(loc.bank, now)
    }

    /// Earliest cycle at which a bank accepts a new command sequence —
    /// the cached form of [`DramSystem::can_issue`]
    /// (`can_issue(loc, now)` ⇔ `bank_ready_at(loc.channel, loc.bank) <= now`).
    /// A pending refresh can only push this later, so the value is a
    /// conservative lower bound for event-horizon computations.
    pub fn bank_ready_at(&self, channel: usize, bank: usize) -> Cycle {
        self.channels[channel].bank_ready_at(bank)
    }

    /// One channel's per-bank ready horizons as a dense slice (index =
    /// bank) — the bulk form of [`DramSystem::bank_ready_at`] for the
    /// controller's candidate scans. Same conservative-lower-bound caveat:
    /// a pending refresh can only push these later.
    pub fn bank_ready_slice(&self, channel: usize) -> &[Cycle] {
        self.channels[channel].bank_ready_slice()
    }

    /// The earliest upcoming all-bank refresh boundary across channels,
    /// or `None` when refresh is disabled. The system loop must not skip
    /// past this cycle: refreshes apply (and are reported on the audit
    /// stream) lazily at the next controller tick, so a tick must land on
    /// the boundary for the event order to match a cycle-exact run.
    pub fn next_refresh_at(&self) -> Option<Cycle> {
        self.channels.iter().filter_map(|ch| ch.next_refresh_at(&self.timing)).min()
    }

    /// Catch up due refreshes on every channel (no-op when refresh is
    /// disabled). The controller calls this once per scheduling cycle.
    pub fn sync(&mut self, now: Cycle) {
        if self.timing.t_refi == 0 {
            return;
        }
        for ch in &mut self.channels {
            ch.sync_refresh(now, &self.timing);
        }
        self.emit_refreshes();
    }

    /// Total all-bank refreshes performed across channels.
    pub fn refresh_count(&self) -> u64 {
        self.channels.iter().map(super::channel::Channel::refresh_count).sum()
    }

    /// Cycle at which `loc`'s channel data bus next frees (for backlog
    /// heuristics in the controller).
    pub fn bus_free_at(&self, channel: usize) -> Cycle {
        self.channels[channel].bus_free_at()
    }

    /// Grant a transaction.
    ///
    /// `keep_open` implements scheduler-controlled close-page: pass `true`
    /// when the controller still holds another queued request for the same
    /// row, `false` otherwise (auto-precharge).
    pub fn issue(
        &mut self,
        loc: &Location,
        kind: AccessKind,
        now: Cycle,
        keep_open: bool,
    ) -> ChannelGrant {
        // Catch up (and report) refreshes before the grant so the audit
        // stream always orders a refresh ahead of the grants behind it.
        self.channels[loc.channel].sync_refresh(now, &self.timing);
        self.emit_refreshes();
        self.channels[loc.channel].issue(loc.bank, loc.row, kind, now, keep_open, &self.timing)
    }

    /// Explicitly close the row at `loc` if open (controller close-page
    /// sweep when the last same-row request drains).
    pub fn precharge(&mut self, loc: &Location, now: Cycle) {
        self.channels[loc.channel].precharge(loc.bank, now, &self.timing);
        self.audit.emit(|| AuditEvent::Precharge { channel: loc.channel, bank: loc.bank, at: now });
    }

    /// Walk every channel and the audit refresh-emission cursors
    /// ([`Archive`]); a load needs the same geometry. The audit handle
    /// itself is NOT state: a restored system keeps whatever sink it
    /// already has attached.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `geometry`, `timing`: construction-time config, identical across
        // snapshot peers. `audit`: instrumentation handle re-attached by the host.
        let Self { geometry: _, timing: _, channels, audit: _, refreshes_emitted } = self;
        ar.len(channels.len(), SnapError::Invalid("channel count mismatch"))?;
        channels.iter_mut().try_for_each(|ch| ch.state(ar))?;
        ar.len(refreshes_emitted.len(), SnapError::Invalid("refresh cursor count mismatch"))?;
        refreshes_emitted.iter_mut().try_for_each(|e| ar.u64(e))
    }

    /// Cumulative data-bus busy cycles of `channel` (the epoch sampler
    /// differences this between samples into bus utilization).
    pub fn bus_busy_cycles(&self, channel: usize) -> Cycle {
        self.channels[channel].bus_busy_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RowOutcome;
    use melreq_stats::types::CACHE_LINE_BYTES;

    #[test]
    fn paper_system_shape() {
        let d = DramSystem::paper();
        assert_eq!(d.geometry().channels, 2);
    }

    #[test]
    fn row_hit_detected_across_interface() {
        let mut d = DramSystem::paper();
        let a = d.decode(0);
        // Same row, next column: stride channel*banks lines.
        let b = d.decode(2 * 8 * CACHE_LINE_BYTES);
        assert!(a.same_row(&b));
        assert_eq!(d.issue(&a, AccessKind::Read, 0, true).outcome, RowOutcome::ClosedMiss);
        assert!(d.is_row_hit(&b));
        let s = d.issue(&b, AccessKind::Read, 100, false);
        assert_eq!(s.outcome, RowOutcome::Hit);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = DramSystem::paper();
        let a = d.decode(0); // channel 0
        let b = d.decode(CACHE_LINE_BYTES); // channel 1
        let sa = d.issue(&a, AccessKind::Read, 0, false);
        let sb = d.issue(&b, AccessKind::Read, 0, false);
        // No bus interference across channels.
        assert_eq!(sa.data_ready, sb.data_ready);
    }

    #[test]
    fn precharge_clears_open_row() {
        let mut d = DramSystem::paper();
        let a = d.decode(0);
        d.issue(&a, AccessKind::Read, 0, true);
        assert!(d.is_row_hit(&a));
        d.precharge(&a, 200);
        assert!(!d.is_row_hit(&a));
    }
}
