//! The assembled DRAM system: geometry + timing + channels.

use crate::address::{DramGeometry, Location};
use crate::channel::{Channel, ChannelGrant};
use crate::timing::DramTiming;
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
}

impl DramSystem {
    /// Build a DRAM system from geometry and timing.
    pub fn new(geometry: DramGeometry, timing: DramTiming) -> Self {
        let channels =
            (0..geometry.channels).map(|_| Channel::new(geometry.banks_per_channel())).collect();
        DramSystem { channels, geometry, timing }
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

    /// One channel's per-bank earliest cycles to accept a new command
    /// sequence, as a dense slice (index = bank) for the controller's
    /// candidate scans: the cached form of [`DramSystem::can_issue`]
    /// (`can_issue(loc, now)` ⇔ `bank_ready_slice(loc.channel)[loc.bank] <= now`).
    pub fn bank_ready_slice(&self, channel: usize) -> &[Cycle] {
        self.channels[channel].bank_ready_slice()
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
        self.channels[loc.channel].issue(loc.bank, loc.row, kind, now, keep_open, &self.timing)
    }

    /// Walk every channel ([`Archive`]); a load needs the same geometry.
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `geometry`, `timing`: construction-time config, identical across
        // snapshot peers.
        let Self { geometry: _, timing: _, channels } = self;
        ar.len(channels.len(), SnapError::Invalid("channel count mismatch"))?;
        channels.iter_mut().try_for_each(|ch| ch.state(ar))
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
    use melreq_stats::types::{RowOutcome, CACHE_LINE_BYTES};

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
}
