//! The structured trace event model; the collector keeps events in a
//! drop-oldest `melreq_prof::Ring`.
//!
//! Trace events are *derived observations*: the collector takes them
//! from the same audit tap stream the protocol checker consumes
//! (`melreq_audit::AuditEvent`), so recording them cannot perturb the
//! simulation. An arrival or a grant is the tap's own record, held
//! whole; commands and memory-wait spans are reconstructed from those.
//! Timestamps are simulation cycles.

use melreq_audit::{Grant, Submit};
use melreq_stats::types::Cycle;

use crate::provenance::Rule;

/// A DRAM command reconstructed from a grant's claimed row-buffer
/// outcome and the device timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// Row activate.
    Act,
    /// Column read (CAS latency + burst).
    Read,
    /// Column write.
    Write,
    /// Precharge (conflict-induced, or close-page auto).
    Pre,
}

impl CmdKind {
    /// Display name used as the Perfetto slice name.
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Act => "ACT",
            CmdKind::Read => "RD",
            CmdKind::Write => "WR",
            CmdKind::Pre => "PRE",
        }
    }
}

/// One entry of the structured event trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request entered the controller's shared buffer.
    Arrival(Submit),
    /// A reconstructed DRAM command occupying the bank of the grant it
    /// serves for `dur` cycles.
    Command {
        /// Command type.
        kind: CmdKind,
        /// The grant the command serves (its request, channel and bank).
        grant: Grant,
        /// Start cycle.
        at: Cycle,
        /// Occupancy in cycles.
        dur: Cycle,
    },
    /// A transaction was granted to the DRAM device.
    Grant {
        /// The tap's grant record.
        grant: Grant,
        /// The scheduler rule that decided this grant (present when the
        /// tap emitted `Decision` events, i.e. `is_enabled`).
        rule: Option<Rule>,
        /// `(id, core)` of the best candidate the winner beat, if any.
        beat: Option<(u64, u16)>,
    },
    /// A span during which a core had at least one demand read
    /// outstanding at the memory controller (reconstructed memory-bound
    /// period; see DESIGN.md "Observability").
    CoreWait {
        /// Core.
        core: u16,
        /// First cycle with an outstanding read.
        from: Cycle,
        /// Cycle the last outstanding read's data returned.
        to: Cycle,
    },
}

impl TraceEvent {
    /// The event's primary timestamp (start cycle).
    pub fn at(&self) -> Cycle {
        match *self {
            TraceEvent::Arrival(Submit { at, .. })
            | TraceEvent::Command { at, .. }
            | TraceEvent::Grant { grant: Grant { at, .. }, .. } => at,
            TraceEvent::CoreWait { from, .. } => from,
        }
    }
}
