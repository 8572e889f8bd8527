//! The structured trace event model; the collector keeps events in a
//! drop-oldest `melreq_prof::Ring`.
//!
//! Trace events are *derived observations*: the collector reconstructs
//! them from the same audit tap stream the protocol checker consumes
//! (`melreq_audit::AuditEvent`), so recording them cannot perturb the
//! simulation. Timestamps are simulation cycles.

use melreq_audit::GrantOutcome;
use melreq_stats::types::Cycle;

use crate::provenance::{Rule, RunnerUp};

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
    Arrival {
        /// Request id (monotone in arrival order).
        id: u64,
        /// Originating core.
        core: u16,
        /// Decoded channel.
        channel: usize,
        /// Decoded bank.
        bank: usize,
        /// Decoded row.
        row: u64,
        /// Write-back (true) or demand read (false).
        write: bool,
        /// Submission cycle.
        at: Cycle,
    },
    /// A reconstructed DRAM command occupying a bank for `dur` cycles.
    Command {
        /// Command type.
        kind: CmdKind,
        /// Channel.
        channel: usize,
        /// Bank.
        bank: usize,
        /// Request id the command serves.
        id: u64,
        /// Start cycle.
        at: Cycle,
        /// Occupancy in cycles.
        dur: Cycle,
    },
    /// An all-bank refresh held the channel for `dur` cycles.
    Refresh {
        /// Channel refreshed.
        channel: usize,
        /// Start cycle.
        at: Cycle,
        /// tRFC in CPU cycles.
        dur: Cycle,
    },
    /// A transaction was granted to the DRAM device.
    Grant {
        /// Request id.
        id: u64,
        /// Originating core.
        core: u16,
        /// Channel.
        channel: usize,
        /// Bank.
        bank: usize,
        /// Row.
        row: u64,
        /// Write-back (true) or read (false).
        write: bool,
        /// Effective grant cycle.
        at: Cycle,
        /// Cycles the request waited in the buffer before the grant.
        queued_for: Cycle,
        /// Claimed row-buffer outcome.
        outcome: GrantOutcome,
        /// Cycle of the last data beat.
        data_ready: Cycle,
        /// The scheduler rule that decided this grant (present when the
        /// tap emitted `Decision` events, i.e. `is_enabled`).
        rule: Option<Rule>,
        /// The best candidate the winner beat, if any.
        runner_up: Option<RunnerUp>,
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
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Command { at, .. }
            | TraceEvent::Refresh { at, .. }
            | TraceEvent::Grant { at, .. } => at,
            TraceEvent::CoreWait { from, .. } => from,
        }
    }
}
