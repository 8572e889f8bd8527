//! The audit event stream: what the instrumented simulator reports.
//!
//! Events are plain data — the auditor re-derives all legality from them
//! and deliberately shares no state-machine code with `melreq-dram` or
//! `melreq-memctrl`. The instrumentation contract is:
//!
//! * `DramConfig` is emitted once, at attach time; `CtrlConfig` is
//!   emitted at attach time and again whenever the controller swaps its
//!   scheduling policy mid-run (warmup sharing) — a repeat `CtrlConfig`
//!   re-arms the policy-invariant model without resetting the device
//!   replicas or the request history;
//! * `ProfileUpdate` is emitted when the priority tables are
//!   (re)programmed, carrying the exact ME vector handed to the policy;
//! * `Submit` is emitted for every request entering the shared buffer;
//! * `Refresh` events are emitted *before* any grant that follows the
//!   refresh boundary on that channel;
//! * `Decision` is emitted for every scheduling choice, *before* the
//!   matching `Grant`, and lists the complete candidate set the
//!   controller considered.

use melreq_stats::types::Cycle;
use std::sync::{Arc, Mutex};

/// DRAM timing parameters as the instrumented device reports them, in
/// CPU cycles. Zero disables an optional constraint, mirroring
/// `melreq_dram::DramTiming`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingParams {
    /// ACT → READ/WRITE (row-to-column) delay.
    pub t_rcd: Cycle,
    /// CAS latency.
    pub t_cl: Cycle,
    /// Precharge time.
    pub t_rp: Cycle,
    /// Write recovery before precharge.
    pub t_wr: Cycle,
    /// Data-bus occupancy of one burst.
    pub burst: Cycle,
    /// Refresh interval (0 = refresh disabled).
    pub t_refi: Cycle,
    /// Refresh cycle time.
    pub t_rfc: Cycle,
    /// Minimum ACT-to-ACT spacing per channel (0 = unconstrained).
    pub t_rrd: Cycle,
    /// Four-activate window (0 = unconstrained).
    pub t_faw: Cycle,
}

/// How the granting side claims the row buffer was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantOutcome {
    /// Addressed row already open.
    Hit,
    /// Bank closed: ACT then column access.
    ClosedMiss,
    /// Another row open: PRE, ACT, column access.
    Conflict,
}

/// One request the controller offered to the scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateInfo {
    /// Request id (monotone in arrival order).
    pub id: u64,
    /// Originating core.
    pub core: u16,
    /// Target bank on the decision's channel.
    pub bank: usize,
    /// Target row.
    pub row: u64,
    /// Write-back (true) or demand read (false).
    pub write: bool,
    /// The controller's claim that this request hits an open row.
    pub row_hit: bool,
    /// Cycle the request entered the shared buffer.
    pub arrival: Cycle,
}

/// The link of the scheduling chain that decided a grant: the controller
/// labels the class-level outcomes, the policy's `explain` the rest (see
/// DESIGN.md "Scheduling policies"). Plain data on
/// [`AuditEvent::Decision`]; the auditor neither hashes nor checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Only one schedulable request existed: no arbitration happened.
    OnlyCandidate,
    /// The sole schedulable read bypassed pending writes.
    ReadFirst,
    /// Equal core standing: the open-row buffer decided (hit vs. miss).
    RowHitFirst,
    /// Same class, same standing: arrival order broke the tie.
    FcfsTiebreak,
    /// Round-Robin's rotation pointer picked the winning core.
    RoundRobin,
    /// A fixed core ranking (ME or FIX-*) — or, for ME-LREQ, the ME
    /// term with pending counts equal — picked the winning core.
    MeRank,
    /// The pending-read count (LREQ, or ME-LREQ with equal ME) picked
    /// the winning core.
    LreqCount,
    /// ME-LREQ's full `ME/PendingRead` ratio decided (both terms
    /// differed between the contending cores).
    MeLreqRatio,
    /// ME-LREQ's quantized priorities tied; the seeded RNG picked.
    RandomTie,
    /// BLISS's blacklist bit demoted the beaten core's requests.
    BlissBlacklist,
    /// TCM's cluster ranking picked the winning core.
    TcmCluster,
    /// Fair queueing's virtual start tag picked the winning core.
    FqStartTag,
    /// Stall-time fairness's queueing-delay debt picked the winning core.
    StfDebt,
    /// The core key of a policy that names no rule of its own (the
    /// `SchedulerPolicy::core_rule` default) picked the winning core.
    CoreKey,
    /// Write-drain mode: writes were being flushed ahead of reads.
    WriteDrain,
    /// A write went out with no read ahead of it: none was schedulable,
    /// or (plain FCFS) the write was the oldest request.
    WriteFallback,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 16] = [
        Rule::OnlyCandidate,
        Rule::ReadFirst,
        Rule::RowHitFirst,
        Rule::FcfsTiebreak,
        Rule::RoundRobin,
        Rule::MeRank,
        Rule::LreqCount,
        Rule::MeLreqRatio,
        Rule::RandomTie,
        Rule::BlissBlacklist,
        Rule::TcmCluster,
        Rule::FqStartTag,
        Rule::StfDebt,
        Rule::CoreKey,
        Rule::WriteDrain,
        Rule::WriteFallback,
    ];

    /// Display name used in reports and trace args.
    pub fn name(self) -> &'static str {
        match self {
            Rule::OnlyCandidate => "only-candidate",
            Rule::ReadFirst => "read-first",
            Rule::RowHitFirst => "row-hit-first",
            Rule::FcfsTiebreak => "fcfs-tiebreak",
            Rule::RoundRobin => "round-robin",
            Rule::MeRank => "me-rank",
            Rule::LreqCount => "lreq-count",
            Rule::MeLreqRatio => "me-lreq-ratio",
            Rule::RandomTie => "random-tie",
            Rule::BlissBlacklist => "bliss-blacklist",
            Rule::TcmCluster => "tcm-cluster",
            Rule::FqStartTag => "fq-start-tag",
            Rule::StfDebt => "stf-debt",
            Rule::CoreKey => "core-key",
            Rule::WriteDrain => "write-drain",
            Rule::WriteFallback => "write-fallback",
        }
    }
}

/// One event of the instrumented simulator's audit stream.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// DRAM device shape and timing (once, at attach).
    DramConfig {
        /// Logical channel count.
        channels: usize,
        /// Banks per channel.
        banks_per_channel: usize,
        /// Timing parameters in CPU cycles.
        timing: TimingParams,
    },
    /// Controller configuration (at attach, and again on every mid-run
    /// policy swap).
    CtrlConfig {
        /// Core count.
        cores: usize,
        /// Active policy's display name.
        policy: &'static str,
        /// Whether reads bypass writes.
        read_first: bool,
        /// Shared buffer entries.
        buffer_entries: usize,
        /// Pending-write count that starts draining.
        drain_start: usize,
        /// Pending-write count that stops draining.
        drain_stop: usize,
        /// Fixed pipeline overhead before a request is schedulable.
        overhead: Cycle,
    },
    /// The active policy's tunable parameters (emitted right after
    /// `CtrlConfig`, and only for parameterized policies — the paper's
    /// schemes carry no parameters, so their streams are unchanged).
    PolicyParams {
        /// `(key, value)` pairs in the policy's declared order.
        params: Vec<(&'static str, u64)>,
    },
    /// The priority tables were programmed with this ME vector.
    ProfileUpdate {
        /// Per-core memory-efficiency values.
        me: Vec<f64>,
    },
    /// A request entered the shared buffer.
    Submit {
        /// Request id.
        id: u64,
        /// Originating core.
        core: u16,
        /// Decoded channel.
        channel: usize,
        /// Decoded bank.
        bank: usize,
        /// Decoded row.
        row: u64,
        /// Write-back (true) or read (false).
        write: bool,
        /// Submission cycle.
        at: Cycle,
    },
    /// An all-bank refresh started on `channel` at `at`.
    Refresh {
        /// Channel refreshed.
        channel: usize,
        /// Cycle the refresh started.
        at: Cycle,
    },
    /// One scheduling decision (emitted before its `Grant`).
    Decision {
        /// Channel the decision is for.
        channel: usize,
        /// Scheduling cycle.
        at: Cycle,
        /// Whether the controller is in write-drain mode.
        draining: bool,
        /// Chosen request id.
        chosen: u64,
        /// The full candidate set the controller considered.
        candidates: Vec<CandidateInfo>,
        /// Per-core pending read counts the policy saw.
        pending_reads: Vec<u32>,
        /// Provenance, outside the stream hash: the rule that decided
        /// and the id of the best request the winner beat.
        why: (Rule, Option<u64>),
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
        /// Cycle the controller asked for the grant.
        requested_at: Cycle,
        /// Effective grant cycle after activate-window spacing.
        granted_at: Cycle,
        /// Close-page decision: row stays latched after the access.
        keep_open: bool,
        /// Claimed row-buffer outcome.
        outcome: GrantOutcome,
        /// Claimed cycle of the last data beat.
        data_ready: Cycle,
    },
}

/// Receives audit events from the instrumented simulator.
pub trait AuditSink: Send + std::fmt::Debug {
    /// Observe one event.
    fn record(&mut self, ev: &AuditEvent);
}

/// A sink that stores the raw stream, unbounded (for tests and offline
/// replay; the bounded capture for long runs is melreq-obs's ring).
#[derive(Debug, Default)]
pub struct Recorder {
    /// The recorded stream, in emission order.
    pub events: Vec<AuditEvent>,
}

impl AuditSink for Recorder {
    fn record(&mut self, ev: &AuditEvent) {
        self.events.push(ev.clone());
    }
}

/// A cheap, cloneable handle the instrumented crates hold: the sinks one
/// tap feeds (e.g. a protocol auditor *and* a trace collector), notified
/// in order. A handle with none reduces every emission to one emptiness
/// check.
#[derive(Debug, Clone, Default)]
pub struct AuditHandle {
    sinks: Vec<Arc<Mutex<dyn AuditSink>>>,
}

impl AuditHandle {
    /// A handle that drops every event (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Share existing sinks (the caller keeps the other `Arc`s to read
    /// results back after the run).
    pub fn from_shared(sinks: Vec<Arc<Mutex<dyn AuditSink>>>) -> Self {
        AuditHandle { sinks }
    }

    /// Whether any sink is attached: what `emit` and the (comparatively
    /// expensive) `Decision` events wait on.
    pub fn is_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emit one event to every sink; `make` runs only when one is
    /// attached.
    pub fn emit(&self, make: impl FnOnce() -> AuditEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let ev = make();
        for sink in &self.sinks {
            sink.lock().expect("audit sink poisoned").record(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let h = AuditHandle::disabled();
        assert!(!h.is_enabled());
        h.emit(|| unreachable!("disabled handle must not build events"));
    }

    #[test]
    fn rules_are_listed_in_declaration_order() {
        // Consumers index per-rule tables by discriminant.
        for (i, rule) in Rule::ALL.into_iter().enumerate() {
            assert_eq!(rule as usize, i, "{} is out of place in Rule::ALL", rule.name());
        }
    }

    #[test]
    fn recorder_captures_in_order() {
        let h = AuditHandle::from_shared(vec![Arc::new(Mutex::new(Recorder::default()))]);
        h.emit(|| AuditEvent::Refresh { channel: 0, at: 10 });
        h.emit(|| AuditEvent::Refresh { channel: 1, at: 20 });
        assert!(h.is_enabled());
    }

    #[test]
    fn shared_sink_is_readable_after_emission() {
        let shared: Arc<Mutex<dyn AuditSink>> = Arc::new(Mutex::new(Recorder::default()));
        let h = AuditHandle::from_shared(vec![shared.clone()]);
        h.emit(|| AuditEvent::Refresh { channel: 1, at: 99 });
        let guard = shared.lock().expect("sink");
        let dbg = format!("{guard:?}");
        assert!(dbg.contains("Refresh"), "{dbg}");
    }
}
