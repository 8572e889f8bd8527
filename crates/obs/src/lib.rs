//! # melreq-obs — deterministic trace & telemetry
//!
//! Observability layer for the melreq simulator, fed by the exact same
//! [`melreq_audit::AuditHandle`] tap points as the protocol checker —
//! no new hooks, and the disabled path stays a single `Option` check
//! (allocation-free). Three pillars:
//!
//! 1. **Structured event trace** ([`TraceEvent`]): request arrivals and
//!    grants (the tap's own `Submit` and `Grant` records), reconstructed
//!    DRAM commands (ACT/RD/WR/PRE) and per-core memory-bound spans in a
//!    bounded drop-oldest ring
//!    (`melreq_prof::Ring`), exported as Chrome/Perfetto `trace_event` JSON
//!    ([`export_chrome_json`]) with sim-cycles as timestamps.
//! 2. **Epoch time-series** ([`EpochRow`]): per-core IPC, pending
//!    reads and live ME values; per-channel queue depth, bus
//!    utilization and row-hit/read/write rates — sampled by
//!    `melreq_core::System` at exact epoch boundaries and rendered as
//!    CSV ([`series::render_csv`]).
//! 3. **Decision provenance** ([`Rule`], [`RuleTotals`]): each grant
//!    is attributed to the scheduler rule that won it (row-hit-first,
//!    read-first, ME rank, LREQ count, FCFS tiebreak, …) plus the
//!    `(id, core)` of the request it beat, with per-policy totals.
//!
//! The host-side span profile (`melreq_prof`) is exported through the
//! same Chrome `trace_event` envelope ([`export_host_profile`]), in its own
//! wall-clock file. Service metrics are not kept here: `melreq-serve`
//! renders its `/metrics` page from its event loop's own state.
//!
//! Tracing is *provably inert*: the collector only observes the event
//! stream — the rule behind each grant arrives on it, named by the
//! controller through `SchedulerPolicy::explain(&self)` — and never
//! calls back into the simulator, so enabling it cannot change
//! `RunOutcome`s or audit hashes. The determinism test in `melreq-core`
//! pins this for every registered policy.

pub mod collector;
pub mod event;
pub mod hostprof;
pub mod perfetto;
pub mod provenance;
pub mod series;

pub use collector::{
    ChannelSample, Collector, CoreSample, DEFAULT_SAMPLE_EPOCH, DEFAULT_TRACE_CAPACITY,
};
pub use event::{CmdKind, TraceEvent};
pub use hostprof::{export_host_profile, finish_host_profile};
pub use perfetto::export_chrome_json;
pub use provenance::{Rule, RuleTotals};
pub use series::EpochRow;
