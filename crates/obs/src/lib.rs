//! # melreq-obs — deterministic trace & telemetry
//!
//! Observability layer for the melreq simulator, fed by the exact same
//! [`melreq_audit::AuditHandle`] tap points as the protocol checker —
//! no new hooks, and the disabled path stays a single `Option` check
//! (allocation-free). Three pillars:
//!
//! 1. **Structured event trace** ([`TraceEvent`]): request arrivals,
//!    reconstructed DRAM commands (ACT/RD/WR/PRE), grants, refreshes
//!    and per-core memory-bound spans in a bounded drop-oldest ring
//!    (`melreq_prof::Ring`),
//!    exported as Chrome/Perfetto `trace_event` JSON
//!    ([`export_chrome_json`]) with sim-cycles as timestamps.
//! 2. **Epoch time-series** ([`EpochRow`]): per-core IPC, pending
//!    reads and live ME values; per-channel queue depth, bus
//!    utilization and row-hit/read/write rates — sampled by
//!    `melreq_core::System` at exact epoch boundaries and rendered as
//!    CSV/JSON ([`series::render_csv`], [`series::render_json`]).
//! 3. **Decision provenance** ([`Rule`], [`RuleTotals`]): each grant
//!    is attributed to the scheduler rule that won it (row-hit-first,
//!    read-first, ME rank, LREQ count, FCFS tiebreak, …) plus the
//!    beaten runner-up, with per-policy totals.
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
pub mod metrics;
pub mod perfetto;
pub mod provenance;
pub mod series;

pub use collector::{ChannelSample, Collector, CoreSample, Fanout, DEFAULT_TRACE_CAPACITY};
pub use event::{CmdKind, TraceEvent};
pub use hostprof::{export_host_profile, finish_host_profile};
pub use metrics::{Counter, Gauge, Histogram, MetricKind, Registry};
pub use perfetto::export_chrome_json;
pub use provenance::{Rule, RuleTotals, RunnerUp};
pub use series::EpochRow;
