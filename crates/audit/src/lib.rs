//! # melreq-audit — independent legality checking for the simulator
//!
//! This crate re-derives, from an event stream alone, whether everything
//! the `melreq` simulator did was legal. It deliberately shares no
//! state-machine code with `melreq-dram` or `melreq-memctrl`: the DRAM
//! timing rules (tRCD, tCL, tRP, tWR, data-bus exclusivity) and the
//! scheduler invariants (candidate issuability, hit-first-then-oldest,
//! read-first/write-drain class discipline, the ME-LREQ priority-table
//! semantics of Zheng et al., ICPP 2008) are implemented a second time
//! here, so a bug in the production model cannot mask itself in the
//! checker.
//!
//! Three checkers share one event stream. Its [`Submit`], [`Decision`]
//! and [`Grant`] records are declared once, and every reader (these
//! checkers, `melreq-obs`'s trace) takes them whole:
//!
//! * [`TimingOracle`] — per-bank replay of the DDR2 protocol, one
//!   [`Grant`] at a time;
//! * [`PolicyAuditor`] — per-[`Decision`] replay of the scheduling rules,
//!   tracking each core's reads from its [`Submit`]s and [`Grant`]s;
//! * the stream hash in [`Auditor`] — a determinism witness: two runs
//!   with the same seed must produce identical hashes. It is
//!   `melreq_snap`'s FNV-1a, continued over each event's `Enc` bytes.
//!
//! The simulator's memory controller is the stream's one emitter: it
//! announces the DRAM device and itself, then reports every submit,
//! decision and grant through an [`AuditHandle`] (a no-op unless a sink
//! is attached; debug builds attach a panicking watchdog automatically). `melreq audit` and the `--audit` flag on the CLI run
//! the full checker end to end.

pub mod auditor;
pub mod event;
pub mod oracle;
pub mod policy;

pub use auditor::{AuditReport, Auditor, AuditorConfig};
pub use event::{
    AuditEvent, AuditHandle, AuditSink, CandidateInfo, Decision, Grant, Recorder, Rule, Submit,
    TimingParams,
};
pub use oracle::{TimingOracle, Violation, ViolationKind};
pub use policy::PolicyAuditor;
