//! Full-system simulator for the ICPP'08 ME-LREQ study.
//!
//! This crate composes the substrates into the machine of Table 1 and
//! drives the paper's experiments:
//!
//! * [`config::SystemConfig`] — every Table 1 parameter in one place;
//! * [`hierarchy::Hierarchy`] — the two-level cache hierarchy
//!   (per-core L1I/L1D, shared L2, MSHRs, write-backs) glued to the
//!   memory controller, implementing the CPU crate's
//!   [`melreq_cpu::CoreMemory`] port;
//! * [`system::System`] — N cores + hierarchy + the global cycle loop,
//!   with the paper's run-to-target-then-keep-running methodology;
//! * [`profile`] — single-core profiling runs that measure each
//!   application's memory efficiency (Equation 1), the off-line step that
//!   fills the controller's priority tables;
//! * [`experiment`] — the multiprogrammed evaluation harness: runs a
//!   Table 3 mix under a policy and reports SMT speedup, per-core read
//!   latency and unfairness (Figures 2–5);
//! * [`report`] — plain-text table formatting shared by the CLI's
//!   summaries and paper artifacts;
//! * [`api`] — the typed public facade ([`api::SimRequest`] →
//!   [`api::SimReport`]) shared by the CLI, the HTTP service and the
//!   benchmark harness, with the typed error taxonomy
//!   ([`api::MelreqError`]).

pub mod api;
pub mod config;
pub mod experiment;
pub mod hierarchy;
pub mod profile;
pub mod report;
pub mod store;
pub mod system;

pub use api::{MelreqError, PolicyKind, Session, SimReport, SimRequest};
pub use config::SystemConfig;
pub use experiment::{
    run_mix, run_mix_audited, run_mix_observed, run_tapped, ExperimentOptions, MixResult,
    ObserveOptions, RunControl, Tapped, Taps,
};
pub use hierarchy::Hierarchy;
pub use profile::{profile_app, AppProfile};
pub use store::{CheckpointStore, StoreStats};
pub use system::{CancelToken, KernelCounters, RunOutcome, System};
