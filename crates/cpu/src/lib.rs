//! Cycle-level out-of-order core model.
//!
//! Substitutes for the paper's M5 cores (Table 1: 4-issue, 16-stage,
//! ROB 196, IQ 64, LQ/SQ 32/32, 4 IntALU / 2 IntMult / 2 FPALU / 1 FPMult).
//! The model is *interval-style*: it tracks, per in-flight micro-op, when
//! its operands are ready and when it completes, enforcing the structural
//! limits (widths, queue sizes, functional units, MSHR back-pressure from
//! the hierarchy) that determine how IPC responds to memory latency and
//! how much memory-level parallelism escapes to the DRAM controller — the
//! two couplings the scheduling study depends on.
//!
//! The core talks to the memory hierarchy through the [`port::CoreMemory`]
//! trait; `melreq-core` implements it over the cache crate and the memory
//! controller.

pub mod config;
pub mod core;
pub mod port;

pub use config::CoreConfig;
pub use core::{Core, CoreStats, IssueWork};
pub use port::{CoreMemory, CoreToken, MemResponse, PerfectMemory};
