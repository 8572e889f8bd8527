//! Memory controller and scheduling policies from the ICPP'08 ME-LREQ paper.
//!
//! This crate implements the paper's primary contribution. It provides:
//!
//! * [`request::MemRequest`] — a memory transaction tagged with its
//!   originating core (the unit the policies differentiate on);
//! * [`queue::RequestQueue`] — the controller's shared 64-entry request
//!   buffer with per-core pending read/write counters (the two counters
//!   per core described in Section 3.2);
//! * [`table::PriorityTable`] — the hardware workload-priority table of
//!   Figure 1: per core, one pre-computed, 10-bit quantized
//!   `ME[i]/PendingRead[i]` value for every possible pending-read count,
//!   initialized "by OS at the time of program loading";
//! * [`policy`] — the comparator chain of Figure 1 and every scheduler
//!   as its first link: FCFS, FCFS+Read-First, Hit-First+Read-First (the
//!   baseline), Round-Robin, Least-Request, Memory-Efficiency (fixed
//!   priority), the FIX-0123 / FIX-3210 straw-men of Figure 3 and
//!   **ME-LREQ**, plus fair queueing, stall-time fairness, BLISS and TCM;
//! * [`registry`](mod@registry) — the one table naming, parameterizing
//!   and flagging each of them;
//! * [`controller::MemoryController`] — the transaction engine binding a
//!   policy to the DRAM device: read-first with write-drain hysteresis
//!   (drain starts at ½ buffer, stops at ¼ — Section 4.1), close-page row
//!   management, one grant per channel per cycle, per-core latency and
//!   bandwidth accounting.

// A01 (DESIGN.md "Determinism rules"): a narrowing cast silently
// truncates a cycle, a count or an address field.
#![deny(clippy::cast_possible_truncation)]

pub mod controller;
pub mod policy;
pub mod queue;
pub mod registry;
pub mod request;
pub mod table;

pub use controller::{ChannelTraffic, ControllerConfig, ControllerStats, MemoryController};
pub use policy::{Bliss, FairQueueing, PolicyKind, SchedulerPolicy, StallTimeFair, TcmCluster};
pub use queue::RequestQueue;
pub use registry::{canonical_name, registry, suggest, ParamSpec, PolicyDescriptor};
pub use request::{MemRequest, ReqId};
pub use table::PriorityTable;
