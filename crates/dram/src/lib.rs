//! Cycle-level DDR2 DRAM model for the `melreq` simulator.
//!
//! Models the memory system of Table 1 of the ICPP'08 ME-LREQ paper:
//!
//! * 2 logical channels, each made of 2 ganged physical channels providing
//!   a 16-byte data path at 800 MT/s (12.8 GB/s per logical channel);
//! * 2 DIMMs per physical channel, 4 banks per DIMM;
//! * 5-5-5 timing — tRCD = tCL = tRP = 12.5 ns = 40 CPU cycles at 3.2 GHz;
//! * close-page mode with cache-line interleaving: consecutive cache lines
//!   rotate across channels and banks; a row is kept open only while the
//!   memory controller still has queued requests for it (scheduler-
//!   controlled precharge), otherwise it is closed with auto-precharge.
//!
//! # Granularity
//!
//! Requests are serviced as *transactions*: when the controller grants a
//! request, the target [`Bank`] and the channel data bus
//! compute the data-return time from their current state (row hit, row
//! miss from idle, or row conflict) and advance their occupancy. Command
//! bus contention is not modeled separately (a single 64 B transfer needs
//! only 2–3 commands over 16+ command slots, so the command bus is never
//! the bottleneck at these parameters); data-bus pipelining, bank timing
//! and the hit/miss/conflict latency differences — the effects the
//! scheduling policies exploit — are modeled cycle-accurately.
//!
//! The crate is independent of the memory controller: it exposes
//! [`DramSystem::can_issue`] / [`DramSystem::issue`] and row-hit queries,
//! and the controller (in `melreq-memctrl`) decides *which* request to
//! grant.

// A01 (DESIGN.md "Determinism rules"): a narrowing cast silently
// truncates a cycle, a count or an address field.
#![deny(clippy::cast_possible_truncation)]

pub mod address;
pub mod bank;
pub mod channel;
pub mod system;
pub mod timing;

pub use address::{DramGeometry, Interleave, Location};
pub use bank::{Bank, BankState};
pub use channel::Channel;
pub use system::{DramStats, DramSystem, RowPolicy, ServiceTime};
pub use timing::DramTiming;
