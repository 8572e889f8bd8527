//! Foundational types and statistics for the `melreq` simulator.
//!
//! This crate is the bottom of the `melreq` dependency graph. It defines:
//!
//! * the primitive simulation types shared by every other crate —
//!   [`Cycle`], [`Addr`], [`CoreId`], [`AccessKind`];
//! * [`StreamingMean`], the one streaming statistic: a read latency is a
//!   sum and a count, and nothing reads a distribution (event counts are
//!   plain `u64` fields on the component that counts them);
//! * the paper's evaluation metrics — [`fairness::smt_speedup`] (Snavely &
//!   Tullsen weighted speedup, Section 4.1) and [`fairness::unfairness`]
//!   (max-slowdown / min-slowdown ratio, Section 5.3);
//! * [`fixedpoint`] quantization helpers used by the hardware priority
//!   table of Figure 1 (10-bit entries).
//!
//! All statistics are plain-old-data with `O(1)` update cost so they can be
//! embedded in the cycle loop of a cycle-level simulator without perturbing
//! its performance characteristics.

pub mod bandwidth;
pub mod fairness;
pub mod fixedpoint;
pub mod mean;
pub mod types;

pub use fairness::{smt_speedup, unfairness, FairnessReport};
pub use fixedpoint::PriorityFixed;
pub use mean::StreamingMean;
pub use types::{line_addr, AccessKind, Addr, CoreId, Cycle, CACHE_LINE_BYTES, CACHE_LINE_SHIFT};
