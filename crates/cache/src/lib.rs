//! Set-associative write-back caches with MSHRs.
//!
//! Implements the cache hierarchy components of Table 1:
//!
//! * per-core L1 instruction and data caches — 64 KB, 2-way, 64 B lines
//!   (1-cycle I / 3-cycle D hit latency);
//! * a shared L2 — 4 MB, 4-way, 64 B lines, 15-cycle hit latency;
//! * miss-status holding registers — 8 (L1I), 32 (L1D), 64 (L2) entries.
//!
//! This crate provides the *components* ([`CacheArray`], [`MshrFile`],
//! [`CacheConfig`]); the composition into a two-level hierarchy with a
//! memory controller underneath lives in `melreq-core`, which owns the
//! inter-level transaction plumbing.
//!
//! Caches are write-back, write-allocate, true-LRU. Replacement returns
//! dirty victims to the caller, which is responsible for writing them to
//! the next level (that is where DRAM write traffic comes from).

pub mod array;
pub mod config;
pub mod mshr;

pub use array::{CacheArray, Evicted};
pub use config::CacheConfig;
pub use mshr::{AllocOutcome, MshrFile, Waiters};
