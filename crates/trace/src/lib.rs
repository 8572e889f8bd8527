//! Micro-op records and synthetic instruction-stream generation.
//!
//! The paper drives its simulator with SPEC CPU2000 SimPoint slices. This
//! crate provides the substitute: *statistical* instruction streams whose
//! parameters (memory-instruction fraction, working-set size, spatial
//! locality, dependency structure, op mix) are tuned per benchmark in
//! `melreq-workloads`. A stream is an infinite, seeded, reproducible
//! iterator of [`MicroOp`]s; "taking a different simpoint" of the same
//! program maps to re-seeding the same generator.
//!
//! Layers:
//!
//! * [`op`] — the [`MicroOp`] record consumed by the CPU model: program
//!   counter, operation kind (with data address for loads/stores), and a
//!   register-dependency distance;
//! * [`addrgen`] — composable data-address generators: sequential runs,
//!   strided walks, uniform working-set references, and pointer-chase
//!   chains;
//! * [`synthetic`] — the statistical program model combining an op mix,
//!   an address generator, dependency-distance sampling, and a code
//!   footprint for the instruction-fetch stream;
//! * [`tape`] — one stream's output recorded once and read by every run
//!   forked from the same state.

pub mod addrgen;
pub mod op;
pub mod phased;
pub mod synthetic;
pub mod tape;

pub use addrgen::{AddressPattern, AddressStream};
pub use op::{InstrStream, MicroOp, OpKind, WarmHints};
pub use phased::PhasedStream;
pub use synthetic::{OpMix, StreamParams, SyntheticStream};
pub use tape::{OpTape, TapedStream};
