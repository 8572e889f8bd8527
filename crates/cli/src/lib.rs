//! Command parsing and command implementations for the `melreq` CLI.
//!
//! The binary (`src/main.rs`) is a thin shell over this library so the
//! parsing and the command logic are unit-testable.
//!
//! ```text
//! melreq profile [--apps swim,mcf] [--instructions N]
//! melreq run <MIX> [--policy me-lreq] [--instructions N] [--warmup N]
//! melreq trace <MIX> [--policy me-lreq] [--out trace.json] [--series s.csv]
//! melreq compare <MIX> [--policies hf-rf,rr,lreq,me,me-lreq,fq,stf]
//! melreq sweep [--kind mem|mix] [--policies ...]
//! melreq config [--cores N]
//! ```

pub mod commands;
mod figures;
pub mod parse;

pub use commands::run_command;
pub use parse::{parse_args, Command, ObsArgs, PolicySpec};
