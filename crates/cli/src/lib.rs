//! Command parsing and command implementations for the `melreq` CLI.
//!
//! The binary (`src/main.rs`) is a thin shell over this library so the
//! parsing and the command logic are unit-testable: [`parse_args`] turns
//! an argument vector into an [`Invocation`] over the verb table in
//! [`parse`], [`run_command`] runs it. The synopsis of every verb and
//! flag is `melreq help` ([`usage`]), rendered from that table.

pub mod commands;
mod figures;
pub mod paper;
pub mod parse;

pub use commands::run_command;
pub use parse::{parse_args, usage, Args, Invocation, ObsArgs, PolicySpec};
