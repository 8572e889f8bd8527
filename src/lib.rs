//! # melreq — memory access scheduling for multi-core processors
//!
//! A from-scratch, cycle-level reproduction of *"Memory Access Scheduling
//! Schemes for Systems with Multi-Core Processors"* (Zheng, Lin, Zhang,
//! Zhu — ICPP 2008): the **ME-LREQ** DRAM scheduling policy, the complete
//! set of baseline policies it is evaluated against, and every substrate
//! the study needs — a DDR2 memory model, a memory controller with the
//! paper's hardware priority tables, a two-level cache hierarchy,
//! out-of-order cores, and statistical SPEC CPU2000 workload models.
//!
//! ## Quick start
//!
//! ```
//! use melreq::{PolicyKind, System, SystemConfig};
//! use melreq::workloads::mix_by_name;
//!
//! // The paper's 2-core machine running workload 2MEM-1 (wupwise+swim)
//! // under the ME-LREQ policy, on evaluation slice 0 of both programs.
//! let mix = mix_by_name("2MEM-1");
//! let cfg = SystemConfig::paper(mix.cores(), PolicyKind::MeLreq);
//! let me = vec![0.5, 0.1]; // profiled memory efficiency per core
//! let mut sys = System::new(cfg, mix.eval_streams(0), &me);
//! let out = sys.run_until_targets(5_000, 10_000_000);
//! assert!(out.ipc.iter().all(|&ipc| ipc > 0.0));
//! ```
//!
//! For the paper's full methodology (profiling, single-core references,
//! SMT speedup, unfairness) use [`experiment::run_mix`] — one call of
//! [`experiment::run_tapped`], which runs a mix from reset under a
//! registered policy and also takes the auditor and the trace collector
//! — or [`experiment::run_mix_group`], which forks every policy of a mix
//! from one warm-up and may keep it in a checkpoint store; `melreq reproduce`
//! (the `melreq-cli` crate) regenerates every table and figure into
//! `results/`, and `examples/ablation.rs` the design-choice studies. A
//! policy from outside the registry is a [`SchedulerPolicy`] handed to
//! [`System::with_policy`] (`examples/custom_scheduler.rs`).
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`stats`] | foundational types, streaming statistics, the paper's metrics |
//! | [`trace`] | micro-ops and synthetic instruction-stream generators |
//! | [`dram`] | cycle-level DDR2 model (channels, banks, close-page timing) |
//! | [`cache`] | set-associative write-back caches and MSHRs |
//! | [`cpu`] | the out-of-order core model |
//! | [`memctrl`] | the memory controller and **all scheduling policies** |
//! | [`workloads`] | the 26 SPEC2000 models and the Table 3 mixes |
//! | [`core`](mod@core) | system composition, cycle loop, experiments |

pub use melreq_cache as cache;
pub use melreq_core as core;
pub use melreq_cpu as cpu;
pub use melreq_dram as dram;
pub use melreq_memctrl as memctrl;
pub use melreq_stats as stats;
pub use melreq_trace as trace;
pub use melreq_workloads as workloads;

pub use melreq_core::experiment;
pub use melreq_core::{RunOutcome, System, SystemConfig};
pub use melreq_memctrl::policy::PolicyKind;
pub use melreq_memctrl::{MemoryController, PriorityTable, SchedulerPolicy};
pub use melreq_workloads::{AppClass, Mix, MixKind, SliceKind};
