//! Ablation studies of the design choices called out in DESIGN.md, plus
//! the paper's future-work extension (online ME estimation).
//!
//! Four studies, each on a 4-core memory-intensive workload:
//!
//! 1. **Priority-table quantization** — log-domain (this repo's default)
//!    vs linear (the literal reading of the paper's "scaled
//!    approximately") vs exact floating point (no table — not realizable
//!    in hardware, the fidelity ceiling).
//! 2. **Tie-breaking** — the paper's random pick among equal-priority
//!    cores vs deterministically favouring the lowest core id.
//! 3. **Write-drain thresholds** — the paper's (½, ¼) hysteresis vs
//!    tighter and looser settings.
//! 4. **Offline vs online ME** — profiled tables vs run-time estimation
//!    (`ME-LREQ-ON`), which needs no profiling pass at all.
//!
//! ```text
//! cargo run --release --example ablation > results/ablation.txt
//! ```

use melreq_core::experiment::{run_mix, ExperimentOptions, ProfileCache};
use melreq_core::profile::profile_app;
use melreq_core::{System, SystemConfig};
use melreq_memctrl::policy::{MeLreq, PolicyKind, SchedulerPolicy};
use melreq_memctrl::PriorityTable;
use melreq_stats::types::CoreId;
use melreq_workloads::{mix_by_name, Mix, SliceKind};

/// ME-LREQ with exact floating-point priorities (no 10-bit table) and
/// lowest-core-id tie-breaking: the fidelity ceiling of study 1 and the
/// deterministic arm of study 2 in one policy.
#[derive(Debug)]
struct ExactMeLreq {
    me: Vec<f64>,
}

impl SchedulerPolicy for ExactMeLreq {
    fn name(&self) -> &'static str {
        "ME-LREQ-exact"
    }

    /// Largest `ME/PendingRead` first — finite and positive, so the bit
    /// patterns order as the values do — ties to the lowest core id.
    fn core_key(&self, core: CoreId, pending: &[u32]) -> (u64, u16) {
        let priority = self.me[core.index()] / pending[core.index()].max(1) as f64;
        (!priority.to_bits(), core.0)
    }
}

fn speedup_with_policy(
    mix: &Mix,
    policy: Box<dyn SchedulerPolicy>,
    ipc_single: &[f64],
    opts: &ExperimentOptions,
) -> f64 {
    let cfg = SystemConfig::paper(mix.cores(), PolicyKind::HfRf);
    let mut sys = System::with_policy(cfg, mix.eval_streams(opts.eval_slice), policy);
    let out = sys.run_measured(opts.warmup, opts.instructions, 1 << 34);
    assert!(!out.timed_out, "ablation run timed out");
    out.ipc.iter().zip(ipc_single).map(|(m, s)| m / s).sum()
}

fn main() {
    let opts = ExperimentOptions::default();
    let cache = ProfileCache::new();
    let mix = mix_by_name("4MEM-4");
    println!("Ablation studies on {} ({} instructions/core)\n", mix.name, opts.instructions);

    // Shared inputs.
    let me: Vec<f64> = mix
        .apps()
        .iter()
        .map(|a| profile_app(a, SliceKind::Profiling, opts.profile_instructions).me)
        .collect();
    let ipc_single: Vec<f64> = mix
        .apps()
        .iter()
        .map(|a| profile_app(a, SliceKind::Evaluation(opts.eval_slice), opts.instructions).ipc)
        .collect();

    // Study 1 + 2: quantization and tie-breaking. Run on the MEM mix and
    // on a MIX workload — the ME dynamic range of a MIX mix (cache-
    // resident apps profile ME in the thousands) is where linear
    // quantization can underflow the low-ME cores.
    println!("1+2. priority representation and tie-breaking:");
    let seed = 0xC0FFEE;
    for probe in [mix, mix_by_name("4MIX-2")] {
        let probe_me: Vec<f64> = probe
            .apps()
            .iter()
            .map(|a| profile_app(a, SliceKind::Profiling, opts.profile_instructions).me)
            .collect();
        let probe_single: Vec<f64> = probe
            .apps()
            .iter()
            .map(|a| profile_app(a, SliceKind::Evaluation(opts.eval_slice), opts.instructions).ipc)
            .collect();
        println!("   on {}:", probe.name);
        let variants: Vec<(&str, Box<dyn SchedulerPolicy>)> = vec![
            ("log-quantized table, random ties (default)", Box::new(MeLreq::new(&probe_me, seed))),
            (
                "linear-quantized table, random ties",
                Box::new(MeLreq::with_table(PriorityTable::new_linear(&probe_me), seed)),
            ),
            ("exact float, lowest-core ties", Box::new(ExactMeLreq { me: probe_me.clone() })),
        ];
        for (label, policy) in variants {
            let s = speedup_with_policy(&probe, policy, &probe_single, &opts);
            println!("     {label:46} speedup = {s:.3}");
        }
    }

    // Study 3: write-drain thresholds.
    println!("\n3. write-drain hysteresis (start/stop of 64-entry buffer):");
    for (start, stop) in [(32usize, 16usize), (48, 24), (16, 8)] {
        let mut cfg = SystemConfig::paper(mix.cores(), PolicyKind::MeLreq);
        cfg.ctrl.drain_start = start;
        cfg.ctrl.drain_stop = stop;
        let mut sys = System::new(cfg, mix.eval_streams(opts.eval_slice), &me);
        let out = sys.run_measured(opts.warmup, opts.instructions, 1 << 34);
        let speedup: f64 = out.ipc.iter().zip(&ipc_single).map(|(m, s)| m / s).sum();
        let marker = if (start, stop) == (32, 16) { " (paper)" } else { "" };
        println!("   drain at {start:>2}/{stop:>2}{marker:8} speedup = {speedup:.3}");
    }

    // Study 3b: page policy + interleaving (the configuration choice the
    // paper makes in Section 4.1).
    println!("\n3b. page policy and interleaving (HF-RF baseline machine):");
    for (label, geometry, ctrl) in [
        (
            "close page + cache-line interleave (paper)",
            melreq_dram::DramGeometry::paper(),
            melreq_memctrl::controller::ControllerConfig::paper(),
        ),
        (
            "open page + page interleave",
            melreq_dram::DramGeometry::paper_page_interleaved(),
            melreq_memctrl::controller::ControllerConfig::paper_open_page(),
        ),
    ] {
        let mut cfg = SystemConfig::paper(mix.cores(), PolicyKind::HfRf);
        cfg.geometry = geometry;
        cfg.ctrl = ctrl;
        let mut sys = System::new(cfg, mix.eval_streams(opts.eval_slice), &me);
        let out = sys.run_measured(opts.warmup, opts.instructions, 1 << 34);
        let speedup: f64 = out.ipc.iter().zip(&ipc_single).map(|(m, s)| m / s).sum();
        let hit_rate = sys.controller().stats().served().hit_rate();
        println!("   {label:44} speedup = {speedup:.3}  row-hit rate = {:.1}%", hit_rate * 100.0);
    }

    // Study 4: offline profile vs online estimation.
    println!("\n4. offline vs online memory-efficiency (no profiling pass needed online):");
    for kind in [
        PolicyKind::MeLreq,
        PolicyKind::MeLreqOnline { epoch_cycles: 50_000 },
        PolicyKind::MeLreqOnline { epoch_cycles: 10_000 },
    ] {
        let label = match &kind {
            PolicyKind::MeLreqOnline { epoch_cycles } => {
                format!("{} (epoch {})", kind.name(), epoch_cycles)
            }
            _ => kind.name().to_string(),
        };
        let r = run_mix(&mix, &kind, &opts, &cache);
        println!("   {label:28} speedup = {:.3}  unfair = {:.3}", r.smt_speedup, r.unfairness);
    }
}
