//! Extensibility demo: plug a *custom* scheduling policy into the
//! simulator through the public [`melreq::SchedulerPolicy`] trait and
//! race it against the paper's schemes.
//!
//! The custom policy here is **BW-LREQ**, a variant suggested by the
//! analysis in DESIGN.md: it replaces the memory-efficiency numerator
//! (`ME = IPC/BW`) with plain `1/BW_single`, on the theory that the
//! marginal weighted-speedup value of serving a request scales with the
//! inverse of the program's request rate alone.
//!
//! ```text
//! cargo run --release --example custom_scheduler [4MEM-4]
//! ```

use melreq::core::profile::profile_app;
use melreq::experiment::{run_mix, ExperimentOptions, ProfileCache};
use melreq::memctrl::policy::PolicyKind;
use melreq::memctrl::PriorityTable;
use melreq::stats::CoreId;
use melreq::workloads::{mix_by_name, SliceKind};
use melreq::{SchedulerPolicy, System, SystemConfig};

/// `1/(BW_single · PendingRead)` priority, reusing the paper's hardware
/// table for the quantized quotients.
#[derive(Debug)]
struct BwLreq {
    table: PriorityTable,
}

impl BwLreq {
    fn new(bw_gbs: &[f64]) -> Self {
        let inv_bw: Vec<f64> = bw_gbs.iter().map(|b| 1.0 / b.max(1e-3)).collect();
        BwLreq { table: PriorityTable::new(&inv_bw) }
    }
}

impl SchedulerPolicy for BwLreq {
    fn name(&self) -> &'static str {
        "BW-LREQ"
    }

    /// Highest table value first, ties to the lowest core id. The trait
    /// provides the rest: reads bypass writes (`read_first`), and the
    /// chain goes hit-first, then oldest (`hit_first`).
    fn core_key(&self, core: CoreId, pending: &[u32]) -> (u64, u16) {
        let priority = self.table.lookup(core, pending[core.index()].max(1));
        (u64::from(!priority.raw()), core.0)
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "4MEM-4".to_string());
    let mix = mix_by_name(&name);
    let opts = ExperimentOptions {
        instructions: 80_000,
        warmup: 40_000,
        profile_instructions: 40_000,
        ..Default::default()
    };
    let cache = ProfileCache::new();

    // Reference results through the standard harness.
    println!("workload {}:", mix.name);
    for kind in [PolicyKind::HfRf, PolicyKind::Lreq, PolicyKind::MeLreq] {
        let r = run_mix(&mix, &kind, &opts, &cache);
        println!("  {:8} speedup={:.3} unfair={:.3}", r.policy, r.smt_speedup, r.unfairness);
    }

    // The custom policy, driven manually: profile, build, run, score.
    let profiles: Vec<_> = mix
        .apps()
        .iter()
        .map(|a| profile_app(a, SliceKind::Profiling, opts.profile_instructions))
        .collect();
    let bw: Vec<f64> = profiles.iter().map(|p| p.bw_gbs).collect();
    let ipc_single: Vec<f64> = mix
        .apps()
        .iter()
        .map(|a| profile_app(a, SliceKind::Evaluation(0), opts.instructions).ipc)
        .collect();

    let mut cfg = SystemConfig::paper(mix.cores(), PolicyKind::HfRf);
    cfg.policy = PolicyKind::HfRf; // placeholder; we inject the policy below
    let mut sys = System::with_policy(cfg, mix.eval_streams(0), Box::new(BwLreq::new(&bw)));
    let out = sys.run_measured(opts.warmup, opts.instructions, 1 << 30);
    let speedup: f64 = out.ipc.iter().zip(&ipc_single).map(|(m, s)| m / s).sum();
    println!("  {:8} speedup={:.3} (custom policy via SchedulerPolicy trait)", "BW-LREQ", speedup);
}
