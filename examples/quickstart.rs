//! Quickstart: build the paper's machine, run one multiprogrammed
//! workload under ME-LREQ, and print what the memory system did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use melreq::core::profile::profile_app;
use melreq::workloads::{mix_by_name, SliceKind};
use melreq::{PolicyKind, System, SystemConfig};

fn main() {
    // 1. Pick a workload from the paper's Table 3: two memory-intensive
    //    programs (wupwise + swim) on a two-core machine.
    let mix = mix_by_name("2MEM-1");
    println!(
        "workload {}: {}",
        mix.name,
        mix.apps().iter().map(|a| a.name).collect::<Vec<_>>().join(" + ")
    );

    // 2. Off-line profiling step (Equation 1): measure each program's
    //    memory efficiency alone on the single-core reference machine.
    let profiles: Vec<_> =
        mix.apps().iter().map(|a| profile_app(a, SliceKind::Profiling, 40_000)).collect();
    for p in &profiles {
        println!(
            "  profiled {:8}  IPC={:.2}  BW={:.2} GB/s  ME={:.3}",
            p.name, p.ipc, p.bw_gbs, p.me
        );
    }
    let me: Vec<f64> = profiles.iter().map(|p| p.me).collect();

    // 3. Build the paper's machine (Table 1) with the ME-LREQ policy and
    //    the profiled ME values loaded into the priority tables.
    let cfg = SystemConfig::paper(mix.cores(), PolicyKind::MeLreq);
    println!("\n{}\n", cfg.describe());
    let mut sys = System::new(cfg, mix.eval_streams(0), &me);

    // 4. Run until each core commits 50k instructions (20k warm-up).
    let out = sys.run_measured(20_000, 50_000, 1 << 28);
    assert!(!out.timed_out);

    println!("ran {} measured cycles", out.cycles);
    for (i, app) in mix.apps().iter().enumerate() {
        println!(
            "  core {i} ({:8})  IPC={:.3}  mean read latency={:.0} cycles",
            app.name, out.ipc[i], out.read_latency[i]
        );
    }
    let served = sys.controller().stats().served();
    println!(
        "total DRAM bandwidth: {:.2} GB/s;  DRAM row-hit rate: {:.1}%",
        out.total_bandwidth_gbs(3.2e9),
        served.hit_rate() * 100.0
    );
    println!(
        "controller served {} reads / {} writes under policy {}",
        served.reads,
        served.writes,
        sys.controller().policy_name()
    );
}
