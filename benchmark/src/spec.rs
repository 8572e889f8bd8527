//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` is this table rendered
//! (`--spec`); README.md says what each per-layer metric should move.

use melreq_core::api::json::esc;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "kernel_mem8",
        why: "8MEM-1 under the five Figure 2 policies: request queue full, 8 cores blocked on DRAM, so memctrl, dram and core::hierarchy do most of the work; the paper's headline configuration",
    },
    Workload {
        name: "kernel_ilp4",
        why: "four ILP-class apps (armo): cpu, cache and stream generation dominate and the controller is nearly idle; bypasses memctrl/dram optimisations, exercises core-model ones",
    },
    Workload {
        name: "sweep_warm",
        why: "reproduce in miniature: 12 mixes x 5 policies on 2 threads from a warm on-disk store, short windows, so exec scheduling, store reads, snapshot decode and fork cost show; set-up is the cold sweep",
    },
    Workload {
        name: "serve_hit",
        why: "closed loop, 1 keep-alive connection over 32 cached /run bodies: netio, HTTP parse, cache lookup, envelope render and flush do all the work and the kernel none",
    },
    Workload {
        name: "serve_miss",
        why: "same server and connection, every body unique: each request queues, restores a warm-up, simulates, then writes (and after 256 evicts from) the response cache; a hit-path change must not move it",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so a
/// metric that has no meaning on some workload (tail latencies on eight
/// passes, the simulated ME-LREQ gain on a service) is per-layer instead.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "sim_kinstr_per_s", unit: "kinstr/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "closed_rps", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "p50_ms", unit: "ms", better: "lower", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// With `--trace 1` every workload reports every one of these; a metric the
/// workload does not measure reads 0 (README.md lists who measures what).
pub const PER_LAYER: &[PerLayer] = &[
    // Layer drives (D): seeded micro-loops over one crate's public calls.
    pl("workloads.gen_ns_per_instr.mem", "ns", "lower"),
    pl("workloads.gen_ns_per_instr.ilp", "ns", "lower"),
    pl("cpu.solo_ilp_kinstr_per_s", "kinstr/s", "higher"),
    pl("cpu.solo_mem_kinstr_per_s", "kinstr/s", "higher"),
    pl("cache.l1d_hit_ns", "ns", "lower"),
    pl("cache.l2_fill_evict_ns", "ns", "lower"),
    pl("cache.mshr_alloc_complete_ns", "ns", "lower"),
    pl("dram.decode_ns", "ns", "lower"),
    pl("dram.issue_seq_ns", "ns", "lower"),
    pl("dram.issue_rand_ns", "ns", "lower"),
    pl("memctrl.select32_ns.hf-rf", "ns", "lower"),
    pl("memctrl.select32_ns.lreq", "ns", "lower"),
    pl("memctrl.select32_ns.me", "ns", "lower"),
    pl("memctrl.select32_ns.me-lreq", "ns", "lower"),
    pl("memctrl.select32_ns.fq", "ns", "lower"),
    pl("memctrl.select32_ns.stf", "ns", "lower"),
    pl("memctrl.select32_ns.bliss", "ns", "lower"),
    pl("memctrl.select32_ns.tcm", "ns", "lower"),
    pl("memctrl.select64_ns.me-lreq", "ns", "lower"),
    pl("core.api.request_parse_us", "us", "lower"),
    pl("core.api.canonical_us", "us", "lower"),
    pl("core.api.report_render_us", "us", "lower"),
    pl("snap.enc_mb_per_s", "MB/s", "higher"),
    pl("snap.dec_mb_per_s", "MB/s", "higher"),
    pl("snap.seal_open_mb_per_s", "MB/s", "higher"),
    pl("exec.job_overhead_us", "us", "lower"),
    pl("serve.parse_us", "us", "lower"),
    pl("serve.response_bytes_us", "us", "lower"),
    // Simulated statistics of the ME-LREQ runs (T): must repeat exactly;
    // a host-speed change that moves one has changed the model.
    pl("sim.melreq_gain_pct", "%", "higher"),
    pl("memctrl.read_lat_cyc", "cyc", "lower"),
    pl("memctrl.queue_occupancy_mean", "count", "lower"),
    pl("memctrl.grant_candidates_mean", "count", "higher"),
    pl("dram.row_hit_rate", "ratio", "higher"),
    pl("dram.grants", "count", "lower"),
    pl("cpu.ipc_sum", "1/cyc", "higher"),
    pl("core.sim_cycles", "cyc", "lower"),
    // Host time inside the kernel, from the traced pass (T).
    pl("core.run_window_ms.hf-rf", "ms", "lower"),
    pl("core.run_window_ms.me", "ms", "lower"),
    pl("core.run_window_ms.rr", "ms", "lower"),
    pl("core.run_window_ms.lreq", "ms", "lower"),
    pl("core.run_window_ms.me-lreq", "ms", "lower"),
    pl("core.mcyc_per_s", "Mcyc/s", "higher"),
    pl("core.host_ns_per_grant", "ns", "lower"),
    pl("core.ff_speedup", "ratio", "higher"),
    pl("core.restore_ms", "ms", "lower"),
    pl("core.swap_policy_us", "us", "lower"),
    pl("core.snapshot_ms", "ms", "lower"),
    pl("core.snapshot_kb", "KB", "lower"),
    pl("core.profile_ms", "ms", "lower"),
    pl("core.ipc_single_ms", "ms", "lower"),
    pl("core.warmup_ms", "ms", "lower"),
    pl("core.store.load_ms", "ms", "lower"),
    pl("core.store.save_ms", "ms", "lower"),
    pl("core.store.hit_rate", "ratio", "higher"),
    pl("exec.speedup_2t", "ratio", "higher"),
    pl("exec.jobs_per_pass", "count", "lower"),
    pl("exec.worker_busy_pct", "%", "higher"),
    // The service, from /metrics deltas and the benchmark's own client (T).
    pl("serve.stage.parse_us", "us", "lower"),
    pl("serve.stage.queue_us", "us", "lower"),
    pl("serve.stage.execute_us", "us", "lower"),
    pl("serve.stage.render_us", "us", "lower"),
    pl("serve.stage.flush_us", "us", "lower"),
    pl("serve.cache_hit_ratio", "ratio", "higher"),
    pl("serve.cache_evictions", "count", "lower"),
    pl("serve.resp_bytes", "count", "lower"),
    pl("serve.p90_ms", "ms", "lower"),
    pl("serve.p99_ms", "ms", "lower"),
    pl("serve.p999_ms", "ms", "lower"),
    pl("serve.clientconn_hit_p50_ms", "ms", "lower"),
    pl("serve.conc2_rps", "1/s", "higher"),
    pl("serve.start_ms", "ms", "lower"),
    pl("serve.drain_ms", "ms", "lower"),
    // Tap and tracing overheads (T).
    pl("audit.overhead_ratio", "ratio", "lower"),
    pl("obs.overhead_ratio", "ratio", "lower"),
    pl("prof.overhead_ratio", "ratio", "lower"),
    // VmHWM after the traced and reference passes, before the drives. Not
    // end-to-end: the kernel reclaims idle pages under this VM (kdamond), so
    // identical runs read 8.6 to 14 MB.
    pl("host.peak_rss_mb", "MB", "lower"),
];

/// Complete cold set-ups per untraced run behind `setup_s`.
pub const SETUPS: usize = 3;

/// How long one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, esc(w.why)))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}
