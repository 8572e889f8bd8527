//! Shape tests against the paper's qualitative claims, at reduced scale.
//!
//! These are the "does the reproduction still reproduce?" regression
//! tests: small enough for CI, large enough that the orderings are
//! stable (everything is seeded and deterministic, so there is no
//! flakiness — only a fixed answer that must not silently change).

use melreq::core::profile::profile_app;
use melreq::experiment::{run_mix_group, ExperimentOptions, MixResult, ProfileCache, RunControl};
use melreq::workloads::{app_by_code, mix_by_name, spec2000, AppClass, SliceKind};
use melreq::{Mix, PolicyKind};

fn opts() -> ExperimentOptions {
    ExperimentOptions {
        instructions: 60_000,
        warmup: 30_000,
        profile_instructions: 40_000,
        ..Default::default()
    }
}

/// `mix` under every policy of `policies` from one shared warm-up, in
/// input order (policy 0 is the baseline).
fn compare(
    mix: &Mix,
    policies: &[PolicyKind],
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> Vec<MixResult> {
    run_mix_group(mix, policies, opts, cache, None, &RunControl::default())
}

#[test]
fn table2_me_separates_classes() {
    // Every ILP app must profile a higher memory efficiency than every
    // MEM app — the property Table 2's classification rests on.
    let mut worst_ilp = f64::INFINITY;
    let mut best_mem = 0.0f64;
    for a in spec2000() {
        let p = profile_app(&a, SliceKind::Profiling, 40_000);
        match a.class {
            AppClass::Ilp => worst_ilp = worst_ilp.min(p.me),
            AppClass::Mem => best_mem = best_mem.max(p.me),
        }
    }
    assert!(worst_ilp > best_mem, "ILP floor {worst_ilp} must exceed MEM ceiling {best_mem}");
}

#[test]
fn table2_streaming_apps_demand_most_bandwidth() {
    let swim = profile_app(&app_by_code('c'), SliceKind::Profiling, 40_000);
    let facerec = profile_app(&app_by_code('n'), SliceKind::Profiling, 40_000);
    let eon = profile_app(&app_by_code('t'), SliceKind::Profiling, 40_000);
    assert!(swim.bw_gbs > 2.0 * facerec.bw_gbs, "{} vs {}", swim.bw_gbs, facerec.bw_gbs);
    assert!(facerec.bw_gbs > 10.0 * eon.bw_gbs.max(1e-3), "{}", eon.bw_gbs);
    assert!(swim.me < facerec.me && facerec.me < eon.me);
}

#[test]
fn figure2_me_lreq_beats_baseline_on_4mem() {
    // The headline claim at reduced scale: averaged over two 4-core
    // memory-intensive workloads, ME-LREQ and LREQ outperform the HF-RF
    // baseline. (A single mix at this slice length can sit within noise
    // of the baseline; the average is stable — and deterministic.)
    let cache = ProfileCache::new();
    let o = ExperimentOptions { instructions: 100_000, warmup: 40_000, ..opts() };
    let (mut lreq, mut melreq) = (1.0, 1.0);
    for name in ["4MEM-1", "4MEM-6"] {
        let cmp = compare(
            &mix_by_name(name),
            &[PolicyKind::HfRf, PolicyKind::Lreq, PolicyKind::MeLreq],
            &o,
            &cache,
        );
        lreq *= cmp[1].smt_speedup / cmp[0].smt_speedup;
        melreq *= cmp[2].smt_speedup / cmp[0].smt_speedup;
    }
    assert!(lreq.sqrt() > 1.0, "LREQ should beat HF-RF on average, got {}", lreq.sqrt());
    assert!(melreq.sqrt() > 1.0, "ME-LREQ should beat HF-RF on average, got {}", melreq.sqrt());
}

#[test]
fn figure3_fixed_priorities_swing_wildly() {
    // FIX-3210 and FIX-0123 must produce clearly different per-core
    // outcomes on an asymmetric workload (the paper's Figure 3 point).
    let cache = ProfileCache::new();
    let mix = mix_by_name("4MEM-4");
    let cmp = compare(&mix, &PolicyKind::figure3_set(), &opts(), &cache);
    let f3210 = &cmp[2];
    let f0123 = &cmp[3];
    // The favoured core differs, so the per-core slowdown patterns differ.
    let sd = |r: &MixResult, i: usize| r.ipc_single[i] / r.ipc_multi[i];
    assert!(
        sd(f3210, 0) > sd(f0123, 0),
        "core 0 must suffer more under FIX-3210: {} vs {}",
        sd(f3210, 0),
        sd(f0123, 0)
    );
    assert!(
        sd(f0123, 3) > sd(f3210, 3),
        "core 3 must suffer more under FIX-0123: {} vs {}",
        sd(f0123, 3),
        sd(f3210, 3)
    );
}

#[test]
fn figure4_scheduling_affects_read_latency() {
    let cache = ProfileCache::new();
    let mix = mix_by_name("4MEM-5");
    let cmp =
        compare(&mix, &[PolicyKind::HfRf, PolicyKind::Me, PolicyKind::MeLreq], &opts(), &cache);
    // The fixed-priority ME scheme must produce a wider per-core latency
    // spread than the baseline (the starvation signature of Fig. 4 right).
    let spread = |r: &MixResult| {
        let max = r.read_latency.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = r.read_latency.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    };
    assert!(
        spread(&cmp[1]) > spread(&cmp[0]),
        "ME must starve someone: spread {} vs baseline {}",
        spread(&cmp[1]),
        spread(&cmp[0])
    );
    // And ME-LREQ must keep the spread below the fixed-priority scheme.
    assert!(
        spread(&cmp[2]) < spread(&cmp[1]),
        "ME-LREQ must balance better than ME: {} vs {}",
        spread(&cmp[2]),
        spread(&cmp[1])
    );
}

#[test]
fn figure5_me_is_less_fair_than_me_lreq() {
    let cache = ProfileCache::new();
    let mix = mix_by_name("4MEM-4");
    let cmp = compare(&mix, &[PolicyKind::Me, PolicyKind::MeLreq], &opts(), &cache);
    assert!(
        cmp[0].unfairness > cmp[1].unfairness,
        "fixed ME priority must be less fair than ME-LREQ: {} vs {}",
        cmp[0].unfairness,
        cmp[1].unfairness
    );
}
