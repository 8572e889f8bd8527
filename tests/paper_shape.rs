//! The paper's claims (`melreq_cli::paper`) scored on reduced-scale runs.
//!
//! Each test scores claims rows by id and asserts exactly the status the
//! row records, so a named deviation that silently closes fails as surely
//! as an agreement that breaks, and an agreement must hold outright: a
//! row's spread is measured across full-scale slices, not at this scale.
//! Everything is seeded and deterministic: no flakiness, only a fixed
//! answer that must not silently change. A row whose verdict at this
//! scale is not its full-scale one is not asserted here
//! (`results/fidelity.txt`, regenerated in CI, still holds it).

use melreq::core::profile::profile_app;
use melreq::experiment::{run_mix_group, ExperimentOptions, MixResult, ProfileCache, RunControl};
use melreq::workloads::{app_by_code, mix_by_name, spec2000, AppClass, SliceKind};
use melreq::PolicyKind;
use melreq_cli::paper::{claims, Evidence};
use std::sync::OnceLock;

/// `mixes` under every policy of `policies`, mix-major like a
/// `reproduce` stage.
fn stage(mixes: &[&str], policies: &[PolicyKind]) -> Vec<MixResult> {
    let opts = ExperimentOptions {
        instructions: 60_000,
        warmup: 30_000,
        profile_instructions: 40_000,
        ..Default::default()
    };
    let (cache, ctl) = (ProfileCache::new(), RunControl::default());
    let run = |m: &&str| run_mix_group(&mix_by_name(m), policies, &opts, &cache, None, &ctl);
    mixes.iter().flat_map(run).collect()
}

/// The 4-core MEM stage Figures 2, 4 and 5 share: the two Figure 4
/// probes under the five Figure 2 schemes, run once for all three tests.
fn mem4() -> Evidence<'static> {
    static MEM4: OnceLock<Vec<MixResult>> = OnceLock::new();
    let stage = MEM4.get_or_init(|| stage(&["4MEM-1", "4MEM-5"], &PolicyKind::figure2_set()));
    Evidence { profiles: &[], fig2: vec![stage], fig3: &[] }
}

/// Asserts that each row of the space-separated `ids` scores on `ev` with
/// its recorded status as the verdict.
fn assert_rows(ev: &Evidence<'_>, ids: &str) {
    let ids: Vec<&str> = ids.split(' ').collect();
    let rows: Vec<_> = claims().into_iter().filter(|c| ids.contains(&c.id)).collect();
    assert_eq!(rows.len(), ids.len(), "an id names no row: {ids:?}");
    let broken: Vec<String> = (rows.iter())
        .map(|c| c.score(ev).unwrap_or_else(|| panic!("{} scores nothing here", c.id)))
        .filter(|s| s.verdict != s.claim.status)
        .map(|s| format!("{}: {:?} {} {:?}", s.claim.id, s.verdict, s.value, s.margin))
        .collect();
    assert!(broken.is_empty(), "verdicts that are not the recorded status: {broken:#?}");
}

#[test]
fn table2_me_separates_classes() {
    let profiles: Vec<_> =
        spec2000().iter().map(|a| profile_app(a, SliceKind::Profiling, 40_000)).collect();
    // perlbmk agrees at the full 60 000-instruction profile but inverts
    // one pair at this one.
    let table2 = claims().into_iter().map(|c| c.id).filter(|id| id.starts_with("table2."));
    let ids: Vec<&str> = table2.filter(|id| *id != "table2.me.perlbmk").collect();
    assert_rows(&Evidence { profiles: &profiles, fig2: vec![], fig3: &[] }, &ids.join(" "));
    // Calibration's first property (DESIGN.md): every ILP app profiles a
    // higher ME than every MEM app.
    let me = |class| profiles.iter().zip(spec2000()).filter(move |(_, a)| a.class == class);
    let worst_ilp = me(AppClass::Ilp).map(|(p, _)| p.me).fold(f64::MAX, f64::min);
    assert!(me(AppClass::Mem).all(|(p, _)| p.me < worst_ilp), "an MEM app above {worst_ilp}");
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
    assert_rows(&mem4(), "fig2.mem4.lreq fig2.mem4.me-lreq");
    let mix2 = stage(&["2MIX-1", "2MIX-4"], &PolicyKind::figure2_set());
    let ev = Evidence { fig2: vec![mem4().fig2[0], &mix2], ..mem4() };
    assert_rows(&ev, "fig2.mix2.no-contest fig2.me.avg fig2.rr.max");
}

#[test]
fn figure3_fixed_priorities_swing_wildly() {
    let fig3 = stage(&["4MEM-1", "4MEM-4"], &PolicyKind::figure3_set());
    let ev = Evidence { profiles: &[], fig2: vec![], fig3: &fig3 };
    assert_rows(&ev, "fig3.4mem-1.fix-gain fig3.4mem-1.fix-loss");
    // The two orders favour opposite ends of 4MEM-4, so the core each
    // starves flips with the order.
    let run = |p| fig3.iter().find(|r| r.mix.name == "4MEM-4" && r.policy == p).unwrap();
    let (f3210, f0123) = (run("FIX-3210"), run("FIX-0123"));
    let sd = |r: &MixResult, i: usize| r.ipc_single[i] / r.ipc_multi[i];
    assert!(sd(f3210, 0) > sd(f0123, 0), "core 0 must suffer more under FIX-3210");
    assert!(sd(f0123, 3) > sd(f3210, 3), "core 3 must suffer more under FIX-0123");
}

#[test]
fn figure4_scheduling_affects_read_latency() {
    let ids = "fig4.starved.hf-rf fig4.starved.me fig4.starved.me-lreq fig4.mean.me-lreq-rank";
    assert_rows(&mem4(), ids);
}

#[test]
fn figure5_me_is_less_fair_than_me_lreq() {
    let ids = "fig5.me.avg-cost fig5.me.max-cost fig5.me.least-fair fig5.me-lreq.fairest";
    assert_rows(&mem4(), ids);
}
