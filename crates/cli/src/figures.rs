//! The exact text of the paper artifacts committed under `results/`:
//! Table 2 (+ Table 3) and Figures 2–5, rendered from the profiles and
//! per-stage result sets `melreq reproduce` already holds.
//!
//! Every grid renderer takes one stage's results in the executor's
//! `(mix-major, policy-minor)` order together with the stage's policies,
//! and returns the complete file contents, ending in a pointer to the
//! file's rows of the claims table ([`crate::paper`]).

use crate::paper::{footer, table2_me};
use melreq_core::experiment::{ExperimentOptions, MixResult};
use melreq_core::profile::AppProfile;
use melreq_core::report::{format_table, pct_over};
use melreq_memctrl::policy::PolicyKind;
use melreq_workloads::{all_mixes, spec2000, MixKind};
use std::fmt::Write as _;

/// Geometric mean for "average improvement" rows (ratios average
/// multiplicatively); 1.0 for an empty series.
pub(crate) fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// SMT speedup of policy column `j` relative to the baseline (policy 0),
/// one value per mix of the stage, in mix order.
pub(crate) fn relative(
    results: &[MixResult],
    policies: usize,
    j: usize,
) -> impl Iterator<Item = f64> + '_ {
    results.chunks(policies).map(move |runs| runs[j].smt_speedup / runs[0].smt_speedup)
}

/// Policy column `j`'s Figure 2 "avg vs HF-RF": the geometric mean of
/// [`relative`] over a stage of `width` policies per mix.
pub(crate) fn avg_gain(results: &[MixResult], width: usize, j: usize) -> f64 {
    geomean(relative(results, width, j))
}

/// Policy column `j`'s arithmetic mean of `metric` over a stage of
/// `width` policies per mix: the "average" row of Figures 4 and 5.
pub(crate) fn avg(
    results: &[MixResult],
    width: usize,
    j: usize,
    metric: fn(&MixResult) -> f64,
) -> f64 {
    let per_mix = results.chunks(width);
    per_mix.clone().map(|runs| metric(&runs[j])).sum::<f64>() / per_mix.len() as f64
}

/// The shape Figures 2–5 share: one row per mix, one column per policy,
/// each cell rendered from the run and its mix's baseline (policy 0)
/// speedup, plus an optional per-policy footer row.
fn grid_table(
    policies: &[PolicyKind],
    results: &[MixResult],
    cell: impl Fn(&MixResult, f64) -> String,
    footer: Option<(&str, &dyn Fn(usize) -> String)>,
) -> String {
    let mut rows: Vec<Vec<String>> = results
        .chunks(policies.len())
        .map(|runs| {
            let base = runs[0].smt_speedup;
            std::iter::once(runs[0].mix.name.to_string())
                .chain(runs.iter().map(|r| cell(r, base)))
                .collect()
        })
        .collect();
    if let Some((label, value)) = footer {
        rows.push(
            std::iter::once(label.to_string()).chain((0..policies.len()).map(value)).collect(),
        );
    }
    let headers: Vec<&str> =
        std::iter::once("workload").chain(policies.iter().map(PolicyKind::name)).collect();
    format_table(&headers, &rows)
}

/// [`grid_table`] of one plain metric with an arithmetic-mean footer
/// (Figures 4 left and 5).
fn mean_table(
    policies: &[PolicyKind],
    results: &[MixResult],
    metric: fn(&MixResult) -> f64,
    fmt: fn(f64) -> String,
) -> String {
    let average = |j| fmt(avg(results, policies.len(), j, metric));
    grid_table(policies, results, |r, _| fmt(metric(r)), Some(("average", &average)))
}

/// **Table 2** — class and memory efficiency of the 26 applications
/// (`profiles` in `spec2000()` order) — followed by **Table 3**, the
/// workload mixes verbatim.
pub(crate) fn table2(profiles: &[AppProfile], profile_instructions: u64) -> String {
    let apps = spec2000();
    assert_eq!(profiles.len(), apps.len(), "one profile per roster application");
    let rows: Vec<Vec<String>> = apps
        .iter()
        .zip(profiles)
        .map(|(a, p)| {
            vec![
                a.name.to_string(),
                a.code.to_string(),
                a.class.to_string(),
                format!("{:.2}", p.ipc),
                format!("{:.3}", p.bw_gbs),
                format!("{:.3}", p.me),
                format!("{:.0}", table2_me(a.name)),
            ]
        })
        .collect();
    let mixes: Vec<Vec<String>> = all_mixes()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.codes.to_string(),
                m.apps().iter().map(|a| a.name).collect::<Vec<_>>().join(","),
            ]
        })
        .collect();
    format!(
        "Table 2 — application class and memory efficiency (profiling slice, \
         {profile_instructions} instructions, single core)\n\n{}\n\
         Absolute ME differs from the paper (different slice lengths and synthetic \
         substitutes). ME-LREQ compares quantize(ME/PendingRead) across cores, so it \
         consumes ME ratios, not only their order. ME (paper) is rows table2.me.<app>.\n{}\n\
         Table 3 — workload mixes\n\n{}\n",
        format_table(
            &["app", "code", "class", "IPC_1", "BW (GB/s)", "ME (measured)", "ME (paper)"],
            &rows
        ),
        footer("table2.me-ratio"),
        format_table(&["mix", "codes", "applications"], &mixes)
    )
}

/// One Figure 2 block: SMT speedup per mix and scheme, with each scheme's
/// geometric-mean improvement over the HF-RF baseline (policy 0).
pub(crate) fn fig2_block(policies: &[PolicyKind], results: &[MixResult]) -> String {
    let mix = &results[0].mix;
    let kind = match mix.kind {
        MixKind::Mem => "MEM",
        MixKind::Mixed => "MIX",
    };
    let table = grid_table(
        policies,
        results,
        |r, _| format!("{:.3}", r.smt_speedup),
        Some(("avg vs HF-RF", &|j| pct_over(avg_gain(results, policies.len(), j), 1.0))),
    );
    format!("-- {}-core {kind} workloads --\n{table}\n", mix.cores())
}

/// **Figure 2** — SMT speedup of the five schemes, one block per
/// (core count, MEM/MIX) stage.
pub(crate) fn fig2(
    opts: &ExperimentOptions,
    policies: &[PolicyKind],
    stages: &[Vec<MixResult>],
) -> String {
    let mut out = format!(
        "Figure 2 — SMT speedup by scheduling scheme ({} instructions/core, warm-up {})\n\n",
        opts.instructions, opts.warmup
    );
    for results in stages {
        out.push_str(&fig2_block(policies, results));
    }
    out.push_str(&footer("fig2."));
    out
}

/// **Figure 3** — HF-RF vs ME vs the two straw-man fixed priorities on
/// the four-core mixes, with each scheme's swing over the baseline.
pub(crate) fn fig3(
    opts: &ExperimentOptions,
    policies: &[PolicyKind],
    results: &[MixResult],
) -> String {
    let mut out = format!(
        "Figure 3 — simple and fixed priority schemes, 4-core systems \
         ({} instructions/core)\n\n{}\n\n\
         Per-scheme swing over the baseline (min .. max):\n",
        opts.instructions,
        grid_table(
            policies,
            results,
            |r, base| format!("{:.3} ({})", r.smt_speedup, pct_over(r.smt_speedup / base, 1.0)),
            None
        )
    );
    for (j, p) in policies.iter().enumerate() {
        let (min, max) = relative(results, policies.len(), j)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), rel| (lo.min(rel), hi.max(rel)));
        let _ = writeln!(out, "  {:9} {} .. {}", p.name(), pct_over(min, 1.0), pct_over(max, 1.0));
    }
    let _ = write!(out, "\n{}", footer("fig3."));
    out
}

/// **Figure 4** — average read latency per mix and scheme (left), and the
/// per-core latency of the two probe mixes 4MEM-1 and 4MEM-5 (right),
/// from the four-core MEM stage.
pub(crate) fn fig4(
    opts: &ExperimentOptions,
    policies: &[PolicyKind],
    results: &[MixResult],
) -> String {
    let mut out = format!(
        "Figure 4 (left) — average memory read latency in CPU cycles, 4-core MEM \
         workloads ({} instructions/core)\n\n{}\n\n\
         Figure 4 (right) — per-core read latency, workloads 4MEM-1 and 4MEM-5\n\n",
        opts.instructions,
        mean_table(policies, results, |r| r.mean_read_latency, |v| format!("{v:.0}"))
    );
    for probe in ["4MEM-1", "4MEM-5"] {
        let runs = results
            .chunks(policies.len())
            .find(|runs| runs[0].mix.name == probe)
            .expect("probe mix present in the 4-core MEM stage");
        let apps = runs[0].mix.apps();
        let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                let max = r.read_latency.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let min = r.read_latency.iter().copied().fold(f64::INFINITY, f64::min);
                std::iter::once(r.policy.to_string())
                    .chain(r.read_latency.iter().map(|l| format!("{l:.0}")))
                    .chain(std::iter::once(format!("{:.2}x", max / min.max(1.0))))
                    .collect()
            })
            .collect();
        let headers: Vec<&str> =
            std::iter::once("scheme").chain(names.iter().copied()).chain(["max/min"]).collect();
        let _ =
            writeln!(out, "{probe} ({}):\n{}\n", names.join(", "), format_table(&headers, &rows));
    }
    out.push_str(&footer("fig4."));
    out
}

/// **Figure 5** — unfairness (max slowdown / min slowdown) per mix and
/// scheme, from the four-core MEM stage.
pub(crate) fn fig5(
    opts: &ExperimentOptions,
    policies: &[PolicyKind],
    results: &[MixResult],
) -> String {
    format!(
        "Figure 5 — unfairness (max slowdown / min slowdown), 4-core MEM \
         workloads ({} instructions/core); 1.0 = perfectly fair\n\n{}\n\n{}",
        opts.instructions,
        mean_table(policies, results, |r| r.unfairness, |v| format!("{v:.3}")),
        footer("fig5.")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_workloads::mix_by_name;
    use std::time::Duration;

    fn run(
        mix: &str,
        policy: &PolicyKind,
        smt_speedup: f64,
        unfairness: f64,
        read_latency: [f64; 4],
    ) -> MixResult {
        MixResult {
            mix: mix_by_name(mix),
            policy: policy.name(),
            smt_speedup,
            harmonic_speedup: 0.0,
            unfairness,
            max_slowdown: 0.0,
            ipc_multi: vec![],
            ipc_single: vec![],
            read_latency: read_latency.to_vec(),
            mean_read_latency: read_latency.iter().sum::<f64>() / 4.0,
            queue_occupancy_mean: 0.0,
            grant_candidates_mean: 0.0,
            channel_traffic: vec![],
            me: vec![],
            timed_out: false,
            cancelled: false,
            sim_cycles: 0,
            measured_cycles: 0,
            wall: Duration::ZERO,
            warm_wall: Duration::ZERO,
            warmup_from_checkpoint: false,
        }
    }

    /// Two 4-core MEM mixes (the Figure 4 probes) under a baseline and one
    /// other scheme, mix-major / policy-minor like an executor stage.
    fn two_mix_stage(other: &PolicyKind) -> (Vec<PolicyKind>, Vec<MixResult>) {
        let policies = vec![PolicyKind::HfRf, other.clone()];
        let results = vec![
            run("4MEM-1", &policies[0], 2.0, 1.1, [200.0, 210.0, 220.0, 230.0]),
            run("4MEM-1", &policies[1], 2.2, 1.3, [100.0, 200.0, 300.0, 400.0]),
            run("4MEM-5", &policies[0], 1.0, 1.0, [301.0, 301.0, 301.0, 301.0]),
            run("4MEM-5", &policies[1], 1.21, 1.5, [150.0, 300.0, 450.0, 604.0]),
        ];
        (policies, results)
    }

    fn opts() -> ExperimentOptions {
        ExperimentOptions { instructions: 7000, warmup: 300, ..ExperimentOptions::default() }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn fig2_renders_blocks_with_geomean_footer() {
        let (policies, results) = two_mix_stage(&PolicyKind::MeLreq);
        assert_eq!(
            fig2(&opts(), &policies, &[results]),
            "\
Figure 2 — SMT speedup by scheduling scheme (7000 instructions/core, warm-up 300)

-- 4-core MEM workloads --
    workload  HF-RF  ME-LREQ
----------------------------
      4MEM-1  2.000    2.200
      4MEM-5  1.000    1.210
avg vs HF-RF  +0.0%   +15.4%

Paper claims, scored in fidelity.txt: fig2.mem4.lreq, fig2.mem8.lreq, fig2.mem4.me-lreq, \
fig2.mem8.me-lreq, fig2.mix4.me-lreq, fig2.mix8.me-lreq, fig2.me.avg, fig2.rr.max, \
fig2.mix2.no-contest.
"
        );
    }

    #[test]
    fn fig3_renders_relative_cells_and_swing_block() {
        let fix = PolicyKind::figure3_set().remove(2);
        let (policies, results) = two_mix_stage(&fix);
        assert_eq!(
            fig3(&opts(), &policies, &results),
            "\
Figure 3 — simple and fixed priority schemes, 4-core systems (7000 instructions/core)

workload          HF-RF        FIX-3210
---------------------------------------
  4MEM-1  2.000 (+0.0%)  2.200 (+10.0%)
  4MEM-5  1.000 (+0.0%)  1.210 (+21.0%)


Per-scheme swing over the baseline (min .. max):
  HF-RF     +0.0% .. +0.0%
  FIX-3210  +10.0% .. +21.0%

Paper claims, scored in fidelity.txt: fig3.4mem-1.fix-gain, fig3.4mem-1.fix-loss.
"
        );
    }

    #[test]
    fn fig4_renders_average_row_and_per_core_blocks() {
        let (policies, results) = two_mix_stage(&PolicyKind::MeLreq);
        assert_eq!(
            fig4(&opts(), &policies, &results),
            "\
Figure 4 (left) — average memory read latency in CPU cycles, 4-core MEM workloads \
(7000 instructions/core)

workload  HF-RF  ME-LREQ
------------------------
  4MEM-1    215      250
  4MEM-5    301      376
 average    258      313


Figure 4 (right) — per-core read latency, workloads 4MEM-1 and 4MEM-5

4MEM-1 (wupwise, swim, mgrid, applu):
 scheme  wupwise  swim  mgrid  applu  max/min
---------------------------------------------
  HF-RF      200   210    220    230    1.15x
ME-LREQ      100   200    300    400    4.00x


4MEM-5 (fma3d, gap, swim, applu):
 scheme  fma3d  gap  swim  applu  max/min
-----------------------------------------
  HF-RF    301  301   301    301    1.00x
ME-LREQ    150  300   450    604    4.03x


Paper claims, scored in fidelity.txt: fig4.starved.hf-rf, fig4.starved.me, \
fig4.starved.me-lreq, fig4.mean.me-lreq-rank.
"
        );
    }

    #[test]
    fn fig5_renders_average_row() {
        let (policies, results) = two_mix_stage(&PolicyKind::MeLreq);
        assert_eq!(
            fig5(&opts(), &policies, &results),
            "\
Figure 5 — unfairness (max slowdown / min slowdown), 4-core MEM workloads \
(7000 instructions/core); 1.0 = perfectly fair

workload  HF-RF  ME-LREQ
------------------------
  4MEM-1  1.100    1.300
  4MEM-5  1.000    1.500
 average  1.050    1.400


Paper claims, scored in fidelity.txt: fig5.me.avg-cost, fig5.me.max-cost, \
fig5.me.least-fair, fig5.me-lreq.fairest.
"
        );
    }

    #[test]
    fn table2_renders_profiles_then_the_mix_roster() {
        let profiles: Vec<AppProfile> = spec2000()
            .iter()
            .enumerate()
            .map(|(i, a)| AppProfile {
                name: a.name,
                code: a.code,
                ipc: 1.0 + i as f64 / 100.0,
                bw_gbs: 0.5,
                me: 2.0 + i as f64 / 50.0,
            })
            .collect();
        let text = table2(&profiles, 4321);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[..5],
            [
                "Table 2 — application class and memory efficiency (profiling slice, \
                 4321 instructions, single core)",
                "",
                "     app  code  class  IPC_1  BW (GB/s)  ME (measured)  ME (paper)",
                "------------------------------------------------------------------",
                "    gzip     a      I   1.00      0.500          2.000         192",
            ]
        );
        assert_eq!(
            lines[29..39],
            [
                "    apsi     z      I   1.25      0.500          2.500          36",
                "",
                "Absolute ME differs from the paper (different slice lengths and synthetic \
                 substitutes). ME-LREQ compares quantize(ME/PendingRead) across cores, so it \
                 consumes ME ratios, not only their order. ME (paper) is rows table2.me.<app>.",
                "Paper claims, scored in fidelity.txt: table2.me-ratio.facerec-mcf.",
                "",
                "Table 3 — workload mixes",
                "",
                "   mix     codes                                        applications",
                "--------------------------------------------------------------------",
                "2MEM-1        bc                                        wupwise,swim",
            ]
        );
        // 36 mixes, then the blank line the table's `println!` left.
        assert_eq!(
            lines[73..],
            ["8MIX-6  stywayfk        sixtrack,eon,twolf,vortex,gzip,twolf,vpr,mcf", ""]
        );
    }
}
