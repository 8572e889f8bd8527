//! Command implementations. Each command renders to a `String` so it can
//! be tested without capturing stdout; failures are the typed
//! [`MelreqError`], which the binary maps to process exit codes.
//!
//! Simulation commands (`run`, `compare`, `sweep`, `reproduce`) go
//! through the [`melreq_core::api`] facade — the same
//! `SimRequest → Session::run → SimReport` path the HTTP service and the
//! bench harness use — so `melreq run --json` is byte-identical to the
//! service's `/run` report body. Only the observability paths
//! (`--trace`/`--series`/`--provenance`) call the
//! harness's `run_tapped` themselves: they need the collector tap, which
//! is deliberately not part of the service API. Either way a run is
//! rendered from its [`PolicyReport`].

use crate::figures;
use crate::paper::{self, Evidence};
use crate::parse::{Args, Invocation, ObsArgs, PolicySpec, CLIENT_VERBS};
use melreq_core::api::json::Json;
use melreq_core::api::{resolve_mix, AuditSummary, MelreqError, PolicyReport, Session, SimRequest};
use melreq_core::experiment::{
    run_mix, run_mix_observed, run_tapped, worker_count, ExperimentOptions, MixResult,
    ObserveOptions, ProfileCache, RunControl, SweepStage, Taps,
};
use melreq_core::profile::{profile_app, AppProfile};
use melreq_core::report::{format_table, pct_over};
use melreq_core::{CheckpointStore, SystemConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_obs::{
    export_chrome_json, finish_host_profile, series, Collector, RuleTotals, DEFAULT_SAMPLE_EPOCH,
    DEFAULT_TRACE_CAPACITY,
};
use melreq_serve::{http, ServeConfig};
use melreq_snap::json_esc;
use melreq_workloads::{mix_by_name, mixes_for_cores, spec2000, Mix, MixKind, SliceKind};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage(msg: impl Into<String>) -> MelreqError {
    MelreqError::Usage(msg.into())
}

fn io_err(msg: impl Into<String>) -> MelreqError {
    MelreqError::Io(msg.into())
}

pub(crate) fn cmd_config(args: &Args) -> Result<String, MelreqError> {
    Ok(SystemConfig::paper(args.cores, PolicyKind::MeLreq).describe())
}

pub(crate) fn cmd_profile(args: &Args) -> Result<String, MelreqError> {
    let roster = spec2000();
    let selected: Vec<_> = if args.apps.is_empty() {
        roster
    } else {
        let wanted: Vec<&str> = args.apps.iter().map(std::string::String::as_str).collect();
        let picked: Vec<_> = roster.into_iter().filter(|a| wanted.contains(&a.name)).collect();
        if picked.len() != wanted.len() {
            return Err(usage(format!(
                "unknown application(s) in {wanted:?}; names are SPEC2000 benchmarks (swim, mcf, ...)"
            )));
        }
        picked
    };
    let rows: Vec<Vec<String>> = selected
        .iter()
        .map(|a| {
            let p = profile_app(a, SliceKind::Profiling, args.opts.profile_instructions);
            vec![
                a.name.to_string(),
                a.class.to_string(),
                format!("{:.2}", p.ipc),
                format!("{:.3}", p.bw_gbs),
                format!("{:.3}", p.me),
            ]
        })
        .collect();
    Ok(format_table(&["app", "class", "IPC_1", "BW (GB/s)", "ME"], &rows))
}

/// Translate CLI observability flags into core `ObserveOptions`. A
/// trace or a series turns the epoch sampler on at
/// [`DEFAULT_SAMPLE_EPOCH`] cycles unless `--sample-epoch` names another
/// epoch (the trace carries the sampled counters as tracks).
fn observe_options(obs: &ObsArgs) -> ObserveOptions {
    let sampled = obs.trace_out.is_some() || obs.series_out.is_some();
    ObserveOptions {
        ring_capacity: obs.trace_cap.unwrap_or(DEFAULT_TRACE_CAPACITY),
        sample_epoch: obs.sample_epoch.or_else(|| sampled.then_some(DEFAULT_SAMPLE_EPOCH)),
    }
}

/// Write the requested trace/series artifacts from a finished collector
/// and return the report lines describing them.
fn obs_outputs(c: &Collector, obs: &ObsArgs) -> Result<String, MelreqError> {
    let mut out = String::new();
    if let Some(path) = &obs.trace_out {
        let json = export_chrome_json(c);
        std::fs::write(path, &json).map_err(|e| io_err(format!("cannot write {path}: {e}")))?;
        let ring = c.ring();
        let _ = writeln!(
            out,
            "trace: {} events ({} dropped) -> {path}  [load in ui.perfetto.dev]",
            ring.len(),
            ring.dropped()
        );
    }
    if let Some(path) = &obs.series_out {
        let rows = c.series();
        let (channels, cores) = c.geometry();
        let body = series::render_csv(rows, cores, channels);
        std::fs::write(path, &body).map_err(|e| io_err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "series: {} epoch rows -> {path}", rows.len());
    }
    Ok(out)
}

/// Rule-attribution table: for each observed policy, how many grants each
/// scheduler rule decided and its share of that policy's total.
fn render_provenance(totals: &[(String, RuleTotals)]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (policy, t) in totals {
        let total = t.total().max(1);
        for (rule, n) in t.nonzero() {
            rows.push(vec![
                policy.clone(),
                rule.name().to_string(),
                n.to_string(),
                format!("{:.1}%", n as f64 / total as f64 * 100.0),
            ]);
        }
    }
    if rows.is_empty() {
        return "\nprovenance: no grant decisions observed\n".to_string();
    }
    format!(
        "\ndecision provenance (winning rule per grant):\n{}",
        format_table(&["policy", "rule", "grants", "share"], &rows)
    )
}

/// The human single-run rendering: the headline, the per-core table,
/// host throughput, the controller view and any safety-net warnings.
fn render_run_human(mix: &Mix, report: &PolicyReport, opts: &ExperimentOptions) -> String {
    let r = &report.result;
    let mut out = format!(
        "{} under {}: SMT speedup {:.3}, unfairness {:.3}, mean read latency {:.0} cycles\n\n",
        mix.name, r.policy, r.smt_speedup, r.unfairness, r.mean_read_latency
    );
    let rows: Vec<Vec<String>> = mix
        .apps()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            vec![
                format!("core {i}"),
                a.name.to_string(),
                format!("{:.3}", r.me[i]),
                format!("{:.3}", r.ipc_single[i]),
                format!("{:.3}", r.ipc_multi[i]),
                format!("{:.2}x", r.ipc_single[i] / r.ipc_multi[i].max(1e-9)),
                format!("{:.0}", r.read_latency[i]),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["core", "app", "ME", "IPC alone", "IPC shared", "slowdown", "read lat"],
        &rows,
    ));
    // Host throughput of the multiprogrammed run (profiling excluded).
    // Instructions are approximated by the per-core targets; early
    // finishers keep committing, so the true rate is slightly higher.
    let secs = r.wall.as_secs_f64().max(1e-9);
    let instr = (opts.warmup + opts.instructions).saturating_mul(mix.cores() as u64);
    out.push_str(&format!(
        "\nhost throughput: {:.2} M sim-cycles/s, ~{:.2} M instr/s \
         ({} cycles, {} cores in {:.3} s)\n",
        r.sim_cycles as f64 / secs / 1e6,
        instr as f64 / secs / 1e6,
        r.sim_cycles,
        mix.cores(),
        secs
    ));
    // Controller-level view of the measured window: streaming means plus
    // the per-channel traffic breakdown.
    let _ = writeln!(
        out,
        "\ncontroller: mean queue occupancy {:.2}, mean grant candidates {:.2}",
        r.queue_occupancy_mean, r.grant_candidates_mean
    );
    if !r.channel_traffic.is_empty() {
        let rows: Vec<Vec<String>> = r
            .channel_traffic
            .iter()
            .enumerate()
            .map(|(ch, t)| {
                vec![
                    format!("ch {ch}"),
                    t.reads.to_string(),
                    t.writes.to_string(),
                    t.row_hits.to_string(),
                    format!("{:.1}%", t.hit_rate() * 100.0),
                ]
            })
            .collect();
        out.push_str(&format_table(&["channel", "reads", "writes", "row hits", "hit rate"], &rows));
    }
    if r.timed_out {
        out.push_str("\nWARNING: run hit the cycle safety net before completing\n");
    }
    if r.cancelled {
        out.push_str("\nWARNING: run was cancelled at an epoch boundary by its deadline\n");
    }
    if let Some(a) = &report.audit {
        let _ = writeln!(
            out,
            "\naudit: {} events checked, {} violations, stream hash {:016x}",
            a.events, a.violations, a.stream_hash
        );
    }
    out
}

/// Build the typed request the facade, the service and `melreq client`
/// all share, from what the command line said.
fn sim_request(mix: &Mix, specs: Vec<PolicySpec>, args: &Args) -> SimRequest {
    SimRequest::new(mix.name).policies(specs).opts(args.opts).audit(args.audit)
}

/// The run control `--threads` sizes the job pool of.
fn threads(args: &Args) -> RunControl {
    RunControl { threads: args.threads, ..RunControl::default() }
}

/// The CLI's buildinfo block, embedded in host-profile artifacts so a
/// trace file is self-describing (mirrors the server's `/buildinfo`).
fn cli_buildinfo(threads: Option<usize>) -> String {
    format!(
        "{{\"name\":\"melreq\",\"version\":\"{}\",\"schema_version\":{},\"threads\":{}}}",
        env!("CARGO_PKG_VERSION"),
        melreq_core::api::SCHEMA_VERSION,
        threads.map_or_else(|| "null".to_string(), |n| n.to_string())
    )
}

/// Run `body` with the host-side span profiler attached when `--profile
/// PATH` was given: enable before, [`finish_host_profile`] after (success
/// or failure, so a failed run never leaks spans into a later one), and
/// append the text summary to the command's output.
pub(crate) fn with_host_profile(
    args: &Args,
    process_name: &str,
    body: fn(&Args) -> Result<String, MelreqError>,
) -> Result<String, MelreqError> {
    let Some(path) = &args.prof_out else {
        return body(args);
    };
    melreq_prof::enable();
    let result = body(args);
    let summary = finish_host_profile(Path::new(path), process_name, cli_buildinfo(args.threads));
    let mut out = result?;
    let summary = summary.map_err(|e| io_err(format!("cannot write {path}: {e}")))?;
    let _ = write!(out, "\n{}\nhost profile written to {path}\n", summary.render_text());
    Ok(out)
}

pub(crate) fn cmd_run(args: &Args) -> Result<String, MelreqError> {
    let Args { opts, obs, .. } = args;
    let (mix, spec) = (resolve_mix(&args.mix)?, args.policy());
    obs.check().map_err(usage)?;
    if args.json && obs.any() {
        return Err(usage(
            "--json emits the versioned machine-readable report; drop the \
             --trace/--series/--sample-epoch/--provenance flags, or drop --json to write \
             observability artifacts",
        ));
    }
    if obs.any() {
        // The collector tap is not part of the facade. Every registered
        // policy runs through the instrumented controller, so they all
        // trace.
        let taps = Taps { audit: args.audit, observe: Some(observe_options(obs)) };
        let (cache, ctl) = (ProfileCache::new(), RunControl::default());
        let (r, heard) = run_tapped(&mix, &spec, opts, &cache, &ctl, taps);
        let audit = heard.audit.as_ref().map(AuditSummary::of);
        let mut out = render_run_human(&mix, &PolicyReport { result: r, audit }, opts);
        if let Some(report) = heard.audit.filter(|a| !a.is_clean()) {
            return Err(MelreqError::Divergence(format!("{out}\n{}", report.render())));
        }
        let collector = heard.collector.expect("an observed run keeps its collector");
        let c = collector.lock().expect("obs collector poisoned");
        out.push_str(&obs_outputs(&c, obs)?);
        if obs.provenance {
            out.push_str(&render_provenance(c.rule_totals()));
        }
        return Ok(out);
    }
    // The plain run goes through the facade — identical machinery to
    // the service and the bench harness — and `--json` prints its report.
    let report =
        Session::new().run(&sim_request(&mix, vec![spec], args), &RunControl::default())?;
    if args.json {
        return Ok(report.to_json());
    }
    Ok(render_run_human(&mix, &report.policies[0], opts))
}

pub(crate) fn cmd_audit(args: &Args) -> Result<String, MelreqError> {
    let (mix, spec) = (resolve_mix(&args.mix)?, args.policy());
    let session = Session::new();
    let req = sim_request(&mix, vec![spec.clone()], args).audit(true);
    // Two audited passes through the facade; `Session::run` already
    // fails with `Divergence` on any violation, so reaching the hash
    // comparison implies both passes were clean.
    let a = session.run(&req, &RunControl::default())?;
    let b = session.run(&req, &RunControl::default())?;
    let (sa, sb) = (
        a.policies[0].audit.as_ref().expect("audited run carries a summary"),
        b.policies[0].audit.as_ref().expect("audited run carries a summary"),
    );
    let mut out = format!(
        "{} under {}: {} events checked per pass\n  pass 1: hash {:016x}, {} violation(s)\n  pass 2: hash {:016x}, {} violation(s)\n",
        mix.name,
        spec.name(),
        sa.events,
        sa.stream_hash,
        sa.violations,
        sb.stream_hash,
        sb.violations,
    );
    if sa.stream_hash != sb.stream_hash {
        return Err(MelreqError::Divergence(format!(
            "{out}\ndeterminism FAILED: event-stream hashes differ"
        )));
    }
    out.push_str("audit OK: both passes clean, event streams identical\n");
    Ok(out)
}

pub(crate) fn cmd_compare(args: &Args) -> Result<String, MelreqError> {
    let (mix, specs, provenance) =
        (resolve_mix(&args.mix)?, args.policy_set(), args.obs.provenance);
    if args.json && provenance {
        return Err(usage("--json emits the versioned machine-readable report; drop --provenance"));
    }
    if args.threads.is_some() && provenance {
        return Err(usage("--provenance runs its policies one at a time; drop --threads"));
    }
    let mut totals: Vec<(String, RuleTotals)> = Vec::new();
    let results: Vec<MixResult> = if provenance {
        let cache = ProfileCache::new();
        let observed = |kind| {
            let (r, c) =
                run_mix_observed(&mix, kind, &args.opts, &ObserveOptions::default(), &cache);
            let c = c.lock().expect("obs collector poisoned");
            // Labelled with the run's display name: the collector keys its
            // buckets on the audit identity, which FCFS and FCFS-RF (and
            // ME-LREQ and its online variant) share.
            if let Some((_, t)) = c.active_rule_totals() {
                totals.push((r.policy.to_string(), t.clone()));
            }
            r
        };
        specs.iter().map(observed).collect()
    } else {
        let report = Session::new().run(&sim_request(&mix, specs, args), &threads(args))?;
        if args.json {
            return Ok(report.to_json());
        }
        report.policies.into_iter().map(|p| p.result).collect()
    };
    let base = results[0].smt_speedup;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                p.policy.to_string(),
                format!("{:.3}", p.smt_speedup),
                pct_over(p.smt_speedup, base),
                format!("{:.3}", p.harmonic_speedup),
                format!("{:.0}", p.mean_read_latency),
                format!("{:.3}", p.unfairness),
                format!("{:.3}", p.max_slowdown),
            ]
        })
        .collect();
    let mut out = format!(
        "{} ({}):\n\n{}",
        mix.name,
        mix.apps().iter().map(|a| a.name).collect::<Vec<_>>().join(", "),
        format_table(
            &["policy", "speedup", "vs first", "hmean", "read lat", "unfairness", "max slow"],
            &rows
        )
    );
    if provenance {
        out.push_str(&render_provenance(&totals));
    }
    Ok(out)
}

pub(crate) fn cmd_sweep(args: &Args) -> Result<String, MelreqError> {
    let specs = args.policy_set();
    let kinds: Vec<MixKind> = match args.kind.as_str() {
        "mem" => vec![MixKind::Mem],
        "mix" => vec![MixKind::Mixed],
        _ => vec![MixKind::Mem, MixKind::Mixed],
    };
    // One pooled sweep, a stage per (class, core count): every mix's
    // warm-up is shared by its policies, and no stage waits on another.
    let cores = [2usize, 4, 8];
    let stages: Vec<SweepStage> = kinds
        .iter()
        .flat_map(|&k| cores.map(|n| mixes_for_cores(n, Some(k))))
        .map(|mixes| SweepStage { mixes, policies: specs.clone() })
        .collect();
    let results = Session::new().run_sweep_stages(&stages, &args.opts, &threads(args));
    let headers: Vec<&str> =
        std::iter::once("cores").chain(specs.iter().map(PolicySpec::name)).collect();
    let mut out = String::new();
    for (k, class) in kinds.iter().zip(results.chunks(cores.len())) {
        let mut rows = Vec::new();
        for (n, runs) in cores.iter().zip(class) {
            let mut row = vec![format!("{n}-core")];
            // Per-mix ratios vs the first policy, averaged geometrically.
            for p in 0..specs.len() {
                row.push(pct_over(figures::avg_gain(runs, specs.len(), p), 1.0));
            }
            rows.push(row);
        }
        let _ = writeln!(out, "-- {k:?} workloads --\n{}", format_table(&headers, &rows));
    }
    Ok(out)
}

/// Peak resident-set size of this process in bytes (Linux `VmHWM`;
/// `None` elsewhere or when procfs is unavailable).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The `host` object of a timing artifact: what its wall-clock numbers
/// were measured on (`nproc` is what the process may use, 0 if unknown).
fn host_json() -> String {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\"}}",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        json_esc(cpu),
        json_esc(read("/proc/sys/kernel/osrelease").trim()),
    )
}

/// Cycles this result actually simulated: the measured window alone when
/// the warm-up boundary was restored, the whole run otherwise.
fn simulated_cycles(r: &MixResult) -> u64 {
    if r.warmup_from_checkpoint {
        r.measured_cycles
    } else {
        r.sim_cycles
    }
}

/// FNV-1a fingerprint of the paper-metric outputs of a result set: a
/// checkpoint-forked group and per-policy fresh runs of the same inputs
/// must hash identically, bit for bit ([`fork_vs_fresh`]).
fn results_hash(results: &[MixResult]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        bytes.extend_from_slice(r.policy.as_bytes());
        bytes.extend_from_slice(&r.sim_cycles.to_le_bytes());
        bytes.extend_from_slice(&r.measured_cycles.to_le_bytes());
        for v in r.ipc_multi.iter().chain(r.read_latency.iter()) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    melreq_snap::fnv1a(&bytes)
}

/// The fork-vs-fresh gate: `forked`, the grid's runs of `mix`, must hash as
/// `fresh`, the same policies each run from reset. Returns that hash.
fn fork_vs_fresh(mix: &Mix, forked: &[MixResult], fresh: &[MixResult]) -> Result<u64, MelreqError> {
    let (forked_hash, fresh_hash) = (results_hash(forked), results_hash(fresh));
    if forked_hash != fresh_hash {
        return Err(MelreqError::Divergence(format!(
            "checkpoint-forked results diverge from fresh runs on {} \
             (forked {forked_hash:016x}, fresh {fresh_hash:016x}): snapshot fidelity is broken",
            mix.name
        )));
    }
    Ok(forked_hash)
}

/// One timed stage of the reproduction sweep.
///
/// Grid stages run interleaved in one global job pool, so a stage has no
/// private elapsed window; its `wall_s` is the **aggregate
/// worker-seconds** its runs consumed (measured window plus any warm-up
/// the run paid itself). The table2 stage and the fork-vs-fresh gate run
/// serially and report elapsed wall time.
struct Stage {
    name: String,
    detail: String,
    wall_s: f64,
    sim_cycles: u64,
    /// FNV-1a over the stage's paper-metric outputs ([`results_hash`]);
    /// `None` for the untimed/non-grid stages. Byte-stable across
    /// thread counts — CI diffs it between 1-worker and N-worker runs.
    results_hash: Option<u64>,
}

/// `melreq reproduce`: the full paper — Table 2 profiles, the Figure
/// 2/4/5 grid, the Figure 3 fixed-priority study and the offline-vs-
/// online ablation — with one shared warm-up per mix, persisted across
/// invocations through the checkpoint store. Writes the sweep artifact
/// (`BENCH_sweep.json`) as a side effect and returns the human summary.
/// A full run also renders the paper artifacts ([`figures`]) into
/// `results/` beside the sweep artifact; a smoke run leaves `results/`
/// alone and shows the Figure 2 table of its one grid stage in the
/// summary instead.
///
/// The fork-vs-fresh gate re-runs the first mix of the first grid stage
/// (`2MEM-1`) under each of that stage's policies from reset, and
/// hard-fails if those results are not bit-identical with the grid's own,
/// in smoke and full mode alike.
#[allow(clippy::too_many_lines, reason = "the sweep's stages read in order, top to bottom")]
pub(crate) fn cmd_reproduce(args: &Args) -> Result<String, MelreqError> {
    let Args { smoke, threads, guard_ratio, .. } = *args;
    let out_path = args.out.as_deref().unwrap_or("BENCH_sweep.json");
    let prof_out = args.prof_out.as_deref();
    // Smoke defaults to the quick scale; explicit scale flags still win.
    let opts = if smoke && args.opts == ExperimentOptions::default() {
        ExperimentOptions::quick()
    } else {
        args.opts
    };
    if prof_out.is_some() {
        melreq_prof::enable();
    }
    let dir = store_dir(args);
    let store = Arc::new(
        CheckpointStore::open(&dir)
            .map_err(|e| io_err(format!("cannot open checkpoint store {}: {e}", dir.display())))?,
    );
    // The session owns the profile cache and the store; every grid below
    // runs through it.
    let session = Session::with_store(store.clone());
    let total_start = Instant::now();
    let mut stages: Vec<Stage> = Vec::new();

    // Table 2: single-core profiles of the full application roster,
    // through the session's cache so the grid below finds them in memory.
    let table2_profiles: Vec<AppProfile> = {
        let t0 = Instant::now();
        let apps = spec2000();
        let mut simulated = 0usize;
        let profiles = apps
            .iter()
            .map(|a| {
                let (p, here) =
                    session.cache().lookup(a, SliceKind::Profiling, opts.profile_instructions);
                simulated += usize::from(here);
                p
            })
            .collect();
        stages.push(Stage {
            name: "table2".to_string(),
            detail: format!("{} applications, {simulated} profiled here", apps.len()),
            wall_s: t0.elapsed().as_secs_f64(),
            sim_cycles: 0,
            results_hash: None,
        });
        profiles
    };

    // The multiprogrammed grid: every stage's jobs into one global pool.
    let f2 = PolicyKind::figure2_set();
    let mut grid_stages: Vec<(String, Vec<Mix>, Vec<PolicyKind>)> = Vec::new();
    // The Figure 2 stages come first; in full mode Figure 3's follows them.
    let n_fig2;
    if smoke {
        let mixes: Vec<Mix> = mixes_for_cores(2, Some(MixKind::Mem)).into_iter().take(3).collect();
        grid_stages.push(("fig2 (2-core MEM subset)".to_string(), mixes, f2.clone()));
        n_fig2 = grid_stages.len();
    } else {
        for (kind, kn) in [(MixKind::Mem, "MEM"), (MixKind::Mixed, "MIX")] {
            for cores in [2usize, 4, 8] {
                let mixes = mixes_for_cores(cores, Some(kind));
                if mixes.is_empty() {
                    continue;
                }
                grid_stages.push((format!("fig2/4/5 {cores}-core {kn}"), mixes, f2.clone()));
            }
        }
        n_fig2 = grid_stages.len();
        grid_stages.push((
            "fig3 4-core fixed priority".to_string(),
            mixes_for_cores(4, None),
            PolicyKind::figure3_set(),
        ));
        grid_stages.push((
            "ablation offline vs online ME".to_string(),
            vec![mix_by_name("4MEM-4")],
            vec![
                PolicyKind::MeLreq,
                PolicyKind::MeLreqOnline { epoch_cycles: 50_000 },
                PolicyKind::MeLreqOnline { epoch_cycles: 10_000 },
            ],
        ));
    }
    let total_grid_runs: usize = grid_stages.iter().map(|(_, m, p)| m.len() * p.len()).sum();
    let workers = worker_count(total_grid_runs, threads);
    let ctl = RunControl { threads: Some(workers), ..RunControl::default() };
    let grid_t0 = Instant::now();
    let sweep: Vec<SweepStage> = grid_stages
        .iter()
        .map(|(_, mixes, policies)| SweepStage { mixes: mixes.clone(), policies: policies.clone() })
        .collect();
    let stage_results = session.run_sweep_stages(&sweep, &opts, &ctl);
    let grid_elapsed = grid_t0.elapsed().as_secs_f64();
    let mut timed_out = 0usize;
    for ((name, mixes, policies), results) in grid_stages.iter().zip(&stage_results) {
        timed_out += results.iter().filter(|r| r.timed_out).count();
        stages.push(Stage {
            name: name.clone(),
            detail: format!("{} mixes x {} policies", mixes.len(), policies.len()),
            wall_s: results.iter().map(|r| r.wall + r.warm_wall).sum::<Duration>().as_secs_f64(),
            sim_cycles: results.iter().map(simulated_cycles).sum(),
            results_hash: Some(results_hash(results)),
        });
    }
    if timed_out > 0 {
        return Err(MelreqError::Timeout(format!(
            "{timed_out} grid run(s) hit the cycle safety net"
        )));
    }

    // Fork-vs-fresh gate: the first mix of the first grid stage as the
    // grid ran it, against its policies each run from reset.
    let (_, gate_mixes, gate_policies) = &grid_stages[0];
    let gate_mix = gate_mixes[0];
    let t0 = Instant::now();
    let fresh: Vec<MixResult> =
        gate_policies.iter().map(|p| run_mix(&gate_mix, p, &opts, session.cache())).collect();
    let gate_wall = t0.elapsed().as_secs_f64();
    let gate_hash = fork_vs_fresh(&gate_mix, &stage_results[0][..gate_policies.len()], &fresh)?;
    stages.push(Stage {
        name: "fork-vs-fresh gate".to_string(),
        detail: format!("{} x {} policies, fresh", gate_mix.name, gate_policies.len()),
        wall_s: gate_wall,
        sim_cycles: fresh.iter().map(simulated_cycles).sum(),
        results_hash: None,
    });

    let total_wall_s = total_start.elapsed().as_secs_f64();
    let grid_cycles: u64 = stages.iter().map(|s| s.sim_cycles).sum();
    // Aggregate throughput over *elapsed* time (the pooled grid window
    // plus the serial gate) — this credits worker parallelism.
    let grid_wall: f64 = grid_elapsed + gate_wall;
    let cps = grid_cycles as f64 / grid_wall.max(1e-9);
    let rss = peak_rss_bytes();

    // Drain the host profiler before the artifact is rendered so its
    // aggregated summary can be embedded; the Perfetto trace goes to its
    // own file (wall-clock domain — never merged with sim-time traces).
    let host_profile = prof_out
        .map(|ppath| {
            finish_host_profile(Path::new(ppath), "melreq reproduce", cli_buildinfo(Some(workers)))
                .map_err(|e| io_err(format!("cannot write {ppath}: {e}")))
        })
        .transpose()?;

    // The machine-readable artifact, stamped with the workspace-wide
    // schema version shared by every machine-readable output.
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"schema_version\": {},", melreq_core::api::SCHEMA_VERSION);
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    json.push_str("  \"kernel\": \"fast-forward\",\n");
    let _ = writeln!(json, "  \"threads\": {workers},");
    let _ = writeln!(json, "  \"host\": {},", host_json());
    if let Some(s) = &host_profile {
        let _ = writeln!(json, "  \"host_profile\": {},", s.render_json());
    }
    let _ = writeln!(
        json,
        "  \"options\": {{\"instructions\": {}, \"warmup\": {}, \
         \"profile_instructions\": {}, \"eval_slice\": {}}},",
        opts.instructions, opts.warmup, opts.profile_instructions, opts.eval_slice
    );
    let st = store.stats();
    let held: Vec<String> =
        store.bytes_by_kind().iter().map(|(kind, bytes)| format!("\"{kind}\": {bytes}")).collect();
    let _ = writeln!(
        json,
        "  \"store\": {{\"dir\": \"{}\", \"warmup_hits\": {}, \
         \"warmup_misses\": {}, \"profile_hits\": {}, \"profile_misses\": {}, \
         \"hit_rate\": {:.4}, \"tape_hits\": {}, \"tape_misses\": {}, \"bytes\": {{{}}}}},",
        json_esc(&store.dir().display().to_string()),
        st.warmup_hits,
        st.warmup_misses,
        st.profile_hits,
        st.profile_misses,
        st.hit_rate(),
        st.tape_hits,
        st.tape_misses,
        held.join(", ")
    );
    json.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"wall_s\": {:.6}, \
             \"sim_cycles\": {}, \"results_hash\": {}}}",
            json_esc(&s.name),
            json_esc(&s.detail),
            s.wall_s,
            s.sim_cycles,
            s.results_hash.map_or_else(|| "null".to_string(), |h| format!("\"{h:016x}\"")),
        );
        json.push_str(if i + 1 < stages.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"total_wall_s\": {total_wall_s:.6},");
    let _ = writeln!(json, "  \"sim_cycles\": {grid_cycles},");
    let _ = writeln!(json, "  \"sim_cycles_per_sec\": {cps:.0},");
    let _ = writeln!(
        json,
        "  \"fork_vs_fresh\": {{\"mix\": \"{}\", \"policies\": {}, \
         \"forked_hash\": \"{gate_hash:016x}\", \"fresh_hash\": \"{gate_hash:016x}\", \
         \"bit_exact\": true}},",
        json_esc(gate_mix.name),
        gate_policies.len(),
    );
    match rss {
        Some(b) => {
            let _ = writeln!(json, "  \"peak_rss_bytes\": {b}");
        }
        None => json.push_str("  \"peak_rss_bytes\": null\n"),
    }
    json.push_str("}\n");
    std::fs::write(out_path, &json).map_err(|e| io_err(format!("cannot write {out_path}: {e}")))?;

    // The paper artifacts and the claims scored on them. The 4-core MEM
    // Figure 2 stage is also the grid of Figures 4 and 5.
    let fig2_results = &stage_results[..n_fig2];
    let mut results_line = String::new();
    if !smoke {
        let ev = Evidence {
            profiles: &table2_profiles,
            fig2: fig2_results.iter().map(Vec::as_slice).collect(),
            fig3: &stage_results[n_fig2],
        };
        let mem4 = ev.stage(4, MixKind::Mem).expect("the full grid has a 4-core MEM stage");
        let (_, _, f3) = &grid_stages[n_fig2];
        let dir = Path::new(out_path).with_file_name("results");
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err(format!("cannot create {}: {e}", dir.display())))?;
        for (file, text) in [
            ("table2.txt", figures::table2(&table2_profiles, opts.profile_instructions)),
            ("fig2.txt", figures::fig2(&opts, &f2, fig2_results)),
            ("fig3.txt", figures::fig3(&opts, f3, &stage_results[n_fig2])),
            ("fig4.txt", figures::fig4(&opts, &f2, mem4)),
            ("fig5.txt", figures::fig5(&opts, &f2, mem4)),
            ("fidelity.txt", paper::fidelity(&opts, &ev)),
        ] {
            let path = dir.join(file);
            std::fs::write(&path, text)
                .map_err(|e| io_err(format!("cannot write {}: {e}", path.display())))?;
        }
        results_line = format!(
            "paper tables -> {}/{{table2,fig2,fig3,fig4,fig5,fidelity}}.txt\n",
            dir.display()
        );
    }

    // Wall-clock guard against a baseline artifact: the artifact above
    // is written first so a failing run still leaves its evidence.
    let mut guard_line = String::new();
    if let Some(gpath) = &args.guard {
        let base_wall = guard_baseline(gpath, "total_wall_s")?;
        let ceiling = base_wall / guard_ratio;
        if total_wall_s > ceiling {
            return Err(MelreqError::Timeout(format!(
                "reproduce wall guard FAILED: total {total_wall_s:.3} s exceeds \
                 {ceiling:.3} s (baseline {base_wall:.3} s / ratio {guard_ratio}) \
                 from {gpath}"
            )));
        }
        guard_line = format!(
            "wall guard OK: total {total_wall_s:.3} s <= {ceiling:.3} s \
             (baseline {base_wall:.3} s / ratio {guard_ratio})\n"
        );
    }

    // The human summary.
    let mut out = format!(
        "reproduce ({} grid, warm-up sharing on; kernel fast-forward; {workers} worker threads): \
         {} instr/core, warm-up {}\n\n",
        if smoke { "smoke" } else { "full" },
        opts.instructions,
        opts.warmup
    );
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.detail.clone(),
                format!("{:.3} s", s.wall_s),
                if s.sim_cycles == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2}", s.sim_cycles as f64 / s.wall_s.max(1e-9) / 1e6)
                },
            ]
        })
        .collect();
    out.push_str(&format_table(&["stage", "work", "wall", "Mcyc/s"], &rows));
    if smoke {
        let _ = writeln!(out, "\n{}", figures::fig2_block(&f2, &fig2_results[0]).trim_end());
    }
    let _ = writeln!(
        out,
        "\nfork-vs-fresh gate on {} x {} policies: the grid's runs are bit-exact with \
         fresh ones (hash {gate_hash:016x})",
        gate_mix.name,
        gate_policies.len(),
    );
    let _ = writeln!(
        out,
        "store {}: warm-up {}/{} hit, profiles {}/{} hit ({:.0}% overall)",
        store.dir().display(),
        st.warmup_hits,
        st.warmup_hits + st.warmup_misses,
        st.profile_hits,
        st.profile_hits + st.profile_misses,
        st.hit_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "total {total_wall_s:.3} s, {:.2} M sim-cycles/s aggregate, peak RSS {} -> {out_path}",
        cps / 1e6,
        rss.map_or_else(|| "n/a".to_string(), |b| format!("{} MiB", b / (1 << 20)))
    );
    if let (Some(s), Some(ppath)) = (&host_profile, prof_out) {
        let _ = writeln!(out, "\n{}\nhost profile written to {ppath}", s.render_text());
    }
    out.push_str(&results_line);
    out.push_str(&guard_line);
    Ok(out)
}

/// The checkpoint store of `reproduce` and `serve`: `--store`, else
/// `.melreq-store` under the current directory.
fn store_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.store.as_deref().unwrap_or(".melreq-store"))
}

/// The number under `field` of a `--guard` baseline artifact.
fn guard_baseline(path: &str, field: &str) -> Result<f64, MelreqError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io_err(format!("cannot read guard baseline {path}: {e}")))?;
    Json::parse(&text)
        .ok()
        .and_then(|artifact| artifact.get(field)?.as_f64())
        .ok_or_else(|| usage(format!("guard baseline {path} has no \"{field}\" field")))
}

/// `melreq serve`: run the HTTP service in the foreground until SIGTERM
/// (or POST /shutdown) drains it.
pub(crate) fn cmd_serve(args: &Args) -> Result<String, MelreqError> {
    melreq_serve::serve_forever(ServeConfig {
        store_dir: (!args.no_store).then(|| store_dir(args)),
        prof_out: args.prof_out.as_ref().map(PathBuf::from),
        ..args.serve.clone()
    })
}

/// `melreq client`: build the same typed requests the local commands use
/// and send them to a running server — all verbs of one invocation over
/// one keep-alive connection, `Connection: close` only on the last.
pub(crate) fn cmd_client(args: &Args) -> Result<String, MelreqError> {
    let (addr, timeout_ms) = (&args.serve.addr, args.timeout_ms);
    // Build every request up front so a usage error costs no traffic.
    let mut requests: Vec<(&str, &str, Option<String>)> = Vec::new();
    for verb in &args.client_verbs {
        let &(_, method, path) =
            CLIENT_VERBS.iter().find(|v| v.0 == verb).expect("the parser checked the verb");
        let body = match verb.as_str() {
            "run" if args.policies.len() > 1 => {
                return Err(usage(format!(
                    "client run takes exactly one policy (got {}); use client compare \
                     for policy sets",
                    args.policies.len()
                )));
            }
            "run" | "compare" => {
                let specs = if verb == "run" { vec![args.policy()] } else { args.policy_set() };
                let mut req = sim_request(&resolve_mix(&args.mix)?, specs, args);
                req.timeout_ms = timeout_ms;
                Some(req.to_json())
            }
            _ => None,
        };
        requests.push((method, path, body));
    }
    // Generous socket timeout: the request's own wall-clock budget (if
    // any) plus slack, else long enough for a full-scale run.
    let socket_timeout =
        Duration::from_millis(timeout_ms.map_or(600_000, |ms| ms.saturating_add(30_000)));
    let mut conn = http::ClientConn::connect(addr, socket_timeout)
        .map_err(|e| io_err(format!("cannot reach {addr}: {e}")))?;
    let mut out = String::new();
    let last = requests.len() - 1;
    for (i, (method, path, body)) in requests.iter().enumerate() {
        let (status, response) = conn
            .request(method, path, body.as_deref(), i == last)
            .map_err(|e| io_err(format!("cannot reach {addr}: {e}")))?;
        match status {
            200 => {
                out.push_str(&response);
                if !response.ends_with('\n') {
                    out.push('\n');
                }
            }
            400 => return Err(usage(format!("server rejected the request: {response}"))),
            429 => return Err(MelreqError::Overload { retry_after_s: 1 }),
            504 => {
                return Err(MelreqError::Timeout(format!("server timed out the run: {response}")))
            }
            s => return Err(io_err(format!("server answered HTTP {s}: {response}"))),
        }
    }
    Ok(out)
}

/// `melreq loadbench`: drive a running server with the deterministic
/// open-loop generator, write the artifact, and optionally guard cached
/// throughput against a committed baseline.
pub(crate) fn cmd_loadbench(args: &Args) -> Result<String, MelreqError> {
    let cfg = melreq_loadgen::LoadConfig { mix: args.mix.clone(), ..args.load.clone() };
    let melreq_loadgen::LoadConfig { addr, rps, conns, duration_s, seed, mix } = &cfg;
    let out_path = args.out.as_deref().unwrap_or("BENCH_serve.json");
    let report = melreq_loadgen::run(&cfg)?;
    let artifact = melreq_loadgen::render_json(&cfg, &report);
    std::fs::write(out_path, &artifact)
        .map_err(|e| io_err(format!("cannot write {out_path}: {e}")))?;

    // The artifact is written first so a failing guard still leaves its
    // evidence; guard after (same contract as reproduce --guard).
    let mut guard_line = String::new();
    if let Some(gpath) = &args.guard {
        let base = guard_baseline(gpath, "cached_throughput_rps")?;
        guard_line =
            melreq_loadgen::guard_check(report.cached_throughput_rps, base, args.guard_ratio)?;
        guard_line.push('\n');
    }

    let mut out = format!(
        "loadbench against {addr}: {rps:.0} rps offered for {duration_s:.1} s per phase \
         over {conns} connections (seed {seed}, mix {mix})\n\n"
    );
    let rows: Vec<Vec<String>> = report
        .phases
        .iter()
        .map(|p| {
            let t = &p.tally;
            vec![
                p.name.to_string(),
                p.offered.to_string(),
                t.completed_200.to_string(),
                (t.http_429 + t.http_504).to_string(),
                (t.http_5xx + t.transport_errors).to_string(),
                (t.cache_responses + t.coalesced).to_string(),
                format!("{:.1}", p.p50_ms),
                format!("{:.1}", p.p99_ms),
                format!("{:.1}", p.throughput_rps),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["phase", "offered", "200", "shed", "errors", "cached", "p50 ms", "p99 ms", "rps"],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\ncached keep-alive throughput {:.1} rps vs cold per-connection {:.1} rps \
         -> {:.1}x -> {out_path}",
        report.cached_throughput_rps,
        report.baseline_throughput_rps,
        report.speedup_cached_vs_baseline
    );
    out.push_str(&guard_line);
    Ok(out)
}

/// Execute a parsed command line, returning its rendered output.
pub fn run_command(inv: &Invocation) -> Result<String, MelreqError> {
    (inv.verb.run)(&inv.args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_args;
    use melreq_core::store::TempDir;

    /// Parse and run one command line; words are split on spaces.
    fn melreq(line: &str) -> Result<String, MelreqError> {
        let argv: Vec<&str> = line.split(' ').collect();
        run_command(&parse_args(&argv).map_err(MelreqError::Usage)?)
    }

    /// `ExperimentOptions::quick()`, as flags.
    const QUICK: &str = "--instructions 20000 --warmup 10000 --profile 10000";
    const TINY: &str = "--instructions 3000 --warmup 1500 --profile 1500";

    fn quick(line: &str) -> Result<String, MelreqError> {
        melreq(&format!("{line} {QUICK}"))
    }

    /// The profiler's enable/drain state is process-global; tests that
    /// turn it on serialize here so one drain can't take another's spans.
    static PROF_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn config_and_help_render() {
        let s = melreq("config --cores 4").unwrap();
        assert!(s.contains("4 x 4-issue"));
        assert!(s.contains("ME-LREQ"));
        assert!(melreq("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_mix_is_an_error() {
        let e = quick("run 9MEM-9 --policy hf-rf").unwrap_err();
        assert_eq!(e.exit_code(), 2, "unknown mix is a usage error");
        assert!(e.to_string().contains("Table 3"));
    }

    #[test]
    fn zero_instructions_is_a_usage_error_not_a_panic() {
        for line in ["run 2MEM-1 --instructions 0", "run 2MEM-1 --profile 0"] {
            let e = melreq(line).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{line}: {e}");
        }
        let e = melreq("run 2MEM-1 --policy me-lreq-on(epoch=0)").unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("epoch"), "the error names the parameter: {e}");
    }

    #[test]
    fn profile_subset_renders_rows_and_rejects_unknown_apps() {
        assert!(quick("profile --apps notanapp").is_err());
        let s = quick("profile --apps eon").unwrap();
        assert!(s.contains("eon"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3); // header + rule + one row
    }

    #[test]
    fn audited_run_reports_clean() {
        let s = quick("run 2MEM-1 --audit").unwrap();
        assert!(s.contains("0 violations"));
        assert!(s.contains("stream hash"));
        let s = quick("run 2MEM-1 --policy fq --audit").unwrap();
        assert!(s.contains("0 violations"), "FQ audits through the registry path:\n{s}");
    }

    #[test]
    fn audit_subcommand_verifies_determinism() {
        let s = quick("audit 2MEM-1 --policy hf-rf").unwrap();
        assert!(s.contains("audit OK"));
        assert!(s.contains("pass 2"));
    }

    /// `reproduce --smoke --threads 2` with its store (`dir/<store>`) and
    /// its artifact (`dir/sweep.json`) under `dir`; `scale` is a string
    /// of scale flags, `extra` further (flag, path) pairs.
    fn smoke_reproduce(
        dir: &Path,
        store: &str,
        scale: &str,
        extra: &[(&str, &Path)],
    ) -> Result<String, MelreqError> {
        let mut argv: Vec<String> =
            "reproduce --smoke --threads 2".split(' ').map(String::from).collect();
        argv.extend(scale.split(' ').filter(|w| !w.is_empty()).map(String::from));
        let (store, out) = (dir.join(store), dir.join("sweep.json"));
        for (flag, path) in [("--store", &*store), ("--out", &*out)].iter().chain(extra) {
            argv.extend([(*flag).to_string(), path.to_str().unwrap().to_string()]);
        }
        run_command(&parse_args(&argv).map_err(MelreqError::Usage)?)
    }

    #[test]
    fn reproduce_smoke_writes_artifact_and_verifies_fork() {
        let dir = TempDir::new("reproduce-test");
        let out = dir.join("sweep.json");
        // A store path no shell would thank you for: the artifact must
        // still be valid JSON with every control character escaped.
        const STORE: &str = "st\"o\\re\t\u{1}";
        let s = smoke_reproduce(&dir, STORE, TINY, &[]).unwrap();
        assert!(s.contains("bit-exact"), "summary must confirm the fork gate:\n{s}");
        assert!(!dir.join("results").exists(), "--smoke must not write paper tables");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(!json.contains(['\t', '\u{1}']), "raw control character in the artifact:\n{json}");
        let parsed = Json::parse(&json).expect("artifact parses as JSON");
        let recorded = parsed.get("store").and_then(|st| st.get("dir")).and_then(|d| d.as_str());
        assert_eq!(recorded, dir.join(STORE).to_str(), "store path must round-trip");
        assert!(json.contains(&format!("\"schema_version\": {}", melreq_core::api::SCHEMA_VERSION)));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"results_hash\": \""), "grid stages must carry a hash:\n{json}");
        let gate = parsed.get("fork_vs_fresh").expect("a fork_vs_fresh block");
        assert_eq!(gate.get("mix").and_then(Json::as_str), Some("2MEM-1"), "{json}");
        assert_eq!(gate.get("policies").and_then(Json::as_u64), Some(5), "{json}");
        let hash = |key| gate.get(key).and_then(Json::as_str);
        assert!(hash("forked_hash").is_some() && hash("forked_hash") == hash("fresh_hash"));
        assert_eq!(gate.get("bit_exact").and_then(Json::as_bool), Some(true), "{json}");
        assert!(json.contains("\"store\": {"));
        // What the store block says of the tapes: three groups looked for
        // theirs, and the warm re-run finds all three.
        let tapes = |json: &str| {
            let parsed = Json::parse(json).expect("artifact parses as JSON");
            let store = parsed.get("store").expect("a store block");
            let count = |key| store.get(key).and_then(Json::as_u64);
            let held = store.get("bytes").and_then(|b| b.get("tapes")).and_then(Json::as_u64);
            (count("tape_hits"), count("tape_misses"), held.is_some_and(|b| b > 0))
        };
        assert_eq!(tapes(&json), (Some(0), Some(3), true), "cold:\n{json}");

        // Guard against its own artifact: a warm re-run is far inside
        // any sane ceiling, so this must pass and say so.
        let s2 = smoke_reproduce(&dir, STORE, TINY, &[("--guard", &out)]).unwrap();
        assert!(s2.contains("wall guard OK"), "guard line missing:\n{s2}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert_eq!(tapes(&json), (Some(3), Some(0), true), "warm:\n{json}");
        // An impossibly fast baseline must trip the guard with exit 6.
        let fake = dir.join("fake-baseline.json");
        std::fs::write(&fake, "{\"total_wall_s\": 0.000001}\n").unwrap();
        let e = smoke_reproduce(&dir, STORE, TINY, &[("--guard", &fake)]).unwrap_err();
        assert_eq!(e.exit_code(), 6, "wall-guard failure is a timeout-class error: {e}");
    }

    /// The registry collapse must not move a single bit of the paper
    /// reproduction: the smoke grid's Figure 2 results hash is pinned to
    /// the value the pre-registry tree produced, and the fork-vs-fresh
    /// gate's hash, over that grid's 2MEM-1 block, with it. If either
    /// changes, a scheduling or warm-up code path changed behavior — not
    /// just its plumbing.
    #[test]
    fn reproduce_smoke_hashes_are_pinned() {
        let dir = TempDir::new("pinned-test");
        let out = dir.join("sweep.json");
        let summary = smoke_reproduce(&dir, "store", "", &[]).unwrap();
        assert!(
            summary.contains(
                "
-- 2-core MEM workloads --
    workload  HF-RF     ME     RR   LREQ  ME-LREQ
-------------------------------------------------
      2MEM-1  1.669  1.727  1.656  1.695    1.727
      2MEM-2  1.608  1.576  1.618  1.597    1.597
      2MEM-3  1.632  1.642  1.612  1.623    1.648
avg vs HF-RF  +0.0%  +0.7%  -0.4%  +0.1%    +1.2%
"
            ),
            "the smoke summary must carry its stage's Figure 2 table:\n{summary}"
        );
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(
            json.contains("\"results_hash\": \"e1796b05cb5a4d40\""),
            "Figure 2 smoke-grid results moved:\n{json}"
        );
        assert!(
            json.contains(
                "\"forked_hash\": \"70086e4e7d9a25de\", \"fresh_hash\": \"70086e4e7d9a25de\""
            ),
            "fork-vs-fresh gate results moved:\n{json}"
        );
        assert!(json.contains("\"bit_exact\": true"));
    }

    #[test]
    fn reproduce_with_profile_embeds_summary_and_writes_trace() {
        let _guard = PROF_LOCK.lock().unwrap();
        let dir = TempDir::new("repro-prof-test");
        let out = dir.join("sweep.json");
        let prof = dir.join("prof.json");
        let s = smoke_reproduce(&dir, "store", TINY, &[("--profile", &prof)]).unwrap();
        assert!(s.contains("host profile written to"), "summary must name the trace:\n{s}");
        let artifact = std::fs::read_to_string(&out).unwrap();
        assert!(
            artifact.contains("\"host_profile\""),
            "artifact must embed the profile summary:\n{artifact}"
        );
        let trace = std::fs::read_to_string(&prof).unwrap();
        assert!(trace.contains("\"traceEvents\""), "Perfetto envelope missing");
        assert!(trace.contains("\"summary\":"), "summary block missing from trace");
        assert!(trace.contains("\"buildinfo\":"), "buildinfo block missing from trace");
        assert!(trace.contains("worker "), "executor worker tracks missing:\n{trace:.300}");
    }

    #[test]
    fn host_profile_wrapper_writes_trace_and_passes_through_on_none() {
        let _guard = PROF_LOCK.lock().unwrap();
        // Without --profile the wrapper is a pure pass-through.
        let plain = |_: &Args| Ok("plain".to_string());
        assert_eq!(with_host_profile(&Args::default(), "melreq run", plain).unwrap(), "plain");
        let dir = TempDir::new("runprof-test");
        let path = dir.join("prof.json");
        let s = quick(&format!("run 2MEM-1 --profile {}", path.display())).unwrap();
        assert!(s.contains("SMT speedup"), "the run output must survive the wrapper:\n{s}");
        assert!(s.contains("host profile written to"), "summary line missing:\n{s}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"buildinfo\":"), "buildinfo block missing");
        assert!(trace.contains("\"threads\":null"), "a run sizes no pool");
        assert!(trace.contains("session"), "facade session span missing from trace");
    }

    #[test]
    fn run_and_compare_work_end_to_end() {
        let s = quick("run 2MEM-1").unwrap();
        assert!(s.contains("wupwise"));
        assert!(s.contains("SMT speedup"));
        assert!(s.contains("mean queue occupancy"), "controller stats missing:\n{s}");
        assert!(s.contains("hit rate"), "per-channel traffic table missing:\n{s}");
        let s = quick("compare 2MEM-1 --policies hf-rf,fq").unwrap();
        assert!(s.contains("FQ"));
        assert!(s.contains("+0.0%")); // baseline row
    }

    #[test]
    fn sweep_is_one_row_per_core_count_at_any_thread_count() {
        let sweep =
            |threads| melreq(&format!("sweep --policies hf-rf,me-lreq {TINY} --threads {threads}"));
        let one = sweep(1).unwrap();
        assert_eq!(one, sweep(2).unwrap(), "the pool is a pure performance knob");
        let rows: Vec<&str> = one.lines().filter(|l| l.contains("-core")).collect();
        assert_eq!(rows.len(), 3, "{one}");
        for (row, cores) in rows.iter().zip(["2-core", "4-core", "8-core"]) {
            assert!(row.starts_with(cores) && row.contains("+0.0%"), "{row}");
        }
    }

    #[test]
    fn fixed_priorities_run_at_any_core_count() {
        for mix in ["2MEM-1", "8MEM-1"] {
            for policy in ["fix-0123", "fix-3210"] {
                let line = format!(
                    "run {mix} --policy {policy} --instructions 4000 --warmup 1000 --profile 4000"
                );
                let s = melreq(&line).unwrap_or_else(|e| panic!("{policy} on {mix}: {e}"));
                assert!(s.contains(&policy.to_uppercase()), "{policy} on {mix}:\n{s}");
                assert!(s.contains("SMT speedup"), "{policy} on {mix}:\n{s}");
            }
        }
    }

    #[test]
    fn run_json_is_versioned_and_deterministic() {
        // Case-insensitive lookup feeds the canonical name.
        let run = || quick("run 2mem-1 --json").unwrap();
        let a = run();
        let b = run();
        assert_eq!(a, b, "--json output must be byte-deterministic");
        assert!(a.starts_with(&format!(
            "{{\"schema_version\":{},\"mix\":\"2MEM-1\"",
            melreq_core::api::SCHEMA_VERSION
        )));
        assert!(a.contains("\"policies\":[{\"policy\":\"ME-LREQ\""));
        assert!(!a.contains('\n'), "the report is a single line");
        // And it must match the facade's own rendering for the same
        // request — the CLI adds nothing on top.
        let req =
            SimRequest::new("2MEM-1").policy(PolicySpec::MeLreq).opts(ExperimentOptions::quick());
        let direct = Session::new().run(&req, &RunControl::default()).unwrap().to_json();
        assert_eq!(a, direct);
    }

    #[test]
    fn json_rejects_obs_flags_and_provenance() {
        let e = quick("run 2MEM-1 --json --provenance").unwrap_err();
        assert_eq!(e.exit_code(), 2);
        let e = quick("compare 2MEM-1 --policies hf-rf --json --provenance").unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn compare_json_reports_every_policy() {
        let s = quick("compare 2MEM-1 --policies hf-rf,fq --json").unwrap();
        assert!(s.contains("\"policy\":\"HF-RF\""));
        assert!(s.contains("\"policy\":\"FQ\""));
        assert!(s.starts_with("{\"schema_version\":"));
    }

    #[test]
    fn client_errors_without_a_server() {
        // Port 1 on localhost: connection refused, reported as I/O.
        let e = melreq("client health --addr 127.0.0.1:1").unwrap_err();
        assert_eq!(e.exit_code(), 3, "unreachable server is an I/O error: {e}");
        let e = quick("client run 2MEM-1 --policies hf-rf,fq --addr 127.0.0.1:1").unwrap_err();
        assert_eq!(e.exit_code(), 2, "client run rejects policy sets before connecting");
        // So is a request the server would refuse.
        for bad in ["--instructions 0", "--policy me-lreq-on(epoch=0)"] {
            let e = melreq(&format!("client run 2MEM-1 {bad} --addr 127.0.0.1:1")).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{bad}: {e}");
        }
    }

    #[test]
    fn run_with_obs_flags_writes_trace_and_reports_provenance() {
        let dir = TempDir::new("runobs-test");
        let (trace, series) = (dir.join("trace.json"), dir.join("series.csv"));
        let s = quick(&format!(
            "run 2MEM-1 --policy hf-rf --audit --trace {} --series {} --sample-epoch 2000 \
             --provenance",
            trace.display(),
            series.display()
        ))
        .unwrap();
        assert!(s.contains("0 violations"), "audit and tracing must coexist:\n{s}");
        assert!(s.contains("ui.perfetto.dev"), "summary must point at the viewer:\n{s}");
        assert!(s.contains("decision provenance"), "provenance missing:\n{s}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.contains("\"traceEvents\""), "Chrome trace_event envelope missing");
        assert!(json.contains("\"ph\": \"X\""), "no duration slices emitted");
        let csv = std::fs::read_to_string(&series).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            format!("# schema_version={}", melreq_snap::SCHEMA_VERSION),
            "series CSV must lead with the schema stamp:\n{csv}"
        );
        assert!(lines.next().unwrap().starts_with("cycle,"), "series CSV header:\n{csv}");
        assert!(lines.next().is_some(), "series CSV must have data rows:\n{csv}");

        // Every registered policy traces, parameterized ones included.
        let s = quick("run 2MEM-1 --policy fq --trace /dev/null --provenance").unwrap();
        assert!(s.contains("fq-start-tag"), "FQ must attribute to its own rule:\n{s}");
        let s = quick("run 2MEM-1 --policy bliss(threshold=2) --trace /dev/null").unwrap();
        assert!(
            s.contains("BLISS") && s.contains("trace: "),
            "parameterized policy must trace:\n{s}"
        );
    }

    /// A flag that shapes a trace or a series is a usage error without
    /// one: the run would write nothing the flag could shape.
    #[test]
    fn trace_shaping_flags_need_their_output() {
        for (line, needs) in [
            ("run 2MEM-1 --trace-cap 10", "--trace PATH"),
            ("run 2MEM-1 --trace-cap 10 --series s.csv --provenance", "--trace PATH"),
            ("run 2MEM-1 --sample-epoch 500", "--trace or --series"),
            ("run 2MEM-1 --sample-epoch 500 --provenance", "--trace or --series"),
        ] {
            let e = melreq(line).expect_err(line);
            let (flag, text) = (line.split(' ').nth(2).unwrap(), e.to_string());
            assert_eq!(e.exit_code(), 2, "{line}: {text}");
            assert!(text.contains(flag) && text.contains(needs), "{line}: {text}");
        }
    }

    /// `run --trace` and `--series` files are pinned byte for byte: FNV-1a
    /// of each under the quick options.
    #[test]
    fn run_trace_files_are_pinned() {
        let dir = TempDir::new("tracepin-test");
        let (trace, series) = (dir.join("t.json"), dir.join("s.csv"));
        let hash = |p: &Path| format!("{:016x}", melreq_snap::fnv1a(&std::fs::read(p).unwrap()));
        let (t, s) = (trace.display(), series.display());
        quick(&format!("run 2MEM-1 --policy me-lreq --trace {t} --series {s} --sample-epoch 2000"))
            .unwrap();
        assert_eq!(
            (hash(&trace), hash(&series)),
            ("7ac0c40212ae3322".into(), "ec2a6337445e0e05".into())
        );
        // The default epoch: a trace alone samples every 10 000 cycles.
        quick(&format!("run 2MEM-1 --policy fq --trace {t}")).unwrap();
        assert_eq!(hash(&trace), "6b0c202d227b2141");
    }

    /// The fork-vs-fresh gate fails on one flipped bit of one result, and
    /// names the mix it failed on.
    #[test]
    fn the_fork_vs_fresh_gate_fires_on_one_flipped_bit() {
        let (mix, opts, cache) =
            (mix_by_name("2MEM-1"), ExperimentOptions::quick(), ProfileCache::new());
        let fresh: Vec<MixResult> = [PolicyKind::HfRf, PolicyKind::MeLreq]
            .iter()
            .map(|p| run_mix(&mix, p, &opts, &cache))
            .collect();
        let same = fork_vs_fresh(&mix, &fresh, &fresh).expect("a block agrees with itself");
        assert_eq!(same, results_hash(&fresh));
        let mut forked = fresh.clone();
        let ipc = &mut forked[1].ipc_multi[0];
        *ipc = f64::from_bits(ipc.to_bits() ^ 1);
        let e = fork_vs_fresh(&mix, &forked, &fresh).expect_err("one bit differs");
        assert!(matches!(e, MelreqError::Divergence(_)) && e.exit_code() == 4, "{e}");
        assert!(e.to_string().contains("2MEM-1"), "the error names the mix: {e}");
    }

    /// `--provenance` observes a compare's policies one at a time, off the
    /// pool, so a `--threads` beside it would size nothing.
    #[test]
    fn compare_provenance_refuses_threads() {
        let e = quick("compare 2MEM-1 --policies hf-rf --provenance --threads 2").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("--threads"), "the error names the flag: {e}");
    }

    #[test]
    fn compare_provenance_renders_rule_totals() {
        let s = quick("compare 2MEM-1 --policies hf-rf,me-lreq --provenance").unwrap();
        assert!(s.contains("decision provenance"), "provenance table missing:\n{s}");
        assert!(s.contains("ME-LREQ"), "both policies must appear:\n{s}");
        let s = quick("compare 2MEM-1 --policies fq --provenance").unwrap();
        assert!(s.contains("decision provenance"), "FQ provenance must render:\n{s}");
        // Policies sharing an audit identity keep their own display names.
        let s = quick("compare 2MEM-1 --policies fcfs,fcfs-rf,me-lreq,me-lreq-on --provenance")
            .unwrap();
        let provenance = s.split("decision provenance").nth(1).expect("provenance table");
        let mut labels: Vec<&str> =
            provenance.lines().skip(3).filter_map(|l| l.split_whitespace().next()).collect();
        labels.dedup();
        assert_eq!(labels, ["FCFS", "FCFS-RF", "ME-LREQ", "ME-LREQ-ON"], "{s}");
    }
}
