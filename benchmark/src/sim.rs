//! The three simulation workloads: `kernel_mem8`, `kernel_ilp4`, `sweep_warm`.
//!
//! All three are one call, `run_sweep_stages`, over different stages
//! (`run_mix_group_ctl` is that call with one stage of one mix). A pass is
//! the whole call against a warm on-disk store with a fresh `ProfileCache`,
//! so profiles and warm-up snapshots are read back from the store every
//! pass. The cold set-up is the same call against an empty store.

use crate::report::{peak_rss_mb, scratch_dir, Report};
use crate::spans::{program_ms, Spans};
use crate::spec::SETUPS;
use crate::stats::{mean, Fastest, Rng};
use melreq_core::experiment::{
    run_mix, run_mix_audited, run_mix_observed, run_sweep_stages, ExperimentOptions, MixResult,
    ObserveOptions, ProfileCache, RunControl, SweepStage, CANONICAL_WARMUP_POLICY,
};
use melreq_core::{CheckpointStore, RunOutcome, System, SystemConfig};
use melreq_memctrl::canonical_name;
use melreq_memctrl::policy::PolicyKind;
use melreq_trace::InstrStream;
use melreq_workloads::{mix_by_name, mixes_for_cores, Mix, MixKind, SliceKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Fewest timed passes a run reports on, however short `--seconds` is.
const MIN_PASSES: u64 = 8;
/// Untraced passes a traced run times for `prof.overhead_ratio`.
const REFERENCE_PASSES: usize = 3;

pub struct SimWorkload {
    name: &'static str,
    stages: Vec<SweepStage>,
    opts: ExperimentOptions,
    threads: usize,
}

/// The inputs of `name`, generated from `seed`. The evaluation slice is
/// fixed: host speed differs by 5 % between slices (585–617 kinstr/s on
/// `kernel_mem8`), which as seed-to-seed spread would use up the whole
/// bound. The seed orders the policies and, within a stage, the mixes:
/// same work, same results per (mix, policy), different schedule.
pub fn plan(name: &'static str, seed: u64) -> SimWorkload {
    let mut rng = Rng(seed);
    let mut stage = |mut mixes: Vec<Mix>| {
        let mut policies = PolicyKind::figure2_set();
        rng.shuffle(&mut mixes);
        rng.shuffle(&mut policies);
        SweepStage { mixes, policies }
    };
    let (stages, instructions, threads) = match name {
        "kernel_mem8" => (vec![stage(vec![mix_by_name("8MEM-1")])], 25_000, 1),
        "kernel_ilp4" => {
            let ilp4 = Mix { name: "4ILP-B", codes: "armo", kind: MixKind::Mixed };
            (vec![stage(vec![ilp4])], 150_000, 1)
        }
        "sweep_warm" => (
            vec![
                stage(mixes_for_cores(2, Some(MixKind::Mem))),
                stage(mixes_for_cores(4, Some(MixKind::Mixed))),
            ],
            20_000,
            2,
        ),
        other => unreachable!("{other} is not a simulation workload"),
    };
    let opts = ExperimentOptions { instructions, ..ExperimentOptions::default() };
    SimWorkload { name, stages, opts, threads }
}

/// A deterministic fingerprint of one run: everything a policy run
/// reports except host time.
fn digest(r: &MixResult) -> u64 {
    let mut enc = melreq_snap::Enc::new();
    enc.str(r.mix.name);
    enc.str(r.policy);
    enc.f64s(&r.ipc_multi);
    enc.f64s(&r.ipc_single);
    enc.f64s(&r.read_latency);
    enc.f64s(&r.me);
    enc.f64(r.smt_speedup);
    enc.f64(r.unfairness);
    enc.f64(r.queue_occupancy_mean);
    enc.f64(r.grant_candidates_mean);
    for c in &r.channel_traffic {
        enc.u64s(&[c.reads, c.writes, c.row_hits]);
    }
    enc.u64(r.sim_cycles);
    enc.u64(r.measured_cycles);
    enc.bool(r.timed_out || r.cancelled);
    melreq_snap::fnv1a(&enc.into_bytes())
}

fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.cycles == b.cycles
        && a.ipc == b.ipc
        && a.read_latency == b.read_latency
        && a.bytes_by_core == b.bytes_by_core
        && a.channel_traffic == b.channel_traffic
}

struct Pass {
    wall_s: f64,
    /// The parts `stats::Fastest` sums: each run's host time as the harness
    /// reports it (restore or warm-up, policy swap, window) per worker
    /// thread, then whatever else the call spent (profiles, scheduling,
    /// waiting for the last job).
    parts: Vec<f64>,
    results: Vec<MixResult>,
    store_hit_rate: f64,
}

impl SimWorkload {
    /// One whole call against the store at `dir`, on `threads` workers.
    fn pass(&self, dir: &Path, threads: usize) -> Pass {
        let store = Arc::new(CheckpointStore::open(dir).expect("open checkpoint store"));
        let cache = ProfileCache::with_store(store.clone());
        let ctl = RunControl { threads: Some(threads), ..RunControl::default() };
        let started = Instant::now();
        let results = run_sweep_stages(&self.stages, &self.opts, &cache, Some(&store), &ctl);
        let wall_s = started.elapsed().as_secs_f64();
        let results: Vec<MixResult> = results.into_iter().flatten().collect();
        let mut parts: Vec<f64> =
            results.iter().map(|r| (r.wall + r.warm_wall).as_secs_f64() / threads as f64).collect();
        parts.push(wall_s - parts.iter().sum::<f64>());
        Pass { wall_s, parts, results, store_hit_rate: store.stats().hit_rate() }
    }

    /// Instructions the measured windows of one pass commit to.
    fn kinstr_per_pass(&self) -> f64 {
        let windows: usize = self
            .stages
            .iter()
            .map(|s| s.mixes.iter().map(Mix::cores).sum::<usize>() * s.policies.len())
            .sum();
        (windows as u64 * self.opts.instructions) as f64 / 1e3
    }

    /// Count a pass's runs, failing those that differ from `reference`.
    fn tally(pass: &Pass, reference: &[u64], report: &mut Report) {
        for (r, want) in pass.results.iter().zip(reference) {
            report.attempted += 1;
            if r.timed_out || r.cancelled || digest(r) != *want {
                report.failed += 1;
            }
        }
        report.check(pass.results.len() == reference.len(), || "pass lost runs".into());
    }

    /// `--trace 0`: cold set-ups, then timed passes with tracing off.
    pub fn run_timed(&self, seconds: f64, report: &mut Report) {
        let mut setup = Fastest::default();
        let mut warm: Option<(PathBuf, Vec<u64>)> = None;
        for i in 0..SETUPS {
            let dir = scratch_dir(self.name, &format!("setup{i}"));
            let cold = self.pass(&dir, self.threads);
            report.check(cold.store_hit_rate == 0.0, || "cold set-up hit the store".into());
            setup.round(&cold.parts);
            if let Some((old, _)) = warm.replace((dir, cold.results.iter().map(digest).collect())) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        let (dir, reference) = warm.expect("at least one set-up");

        let mut passes = Fastest::default();
        let started = Instant::now();
        while passes.rounds < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
            let pass = self.pass(&dir, self.threads);
            Self::tally(&pass, &reference, report);
            report.check(pass.store_hit_rate == 1.0, || {
                format!("warm pass store hit rate {}", pass.store_hit_rate)
            });
            passes.round(&pass.parts);
        }
        let _ = std::fs::remove_dir_all(dir);

        let pass_s = passes.sum();
        report.set("setup_s", setup.sum(), setup.rounds);
        report.set("sim_kinstr_per_s", self.kinstr_per_pass() / pass_s, passes.rounds);
        report.set("closed_rps", 1.0 / pass_s, passes.rounds);
        report.set("p50_ms", pass_s * 1e3, passes.rounds);
    }

    /// A fresh canonical system for `mix`, as the harness builds it.
    fn canonical(&self, mix: &Mix) -> System {
        let slice = SliceKind::Evaluation(self.opts.eval_slice);
        let streams = mix
            .apps()
            .iter()
            .enumerate()
            .map(|(i, a)| Box::new(a.build_stream(i, slice)) as Box<dyn InstrStream + Send>)
            .collect();
        let cores = mix.cores();
        System::new(SystemConfig::paper(cores, CANONICAL_WARMUP_POLICY), streams, &vec![1.0; cores])
    }

    /// The harness's cycle safety net for one window.
    fn cycle_limit(&self) -> u64 {
        self.opts.instructions.saturating_mul(self.opts.max_cycles_factor).max(1 << 22)
    }

    /// `--trace 1`: one set-up and one pass with spans on, the first mix's
    /// group re-driven call by call, then untraced probes.
    pub fn run_traced(&self, trace_path: &Path, header: &str, report: &mut Report) {
        let dir = scratch_dir(self.name, "traced");
        let mut sp = Spans::on();

        let cold = sp.scope("setup", 0, |_| self.pass(&dir, self.threads));
        let reference: Vec<u64> = cold.results.iter().map(digest).collect();
        let setup_prog = sp.drain_program();

        let traced = sp.scope("pass", 1, |sp| {
            sp.scope("run_sweep_stages", 1, |_| self.pass(&dir, self.threads))
        });
        Self::tally(&traced, &reference, report);
        let pass_prog = sp.drain_program();

        let mix = self.stages[0].mixes[0];
        let policies = &self.stages[0].policies;
        let (windows, me, boundary) =
            sp.scope("redrive", 2, |sp| self.redrive(sp, &dir, &mix, policies, report));
        for (kind, out) in policies.iter().zip(&windows) {
            let want = cold.results.iter().find(|r| r.mix == mix && r.policy == kind.name());
            report.check(
                want.is_some_and(|w| w.ipc_multi == out.ipc && w.measured_cycles == out.cycles),
                || format!("{}: call-by-call drive differs from the harness", kind.name()),
            );
        }
        sp.finish(trace_path, header);

        // From the set-up's program spans: where a cold start spends its time.
        let sum = |v: Vec<f64>| (v.iter().sum::<f64>(), v.len() as u64);
        let prog = |range: &std::ops::Range<usize>, cat: &str, part: &str| {
            sum(program_ms(&sp.program[range.clone()], cat, |n| n.contains(part)))
        };
        let (ms, n) = prog(&setup_prog, "profile", "(ME)");
        report.set("core.profile_ms", ms, n);
        let (ms, n) = prog(&setup_prog, "profile", "(IPC_single)");
        report.set("core.ipc_single_ms", ms, n);
        let (ms, n) = prog(&setup_prog, "warmup", "");
        report.set("core.warmup_ms", ms, n);

        // From the traced pass: the executor's share.
        let (job_ms, jobs) = prog(&pass_prog, "exec.job", "");
        report.set("exec.jobs_per_pass", jobs as f64, 1);
        report.set(
            "exec.worker_busy_pct",
            job_ms / (traced.wall_s * 1e3 * self.threads as f64) * 100.0,
            jobs,
        );
        report.set("core.store.hit_rate", traced.store_hit_rate, 1);
        report.check(traced.store_hit_rate == 1.0, || "traced pass missed the store".into());

        // From the call-by-call drive.
        let window_ms = sp.durations_ms("System::run_window");
        for (kind, ms) in policies.iter().zip(&window_ms) {
            report.set(&format!("core.run_window_ms.{}", canonical_name(kind)), *ms, 1);
        }
        let window_s = window_ms.iter().sum::<f64>() / 1e3;
        let cycles: u64 = windows.iter().map(|o| o.cycles).sum();
        let grants: u64 =
            windows.iter().flat_map(|o| &o.channel_traffic).map(|c| c.reads + c.writes).sum();
        report.set("core.mcyc_per_s", cycles as f64 / 1e6 / window_s, windows.len() as u64);
        report.set("core.host_ns_per_grant", window_s * 1e9 / grants.max(1) as f64, grants);
        let restore = sp.durations_ms("System::load_snapshot");
        report.set("core.restore_ms", mean(&restore), restore.len() as u64);
        let swap = sp.durations_ms("System::swap_policy");
        report.set("core.swap_policy_us", mean(&swap) * 1e3, swap.len() as u64);
        report.set("core.snapshot_ms", mean(&sp.durations_ms("System::snapshot")), 1);
        report.set("core.store.load_ms", mean(&sp.durations_ms("CheckpointStore::load_warmup")), 1);
        report.set(
            "core.store.save_ms",
            mean(&sp.durations_ms("CheckpointStore::store_warmup")),
            1,
        );
        sp.print_self_times();

        self.simulated_stats(&cold.results, report);

        // Untraced from here on.
        let reference_walls: Vec<f64> = (0..REFERENCE_PASSES)
            .map(|_| {
                let pass = self.pass(&dir, self.threads);
                Self::tally(&pass, &reference, report);
                pass.wall_s
            })
            .collect();
        let untraced = reference_walls.iter().copied().fold(f64::INFINITY, f64::min);
        report.set("prof.overhead_ratio", traced.wall_s / untraced, REFERENCE_PASSES as u64);
        report.set("host.peak_rss_mb", peak_rss_mb(), 1);
        if self.threads > 1 {
            let serial = self.pass(&dir, 1);
            Self::tally(&serial, &reference, report);
            report.set("exec.speedup_2t", serial.wall_s / untraced, 1);
        }
        self.probe_fast_forward(&mix, &me, &boundary, report);
        self.probe_taps(&dir, &mix, report);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Re-drive one mix's group through the public calls the harness makes,
    /// one span per call. Returns each policy's window outcome, the mix's
    /// ME profile and its warm-up boundary snapshot.
    fn redrive(
        &self,
        sp: &mut Spans,
        dir: &Path,
        mix: &Mix,
        policies: &[PolicyKind],
        report: &mut Report,
    ) -> (Vec<RunOutcome>, Vec<f64>, Vec<u8>) {
        let store = Arc::new(CheckpointStore::open(dir).expect("open checkpoint store"));
        let cache = ProfileCache::with_store(store.clone());
        let cores = mix.cores();
        let me: Vec<f64> = (0..cores)
            .map(|i| sp.scope("ProfileCache::profile", 2, |_| cache.profile(mix, i, &self.opts).me))
            .collect();
        for i in 0..cores {
            sp.scope("ProfileCache::ipc_single", 2, |_| cache.ipc_single(mix, i, &self.opts));
        }
        let key = CheckpointStore::warmup_key(
            &SystemConfig::paper(cores, CANONICAL_WARMUP_POLICY),
            mix.codes,
            self.opts.eval_slice,
            self.opts.warmup,
            self.opts.instructions,
        );
        let bytes = sp
            .scope("CheckpointStore::load_warmup", 2, |_| store.load_warmup(key))
            .expect("set-up stored the warm-up boundary");

        let limit = self.cycle_limit();
        let outcomes = policies
            .iter()
            .map(|kind| {
                let mut sys = sp.scope("System::new", 2, |_| self.canonical(mix));
                sp.scope("System::load_snapshot", 2, |_| sys.load_snapshot(&bytes))
                    .expect("boundary snapshot restores into a fresh system");
                sp.scope("System::swap_policy", 2, |_| sys.swap_policy(kind, &me));
                sp.scope("System::run_window", 2, |_| sys.run_window(limit))
            })
            .collect();

        let mut sys = self.canonical(mix);
        sys.load_snapshot(&bytes).expect("boundary snapshot restores into a fresh system");
        let again = sp.scope("System::snapshot", 2, |_| sys.snapshot());
        report.check(again == bytes, || "a restored boundary snapshots to other bytes".into());
        report.set("core.snapshot_kb", again.len() as f64 / 1024.0, 1);
        let side =
            CheckpointStore::open(scratch_dir(self.name, "save")).expect("open scratch store");
        sp.scope("CheckpointStore::store_warmup", 2, |_| side.store_warmup(key, &again));
        let _ = std::fs::remove_dir_all(side.dir());
        (outcomes, me, bytes)
    }

    /// Simulated statistics of the ME-LREQ runs; identical on every run of
    /// the same code, whatever the host does.
    fn simulated_stats(&self, results: &[MixResult], report: &mut Report) {
        let of = |policy: &str| -> Vec<&MixResult> {
            results.iter().filter(|r| r.policy == policy).collect()
        };
        let (melreq, hfrf) = (of("ME-LREQ"), of("HF-RF"));
        let n = melreq.len() as u64;
        let avg = |f: fn(&MixResult) -> f64| mean(&melreq.iter().map(|r| f(r)).collect::<Vec<_>>());
        let speedup = |rs: &[&MixResult]| rs.iter().map(|r| r.smt_speedup).sum::<f64>();
        report.set("sim.melreq_gain_pct", (speedup(&melreq) / speedup(&hfrf) - 1.0) * 100.0, n);
        report.set("memctrl.read_lat_cyc", avg(|r| r.mean_read_latency), n);
        report.set("memctrl.queue_occupancy_mean", avg(|r| r.queue_occupancy_mean), n);
        report.set("memctrl.grant_candidates_mean", avg(|r| r.grant_candidates_mean), n);
        let traffic = || melreq.iter().flat_map(|r| &r.channel_traffic);
        let grants: u64 = traffic().map(|c| c.reads + c.writes).sum();
        let row_hits: u64 = traffic().map(|c| c.row_hits).sum();
        report.set("dram.row_hit_rate", row_hits as f64 / grants.max(1) as f64, grants);
        report.set("dram.grants", grants as f64, n);
        report.set("cpu.ipc_sum", avg(|r| r.ipc_multi.iter().sum()), n);
        report.set(
            "core.sim_cycles",
            melreq.iter().map(|r| r.measured_cycles).sum::<u64>() as f64,
            n,
        );
        println!(
            "sim.melreq_gain_pct is simulated SMT speedup of ME-LREQ over HF-RF; the paper's 8-core \
             MEM average is +19.9 %. This is {} mix(es) on a {} k window of an unvalidated model.",
            n,
            self.opts.instructions / 1000
        );
    }

    /// The ME-LREQ window of `mix` twice from its `boundary` snapshot: cycle
    /// by cycle, and with fast-forward. Same outcome, different host time.
    fn probe_fast_forward(&self, mix: &Mix, me: &[f64], boundary: &[u8], report: &mut Report) {
        let window = |tick_exact: bool| {
            let mut sys = self.canonical(mix);
            sys.set_tick_exact(tick_exact);
            sys.load_snapshot(boundary).expect("boundary snapshot restores into a fresh system");
            sys.swap_policy(&PolicyKind::MeLreq, me);
            let started = Instant::now();
            let out = sys.run_window(self.cycle_limit());
            (started.elapsed().as_secs_f64(), out)
        };
        let (exact_s, exact) = window(true);
        let (fast_s, fast) = window(false);
        report.check(same_outcome(&exact, &fast), || "tick-exact differs from fast-forward".into());
        report.set("core.ff_speedup", exact_s / fast_s, 1);
    }

    /// ME-LREQ on `mix` from reset: plain, with the auditor, with the
    /// observer. The taps must not change the result, only the host time.
    fn probe_taps(&self, dir: &Path, mix: &Mix, report: &mut Report) {
        let store = Arc::new(CheckpointStore::open(dir).expect("open checkpoint store"));
        let cache = ProfileCache::with_store(store);
        let kind = PolicyKind::MeLreq;
        let timed = |f: &dyn Fn() -> MixResult| {
            let started = Instant::now();
            let r = f();
            (started.elapsed().as_secs_f64(), digest(&r))
        };
        let (plain_s, plain) = timed(&|| run_mix(mix, &kind, &self.opts, &cache));
        let (audit_s, audited) = timed(&|| run_mix_audited(mix, &kind, &self.opts, &cache).0);
        let (obs_s, observed) = timed(&|| {
            run_mix_observed(mix, &kind, &self.opts, &ObserveOptions::default(), &cache).0
        });
        report.check(plain == audited, || "audited run differs from the plain run".into());
        report.check(plain == observed, || "observed run differs from the plain run".into());
        report.set("audit.overhead_ratio", audit_s / plain_s, 1);
        report.set("obs.overhead_ratio", obs_s / plain_s, 1);
    }
}
