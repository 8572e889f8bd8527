//! The multiprogrammed evaluation harness (Figures 2–5).
//!
//! [`run_mix`] reproduces the paper's per-workload methodology:
//!
//! 1. profile each application alone (profiling slice) → `ME[i]`;
//! 2. run each application alone on the *evaluation* slice →
//!    `IPC_single[i]` (the SMT-speedup denominator);
//! 3. run the mix on the multi-core machine under the policy until every
//!    core commits its target instruction count (early finishers keep
//!    running — "reload their applications and keep running");
//! 4. report SMT speedup, unfairness and read latencies.
//!
//! [`ProfileCache`] memoizes steps 1–2 per application so sweeping 36
//! mixes × 5 policies does not re-profile the same programs; the cache is
//! `Sync` and shared across the worker threads of [`run_grid_ctl`].
//!
//! # Warm-up sharing
//!
//! Warm-up always runs under the *canonical* policy
//! ([`CANONICAL_WARMUP_POLICY`], the paper's HF-RF baseline, programmed
//! with a flat ME profile) and the measured policy is swapped in at the
//! measurement boundary ([`System::swap_policy`]) — in **every** path:
//! [`run_mix`], [`run_mix_audited`], and the grid. The boundary state is
//! therefore identical across all policies of a (mix, options) group, so
//! [`run_grid_ctl`] simulates it once per group, snapshots it, and forks
//! the bytes into one fresh system per policy; [`run_mix`] on the same
//! inputs reaches the same state by direct simulation, which is what makes
//! the two bit-exactly comparable. With a [`CheckpointStore`] attached
//! (the `store` argument of the `*_ctl` entry points), boundary snapshots
//! and single-core profiles also persist across process invocations.
//!
//! The runs of a group share one more thing: the instruction streams of
//! their measured windows. From the boundary on, every run of a group of
//! more than one reads its ops from one [`OpTape`] per core, so each op
//! is generated once per group; a run on its own ([`run_mix`] and the
//! audited and observed variants) generates its own.

use crate::profile::{profile_app, AppProfile};
use crate::store::CheckpointStore;
use crate::system::{CancelToken, RunOutcome, System};
use crate::SystemConfig;
use melreq_memctrl::policy::PolicyKind;
use melreq_obs::{Collector, Fanout, ObsConfig};
use melreq_snap::Sealed;
use melreq_stats::fairness::FairnessReport;
use melreq_stats::types::Cycle;
use melreq_trace::{InstrStream, OpTape, TapedStream};
use melreq_workloads::{Mix, SliceKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The policy every warm-up runs under, regardless of the measured
/// policy: the paper's baseline, which ignores ME values, so warm-up
/// checkpoints are shared across policies *and* profiles.
pub const CANONICAL_WARMUP_POLICY: PolicyKind = PolicyKind::HfRf;

/// Knobs of an experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Committed instructions per core in the multiprogrammed run (the
    /// paper uses 100 M; the default here keeps CI runtimes sane — the
    /// statistical workloads are stationary, so the policy ordering is
    /// preserved; see EXPERIMENTS.md).
    pub instructions: u64,
    /// Warm-up instructions per core before the measured slice begins.
    pub warmup: u64,
    /// Committed instructions of each single-core profiling run.
    pub profile_instructions: u64,
    /// Which evaluation slice (seed family) the mix runs.
    pub eval_slice: u32,
    /// Safety net: abort a run after `instructions * max_cycles_factor`
    /// cycles.
    pub max_cycles_factor: u64,
    /// Debug knob: run the multiprogrammed system cycle-exactly instead of
    /// fast-forwarding over quiescent cycles (see
    /// [`System::set_tick_exact`]). Results are identical either way; this
    /// exists for kernel-equivalence regression tests and perf baselines.
    pub tick_exact: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            instructions: 150_000,
            warmup: 60_000,
            profile_instructions: 60_000,
            eval_slice: 0,
            max_cycles_factor: 4000,
            tick_exact: false,
        }
    }
}

impl ExperimentOptions {
    /// Quick options for tests.
    pub fn quick() -> Self {
        ExperimentOptions {
            instructions: 20_000,
            warmup: 10_000,
            profile_instructions: 10_000,
            ..Default::default()
        }
    }

    fn max_cycles(&self) -> Cycle {
        self.instructions.saturating_mul(self.max_cycles_factor).max(1 << 22)
    }
}

/// Per-run controls threaded from the caller (CLI or service layer) into
/// the harness: a cooperative [`CancelToken`] (wall-clock timeouts,
/// server shutdown) and an optional simulated-cycle budget that tightens
/// the options' safety net. The default control is inert — every
/// convenience entry point (`run_mix`, `run_mix_group`, …) uses it.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation, polled at epoch boundaries
    /// ([`System::CANCEL_EPOCH`]); `None` attaches nothing.
    pub cancel: Option<CancelToken>,
    /// Simulated-cycle budget for the whole run (warm-up included); the
    /// effective limit is the minimum of this and the options' safety
    /// net. A run that exhausts it reports `timed_out`.
    pub max_cycles: Option<Cycle>,
    /// Worker-thread count for pooled runs (`--threads`); `None` falls
    /// back to the `MELREQ_THREADS` environment variable, then to the
    /// host's available parallelism (see [`worker_count`]). Results are
    /// bit-identical at any value.
    pub threads: Option<usize>,
}

impl RunControl {
    /// The effective cycle limit under `opts`.
    fn limit(&self, opts: &ExperimentOptions) -> Cycle {
        let base = opts.max_cycles();
        self.max_cycles.map_or(base, |b| b.min(base))
    }

    /// Attach the cancel token (if any) to a freshly built system.
    fn arm(&self, sys: &mut System) {
        if let Some(token) = &self.cancel {
            sys.set_cancel(token.clone());
        }
    }
}

/// Memoized single-core profiles: `ME` (profiling slice) and
/// `IPC_single` (evaluation slice) per application code. With a
/// [`CheckpointStore`] attached ([`ProfileCache::with_store`]), profiles
/// missing from memory are looked up on disk before being simulated, and
/// freshly simulated ones are persisted — a warm store answers every
/// profiling request of a sweep without running a single profiling cycle.
#[derive(Debug, Default)]
pub struct ProfileCache {
    me: Mutex<BTreeMap<char, AppProfile>>,
    ipc_single: Mutex<BTreeMap<(char, u32), f64>>,
    store: Option<Arc<CheckpointStore>>,
}

impl ProfileCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache backed by a persistent store.
    pub fn with_store(store: Arc<CheckpointStore>) -> Self {
        ProfileCache { store: Some(store), ..Self::default() }
    }

    /// The profiling-slice profile of `code` (memoized).
    pub fn profile(&self, mix: &Mix, core: usize, opts: &ExperimentOptions) -> AppProfile {
        let app = &mix.apps()[core];
        let mut g = self.me.lock().expect("profile cache poisoned");
        g.entry(app.code)
            .or_insert_with(|| {
                let key = CheckpointStore::profile_key(
                    app.code,
                    SliceKind::Profiling,
                    opts.profile_instructions,
                );
                if let Some(st) = &self.store {
                    if let Some(p) = st.load_profile(key) {
                        return p;
                    }
                }
                let _sp = melreq_prof::span("profile", || format!("app {} (ME)", app.code));
                let p = profile_app(app, SliceKind::Profiling, opts.profile_instructions);
                if let Some(st) = &self.store {
                    st.store_profile(key, &p);
                }
                p
            })
            .clone()
    }

    /// Single-core IPC of `code` on the evaluation slice (memoized). The
    /// persistent record is the full evaluation-slice [`AppProfile`].
    pub fn ipc_single(&self, mix: &Mix, core: usize, opts: &ExperimentOptions) -> f64 {
        let app = &mix.apps()[core];
        let key = (app.code, opts.eval_slice);
        let mut g = self.ipc_single.lock().expect("profile cache poisoned");
        *g.entry(key).or_insert_with(|| {
            let slice = SliceKind::Evaluation(opts.eval_slice);
            let skey = CheckpointStore::profile_key(app.code, slice, opts.instructions);
            if let Some(st) = &self.store {
                if let Some(p) = st.load_profile(skey) {
                    return p.ipc;
                }
            }
            let _sp = melreq_prof::span("profile", || format!("app {} (IPC_single)", app.code));
            let p = profile_app(app, slice, opts.instructions);
            if let Some(st) = &self.store {
                st.store_profile(skey, &p);
            }
            p.ipc
        })
    }
}

/// The full result of one (mix, policy) run.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// The workload that ran.
    pub mix: Mix,
    /// Policy shorthand name ("HF-RF", "ME-LREQ", ...).
    pub policy: &'static str,
    /// SMT speedup (Σ IPC_multi/IPC_single — Figure 2's metric).
    pub smt_speedup: f64,
    /// Weighted speedup (Σ IPC_multi/IPC_single; identical to
    /// [`MixResult::smt_speedup`] under the paper's definitions, kept as
    /// a named field so consumers see the standard metric name).
    pub weighted_speedup: f64,
    /// Harmonic mean of the per-core speedups (balance-sensitive
    /// throughput; 0.0 when any core fully starved).
    pub harmonic_speedup: f64,
    /// Unfairness (max slowdown / min slowdown — Figure 5's metric).
    pub unfairness: f64,
    /// Largest per-core slowdown (IPC_single/IPC_multi).
    pub max_slowdown: f64,
    /// Per-core IPC in the multiprogrammed run.
    pub ipc_multi: Vec<f64>,
    /// Per-core single-core reference IPC.
    pub ipc_single: Vec<f64>,
    /// Per-core mean read latency in cycles (Figure 4 right).
    pub read_latency: Vec<f64>,
    /// Mean read latency over all cores (Figure 4 left).
    pub mean_read_latency: f64,
    /// Mean request-queue occupancy at scheduling decisions.
    pub queue_occupancy_mean: f64,
    /// Mean candidate-set size per grant.
    pub grant_candidates_mean: f64,
    /// Per-channel grant breakdown (reads/writes/row-hits).
    pub channel_traffic: Vec<melreq_memctrl::ChannelTraffic>,
    /// Profiled ME values used to program the priority table.
    pub me: Vec<f64>,
    /// Whether the run aborted on the cycle safety net.
    pub timed_out: bool,
    /// Whether the run was cancelled mid-flight by a [`CancelToken`]
    /// (wall-clock deadline or explicit cancel), at an epoch boundary.
    pub cancelled: bool,
    /// Final cycle count of the multiprogrammed system, warm-up included.
    /// When [`MixResult::warmup_from_checkpoint`] is set, the warm-up
    /// portion was restored rather than simulated — host-throughput
    /// reporting should then count only [`MixResult::measured_cycles`].
    pub sim_cycles: Cycle,
    /// Cycles of the measured window alone (boundary to completion): the
    /// portion this run actually simulated when the warm-up came from a
    /// checkpoint.
    pub measured_cycles: Cycle,
    /// Host wall-clock of this policy's *measured window* alone
    /// (profiling, single-core reference runs, and warm-up excluded) —
    /// the portion attributable to this policy even when warm-up and
    /// policy runs execute on different worker threads.
    pub wall: std::time::Duration,
    /// Host wall-clock spent producing the warm-up boundary state this
    /// result consumed: simulation (or checkpoint-restore) time up to
    /// the snapshot. In a shared-warm-up group the warm-up runs once and
    /// its wall is reported on the run that consumed the warmed system
    /// directly; forked runs report zero here (their snapshot-restore
    /// cost is part of [`MixResult::wall`]).
    pub warm_wall: std::time::Duration,
    /// Whether the warm-up boundary state was restored from a checkpoint
    /// (persistent store hit or in-group snapshot fork) instead of being
    /// simulated by this run.
    pub warmup_from_checkpoint: bool,
}

/// The canonical machine configuration a `cores`-wide warm-up runs under.
fn canonical_config(cores: usize) -> SystemConfig {
    SystemConfig::paper(cores, CANONICAL_WARMUP_POLICY)
}

/// `mix`'s evaluation-slice streams at their first op, in core order.
fn eval_streams(mix: &Mix, opts: &ExperimentOptions) -> Vec<Box<dyn InstrStream + Send>> {
    mix.apps()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            Box::new(a.build_stream(i, SliceKind::Evaluation(opts.eval_slice)))
                as Box<dyn InstrStream + Send>
        })
        .collect()
}

/// A freshly constructed canonical system for `mix` (evaluation-slice
/// streams, flat ME profile, canonical warm-up policy).
fn canonical_system(mix: &Mix, opts: &ExperimentOptions) -> System {
    let cores = mix.cores();
    let mut sys = System::new(canonical_config(cores), eval_streams(mix, opts), &vec![1.0; cores]);
    sys.set_tick_exact(opts.tick_exact);
    sys
}

/// Run `run` on `sys` inside a `cat` span that carries, as args, the
/// kernel work ([`crate::KernelCounters`]) the call did — what a
/// `--profile` artifact needs to say why a warm-up or a policy window
/// took the host time it did.
fn kernel_span<T>(
    cat: &'static str,
    name: impl FnOnce() -> String,
    sys: &mut System,
    run: impl FnOnce(&mut System) -> T,
) -> T {
    let mut sp = melreq_prof::span(cat, name);
    let before = sys.kernel_counters().fields();
    let out = run(sys);
    for ((key, after), (_, before)) in sys.kernel_counters().fields().into_iter().zip(before) {
        sp.arg(key, after - before);
    }
    out
}

/// A canonical system for `mix` at the measurement boundary, ready to
/// receive the measured policy.
struct Boundary {
    sys: System,
    /// Whether the state came from a checkpoint rather than being
    /// simulated here.
    from_checkpoint: bool,
    /// `sys.snapshot()`, when reaching the boundary produced it anyway:
    /// the stored container `sys` was restored from, or the one persisted
    /// after simulating.
    snapshot: Option<Sealed>,
}

/// Reach the measurement boundary of `mix`: restore it from `store` or
/// simulate the warm-up. With a store attached, a simulated boundary is
/// persisted unless the warm-up hit the cycle safety net (the subsequent
/// [`System::run_window`] then reports `timed_out` immediately) or
/// `warmup == 0` (nothing worth caching).
fn boundary_system(
    mix: &Mix,
    opts: &ExperimentOptions,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
) -> Boundary {
    let mut sys = canonical_system(mix, opts);
    ctl.arm(&mut sys);
    let keyed_store = store.filter(|_| opts.warmup > 0).map(|st| {
        let key = CheckpointStore::warmup_key(
            &canonical_config(mix.cores()),
            mix.codes,
            opts.eval_slice,
            opts.warmup,
            opts.instructions,
        );
        (st, key)
    });
    if let Some((st, key)) = keyed_store {
        if let Some(stored) = st.load_warmup_sealed(key) {
            let restored = {
                let _sp = melreq_prof::span("snapshot.decode", || format!("warmup {}", mix.name));
                sys.restore(&stored).is_ok()
            };
            if restored {
                return Boundary { sys, from_checkpoint: true, snapshot: Some(stored) };
            }
            // Checksummed but structurally incompatible (should be
            // unreachable given the versioned keys): re-simulate.
            sys = canonical_system(mix, opts);
            ctl.arm(&mut sys);
        }
    }
    sys.prepare_window(opts.warmup, opts.instructions);
    let reached = kernel_span(
        "warmup",
        || mix.name.to_string(),
        &mut sys,
        |sys| sys.run_to_boundary(ctl.limit(opts)),
    );
    let snapshot = keyed_store.filter(|_| reached).map(|(st, key)| {
        let _sp = melreq_prof::span("snapshot.encode", || format!("warmup {}", mix.name));
        let snapshot = sys.snapshot_sealed();
        st.store_warmup(key, snapshot.as_bytes());
        snapshot
    });
    Boundary { sys, from_checkpoint: false, snapshot }
}

/// What the runs of one (mix, options) group share instead of each
/// making its own: the boundary snapshot every fork restores, and one op
/// tape per core, starting at the boundary, that every run reads its
/// instructions from — so each op of the measured windows is generated
/// once per group, by whichever run needs it first.
struct GroupShare {
    mix: Mix,
    snapshot: Sealed,
    tapes: Vec<Arc<OpTape>>,
    /// Profiler clock at the boundary, for the `tape` span.
    since_ns: u64,
}

impl GroupShare {
    /// Share the boundary `base` stands at among the runs of its group:
    /// `base`'s warmed streams become the tapes' generators and `base` a
    /// reader of the tapes, like every fork. `snapshot` is
    /// `base.snapshot()`, where reaching the boundary left one.
    fn new(
        mix: Mix,
        opts: &ExperimentOptions,
        base: &mut System,
        snapshot: Option<Sealed>,
    ) -> Self {
        let snapshot = snapshot.unwrap_or_else(|| {
            let _sp = melreq_prof::span("snapshot.encode", || format!("fork {}", mix.name));
            base.snapshot_sealed()
        });
        debug_assert!(snapshot.as_bytes() == base.snapshot(), "stale boundary container");
        let warmed = base.replace_streams(eval_streams(&mix, opts));
        let tapes = warmed.into_iter().map(OpTape::new).collect();
        let share = GroupShare { mix, snapshot, tapes, since_ns: melreq_prof::now_ns() };
        share.attach(base, opts);
        share
    }

    /// Point `sys`, which stands at the boundary, at the group's tapes.
    fn attach(&self, sys: &mut System, opts: &ExperimentOptions) {
        let readers = self
            .tapes
            .iter()
            .zip(eval_streams(&self.mix, opts))
            .map(|(tape, own)| {
                Box::new(TapedStream::new(Arc::clone(tape), own)) as Box<dyn InstrStream + Send>
            })
            .collect();
        sys.replace_streams(readers);
    }
}

impl Drop for GroupShare {
    /// The group's last run is over: say what its windows made the
    /// generators produce (against the `ops_fetched` of its `policy`
    /// spans) and what keeping it cost.
    fn drop(&mut self) {
        let sizes: Vec<(u64, usize)> = self.tapes.iter().map(|t| t.size()).collect();
        melreq_prof::record(
            "tape",
            || self.mix.name.to_string(),
            self.since_ns,
            melreq_prof::now_ns(),
            &[
                ("ops_generated", sizes.iter().map(|s| s.0).sum()),
                ("bytes", sizes.iter().map(|s| s.1 as u64).sum()),
                ("longest_bytes", sizes.iter().map(|s| s.1 as u64).max().unwrap_or(0)),
            ],
        );
    }
}

/// Fold one measured-window outcome into a [`MixResult`].
#[allow(clippy::too_many_arguments)]
fn finish_result(
    mix: &Mix,
    name: &'static str,
    me: Vec<f64>,
    ipc_single: Vec<f64>,
    out: RunOutcome,
    sim_cycles: Cycle,
    wall: std::time::Duration,
    warm_wall: std::time::Duration,
    warmup_from_checkpoint: bool,
) -> MixResult {
    let fairness = FairnessReport::compute(&out.ipc, &ipc_single);
    MixResult {
        mix: *mix,
        policy: name,
        smt_speedup: fairness.smt_speedup,
        weighted_speedup: fairness.weighted_speedup,
        harmonic_speedup: fairness.harmonic_speedup,
        unfairness: fairness.unfairness,
        max_slowdown: fairness.max_slowdown,
        ipc_multi: out.ipc,
        ipc_single,
        read_latency: out.read_latency,
        mean_read_latency: out.mean_read_latency,
        queue_occupancy_mean: out.queue_occupancy_mean,
        grant_candidates_mean: out.grant_candidates_mean,
        channel_traffic: out.channel_traffic,
        me,
        timed_out: out.timed_out,
        cancelled: out.cancelled,
        sim_cycles,
        measured_cycles: out.cycles,
        wall,
        warm_wall,
        warmup_from_checkpoint,
    }
}

/// Run one Table 3 mix under one of the paper's policies.
pub fn run_mix(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> MixResult {
    let policy = policy.clone();
    run_mix_custom(
        mix,
        policy.name(),
        |_, _, _| unreachable!("paper policies are built by swap_policy"),
        Some(policy),
        opts,
        cache,
    )
}

/// Run one mix under an arbitrary policy built by `factory` (receives the
/// profiled ME values, core count and seed; returns the policy and its
/// read-first setting). This is the harness entry point for extension
/// policies such as [`melreq_memctrl::FairQueueing`].
///
/// `kind` threads the original [`PolicyKind`] through when there is one,
/// so `PolicyKind::MeLreqOnline`'s system-side estimator still engages;
/// `factory` is only consulted when `kind` is `None`.
pub fn run_mix_custom(
    mix: &Mix,
    name: &'static str,
    factory: impl Fn(&[f64], usize, u64) -> (Box<dyn melreq_memctrl::SchedulerPolicy>, bool),
    kind: Option<PolicyKind>,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> MixResult {
    run_mix_custom_ctl(mix, name, factory, kind, opts, cache, None, &RunControl::default())
}

/// The fully general single-mix entry point: [`run_mix_custom`] plus an
/// optional persistent checkpoint store (the warm-up boundary is restored
/// from it when present, and persisted after simulation otherwise) and a
/// [`RunControl`] (cancellation token, simulated-cycle budget).
/// Every other `run_mix*` variant funnels here.
#[allow(clippy::too_many_arguments)]
pub fn run_mix_custom_ctl(
    mix: &Mix,
    name: &'static str,
    factory: impl Fn(&[f64], usize, u64) -> (Box<dyn melreq_memctrl::SchedulerPolicy>, bool),
    kind: Option<PolicyKind>,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
) -> MixResult {
    let cores = mix.cores();
    let me: Vec<f64> = (0..cores).map(|i| cache.profile(mix, i, opts).me).collect();
    let ipc_single: Vec<f64> = (0..cores).map(|i| cache.ipc_single(mix, i, opts)).collect();

    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let warm_started = std::time::Instant::now();
    let Boundary { mut sys, from_checkpoint, .. } = boundary_system(mix, opts, store, ctl);
    let warm_wall = warm_started.elapsed();
    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let started = std::time::Instant::now();
    match &kind {
        Some(k) => sys.swap_policy(k, &me),
        None => {
            let (policy, read_first) = factory(&me, cores, canonical_config(cores).seed);
            sys.swap_policy_boxed(policy, read_first);
        }
    }
    let out = kernel_span(
        "policy",
        || format!("{name} {}", mix.name),
        &mut sys,
        |sys| sys.run_window(ctl.limit(opts)),
    );
    let wall = started.elapsed();
    finish_result(mix, name, me, ipc_single, out, sys.now(), wall, warm_wall, from_checkpoint)
}

/// Run one mix under one policy with the independent protocol/invariant
/// checker attached ([`melreq_audit`]): every DRAM grant is re-validated
/// against the DDR2 timing constraints and every scheduling decision
/// against the policy's published invariants, while a running hash of the
/// event stream fingerprints the run for determinism comparisons.
///
/// Audited runs never restore checkpoints: the oracle's device replicas
/// arm at attach time, so they must observe the machine from reset. The
/// run still warms up under the canonical policy and swaps at the
/// boundary — the swap is audit-visible (a repeat `CtrlConfig` plus a
/// `ProfileUpdate`) — so a clean audited run certifies the exact command
/// stream that checkpoint-forked runs of the same (mix, policy, options)
/// replay, and its [`MixResult`] must match theirs bit for bit.
///
/// Returns the normal [`MixResult`] plus the [`melreq_audit::AuditReport`]
/// (violation counts, samples, and the stream hash).
pub fn run_mix_audited(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> (MixResult, melreq_audit::AuditReport) {
    run_mix_audited_ctl(mix, policy, opts, cache, &RunControl::default())
}

/// [`run_mix_audited`] with a [`RunControl`] (cancellation token,
/// simulated-cycle budget).
pub fn run_mix_audited_ctl(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    ctl: &RunControl,
) -> (MixResult, melreq_audit::AuditReport) {
    let cores = mix.cores();
    let me: Vec<f64> = (0..cores).map(|i| cache.profile(mix, i, opts).me).collect();
    let ipc_single: Vec<f64> = (0..cores).map(|i| cache.ipc_single(mix, i, opts)).collect();
    let mut sys = canonical_system(mix, opts);
    ctl.arm(&mut sys);
    let (handle, auditor) =
        melreq_audit::Auditor::shared(melreq_audit::AuditorConfig::default(), true);
    sys.attach_audit(handle);
    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let warm_started = std::time::Instant::now();
    sys.prepare_window(opts.warmup, opts.instructions);
    let _ = kernel_span(
        "warmup",
        || mix.name.to_string(),
        &mut sys,
        |sys| sys.run_to_boundary(ctl.limit(opts)),
    );
    let warm_wall = warm_started.elapsed();
    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let started = std::time::Instant::now();
    sys.swap_policy(policy, &me);
    let out = kernel_span(
        "policy",
        || format!("{} {}", policy.name(), mix.name),
        &mut sys,
        |sys| sys.run_window(ctl.limit(opts)),
    );
    let wall = started.elapsed();
    let report = auditor.lock().expect("auditor poisoned").report();
    let result =
        finish_result(mix, policy.name(), me, ipc_single, out, sys.now(), wall, warm_wall, false);
    (result, report)
}

/// Observability knobs of an observed run ([`run_mix_observed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Trace-ring capacity in events (drop-oldest beyond it).
    pub ring_capacity: usize,
    /// Epoch of the time-series sampler in cycles; `None` disables it.
    pub sample_epoch: Option<Cycle>,
}

impl Default for ObserveOptions {
    fn default() -> Self {
        ObserveOptions { ring_capacity: ObsConfig::default().ring_capacity, sample_epoch: None }
    }
}

/// Run one mix under one policy with the [`melreq_obs`] collector
/// attached: the audit tap feeds the trace ring and decision-provenance
/// totals, and (when `observe.sample_epoch` is set) the system
/// pushes one epoch row per boundary into the collector's time series.
///
/// Observed runs simulate fresh (no checkpoint restore), exactly like
/// [`run_mix_audited`], and the observers are inert — the returned
/// [`MixResult`] is bit-identical to [`run_mix`] on the same inputs,
/// which the determinism tests pin for every paper policy.
pub fn run_mix_observed(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    observe: &ObserveOptions,
    cache: &ProfileCache,
) -> (MixResult, Arc<Mutex<Collector>>) {
    let (result, _, collector) = observed_run(mix, policy, opts, observe, cache, false);
    (result, collector)
}

/// [`run_mix_observed`] with the protocol/invariant auditor listening on
/// the same tap (one emission, fanned out to both sinks): returns the
/// result, the audit report, and the collector.
pub fn run_mix_audited_observed(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    observe: &ObserveOptions,
    cache: &ProfileCache,
) -> (MixResult, melreq_audit::AuditReport, Arc<Mutex<Collector>>) {
    let (result, report, collector) = observed_run(mix, policy, opts, observe, cache, true);
    (result, report.expect("audited run produces a report"), collector)
}

fn observed_run(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    observe: &ObserveOptions,
    cache: &ProfileCache,
    audited: bool,
) -> (MixResult, Option<melreq_audit::AuditReport>, Arc<Mutex<Collector>>) {
    let cores = mix.cores();
    let me: Vec<f64> = (0..cores).map(|i| cache.profile(mix, i, opts).me).collect();
    let ipc_single: Vec<f64> = (0..cores).map(|i| cache.ipc_single(mix, i, opts)).collect();
    let mut sys = canonical_system(mix, opts);

    let collector =
        Arc::new(Mutex::new(Collector::new(ObsConfig { ring_capacity: observe.ring_capacity })));
    let obs_sink: Arc<Mutex<dyn melreq_audit::AuditSink>> = collector.clone();
    let auditor = audited.then(|| {
        Arc::new(Mutex::new(melreq_audit::Auditor::new(melreq_audit::AuditorConfig::default())))
    });
    let handle = match &auditor {
        Some(a) => {
            let audit_sink: Arc<Mutex<dyn melreq_audit::AuditSink>> = a.clone();
            Fanout::handle(vec![audit_sink, obs_sink], true)
        }
        None => melreq_audit::AuditHandle::from_shared(obs_sink, true),
    };
    sys.attach_audit(handle);
    if let Some(epoch) = observe.sample_epoch {
        sys.attach_sampler(collector.clone(), epoch);
    }

    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let warm_started = std::time::Instant::now();
    sys.prepare_window(opts.warmup, opts.instructions);
    let _ = kernel_span(
        "warmup",
        || mix.name.to_string(),
        &mut sys,
        |sys| sys.run_to_boundary(opts.max_cycles()),
    );
    let warm_wall = warm_started.elapsed();
    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let started = std::time::Instant::now();
    sys.swap_policy(policy, &me);
    let out = kernel_span(
        "policy",
        || format!("{} {}", policy.name(), mix.name),
        &mut sys,
        |sys| sys.run_window(opts.max_cycles()),
    );
    let wall = started.elapsed();
    collector.lock().expect("obs collector poisoned").finish();
    let report = auditor.map(|a| a.lock().expect("auditor poisoned").report());
    let result =
        finish_result(mix, policy.name(), me, ipc_single, out, sys.now(), wall, warm_wall, false);
    (result, report, collector)
}

/// Results of one mix across several policies, with the first policy
/// treated as the baseline.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// One result per policy, in input order.
    pub results: Vec<MixResult>,
}

impl PolicyComparison {
    /// Speedup of policy `i` over the baseline (policy 0), as a ratio.
    pub fn speedup_over_baseline(&self, i: usize) -> f64 {
        self.results[i].smt_speedup / self.results[0].smt_speedup
    }
}

/// Run one mix under every policy in `policies` (policy 0 = baseline).
pub fn compare_policies(
    mix: &Mix,
    policies: &[PolicyKind],
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> PolicyComparison {
    PolicyComparison { results: policies.iter().map(|p| run_mix(mix, p, opts, cache)).collect() }
}

/// Run one mix under every policy in `policies` with a single shared
/// warm-up: the canonical boundary state is simulated (or loaded from
/// `store`) once, snapshotted, and forked into one fresh system per
/// policy. The first policy consumes the warmed system directly; every
/// other policy restores the snapshot bytes — bit-exactly the same state,
/// as [`System::load_snapshot`] guarantees and the harness tests enforce.
pub fn run_mix_group(
    mix: &Mix,
    policies: &[PolicyKind],
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    store: Option<&CheckpointStore>,
) -> Vec<MixResult> {
    run_mix_group_ctl(mix, policies, opts, cache, store, &RunControl::default())
}

/// [`run_mix_group`] with a [`RunControl`] (cancellation token,
/// simulated-cycle budget, worker-thread count) armed on the warm-up and
/// every forked run. The forked policy runs execute concurrently on the
/// pool; results land in policy-indexed slots so the output order (and
/// every byte of every result) is independent of the interleaving.
pub fn run_mix_group_ctl(
    mix: &Mix,
    policies: &[PolicyKind],
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
) -> Vec<MixResult> {
    let stages = [SweepStage { mixes: vec![*mix], policies: policies.to_vec() }];
    run_sweep_stages(&stages, opts, cache, store, ctl).pop().expect("one stage submitted")
}

/// Worker-thread count for the pooled entry points: an explicit request
/// (`--threads` via [`RunControl::threads`]) wins, then the
/// `MELREQ_THREADS` environment variable, then the host's available
/// parallelism (falling back to 4 when that is unknowable) — capped at
/// the number of schedulable jobs.
pub fn worker_count(jobs: usize, explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            // melreq-allow(D02): --threads / MELREQ_THREADS pick the worker-thread count only; the slot-indexed merge keeps results bit-identical at any parallelism
            std::env::var("MELREQ_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
        .min(jobs.max(1))
}

/// Run the full (mix × policy) grid in parallel across OS threads,
/// returning results in `(mix-major, policy-minor)` order, with an
/// optional persistent checkpoint store shared by every group and a
/// [`RunControl`] (cancellation token, cycle budget, worker-thread count).
///
/// The schedulable units are job-DAG nodes (see [`run_sweep_stages`]):
/// one warm-up job per mix that publishes its boundary snapshot, then
/// one forked policy-run job per (mix, policy) — a five-policy sweep
/// pays one warm-up per mix and runs the five windows concurrently.
/// Warm-up jobs are prioritised widest-mix first (cores descending,
/// input order within a width) so the expensive 8-core warm-ups start
/// before the cheap 2-core ones and the schedule's tail stays short.
/// Thread count comes from [`worker_count`] (`MELREQ_THREADS` overrides
/// host parallelism).
pub fn run_grid_ctl(
    mixes: &[Mix],
    policies: &[PolicyKind],
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
) -> Vec<MixResult> {
    let stages = [SweepStage { mixes: mixes.to_vec(), policies: policies.to_vec() }];
    run_sweep_stages(&stages, opts, cache, store, ctl).pop().expect("one stage submitted")
}

/// One grid stage of a sweep: a set of mixes, each run under every
/// policy of the stage. [`run_sweep_stages`] schedules all stages into
/// one global pool.
#[derive(Debug, Clone)]
pub struct SweepStage {
    /// The stage's mixes, in output order.
    pub mixes: Vec<Mix>,
    /// The policies each mix runs, in output order.
    pub policies: Vec<PolicyKind>,
}

/// One (stage, mix-position) pair that wants its stage's full policy
/// set run from a shared warm-up boundary.
struct GroupSlots<'a> {
    policies: &'a [PolicyKind],
    /// `policies.len()` result slots, policy-indexed.
    slots: &'a [Mutex<Option<MixResult>>],
}

/// Run several (mixes × policies) stages through **one global
/// work-stealing pool** (no per-stage barrier), returning each stage's
/// results in `(mix-major, policy-minor)` order.
///
/// The job DAG has one warm-up job per *distinct* mix across all stages
/// — warm-ups shared by several stages (e.g. a mix that appears in both
/// a figure stage and an ablation stage) run once — and one forked
/// policy-run job per (stage, mix, policy). The warm-up job profiles
/// the mix's applications, simulates (or restores) the canonical
/// boundary, publishes the snapshot bytes, forks every dependent policy
/// run, and finally runs the first policy itself on the warmed system.
/// Warm-up jobs enter the injector with the mix's core count as the
/// priority (longest critical path first); forked runs go to the
/// forking worker's local deque and are stolen by idle siblings.
///
/// Determinism: every result lands in a pre-indexed slot and every run
/// is a pure function of the boundary snapshot, so the returned vectors
/// are bit-identical at any worker count. `warmup_from_checkpoint` is
/// DAG-structural, not timing-dependent: the first (stage, policy) run
/// of a distinct mix inherits the warm-up's provenance flag, every
/// other run forked from the published snapshot reports `true`.
pub fn run_sweep_stages(
    stages: &[SweepStage],
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
) -> Vec<Vec<MixResult>> {
    let stage_runs: Vec<usize> = stages.iter().map(|s| s.mixes.len() * s.policies.len()).collect();
    let total_runs: usize = stage_runs.iter().sum();
    let slots: Vec<Mutex<Option<MixResult>>> = (0..total_runs).map(|_| Mutex::new(None)).collect();

    // Group the (stage, mix-position) consumers by distinct mix, in
    // first-appearance order: one warm-up job per entry.
    let mut groups: Vec<(Mix, Vec<GroupSlots<'_>>)> = Vec::new();
    let mut offset = 0;
    for (si, stage) in stages.iter().enumerate() {
        for (mi, mix) in stage.mixes.iter().enumerate() {
            if stage.policies.is_empty() {
                continue;
            }
            let base = offset + mi * stage.policies.len();
            let consumer = GroupSlots {
                policies: &stage.policies,
                slots: &slots[base..base + stage.policies.len()],
            };
            match groups.iter_mut().find(|(m, _)| m.name == mix.name) {
                Some((_, consumers)) => consumers.push(consumer),
                None => groups.push((*mix, vec![consumer])),
            }
        }
        offset += stage_runs[si];
    }

    let workers = worker_count(total_runs, ctl.threads);
    melreq_exec::run_scope(workers, |scope| {
        for (mix, consumers) in &groups {
            let mix = *mix;
            scope.submit(mix.cores() as u64, move |ctx| {
                warm_up_and_fork(&ctx, mix, consumers, opts, cache, store, ctl);
            });
        }
    });

    let mut out = Vec::with_capacity(stages.len());
    let mut taken = slots.into_iter().map(|s| s.into_inner().expect("result slot poisoned"));
    for runs in stage_runs {
        out.push((0..runs).map(|_| taken.next().flatten().expect("job not run")).collect());
    }
    out
}

/// The warm-up job of one distinct mix: profile, reach the canonical
/// boundary, publish the snapshot, fork every dependent policy run, and
/// run the first policy inline on the warmed system.
fn warm_up_and_fork<'env>(
    ctx: &melreq_exec::Ctx<'_, 'env>,
    mix: Mix,
    consumers: &'env [GroupSlots<'env>],
    opts: &'env ExperimentOptions,
    cache: &'env ProfileCache,
    store: Option<&'env CheckpointStore>,
    ctl: &'env RunControl,
) {
    let cores = mix.cores();
    let me: Vec<f64> = (0..cores).map(|i| cache.profile(&mix, i, opts).me).collect();
    let ipc_single: Vec<f64> = (0..cores).map(|i| cache.ipc_single(&mix, i, opts)).collect();

    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let warm_started = std::time::Instant::now();
    let Boundary { sys: mut base, from_checkpoint, snapshot } =
        boundary_system(&mix, opts, store, ctl);
    let total_runs: usize = consumers.iter().map(|c| c.policies.len()).sum();
    let share = (total_runs > 1).then(|| Arc::new(GroupShare::new(mix, opts, &mut base, snapshot)));
    let warm_wall = warm_started.elapsed();

    // Fork every run but the first, then run the first on the warmed
    // system while the forks are stolen by idle workers.
    let mut first: Option<(&'env Mutex<Option<MixResult>>, &'env PolicyKind)> = None;
    for consumer in consumers {
        for (slot, kind) in consumer.slots.iter().zip(consumer.policies) {
            if first.is_none() {
                first = Some((slot, kind));
                continue;
            }
            let share = Arc::clone(share.as_ref().expect("a group of >1 runs shares"));
            let me = me.clone();
            let ipc_single = ipc_single.clone();
            ctx.fork(move |_ctx| {
                // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
                let started = std::time::Instant::now();
                let mut sys = canonical_system(&mix, opts);
                {
                    let _sp = melreq_prof::span("snapshot.decode", || format!("fork {}", mix.name));
                    sys.restore(&share.snapshot)
                        .expect("boundary snapshot must restore into an identical fresh system");
                }
                share.attach(&mut sys, opts);
                ctl.arm(&mut sys);
                sys.swap_policy(kind, &me);
                let out = kernel_span(
                    "policy",
                    || format!("{} {}", kind.name(), mix.name),
                    &mut sys,
                    |sys| sys.run_window(ctl.limit(opts)),
                );
                let wall = started.elapsed();
                *slot.lock().expect("result slot poisoned") = Some(finish_result(
                    &mix,
                    kind.name(),
                    me,
                    ipc_single,
                    out,
                    sys.now(),
                    wall,
                    std::time::Duration::ZERO,
                    true,
                ));
            });
        }
    }
    let (slot, kind) = first.expect("a group has at least one policy run");
    // melreq-allow(D02): wall-clock elapsed time for the report only; no simulated state derives from it
    let started = std::time::Instant::now();
    let mut sys = base;
    sys.swap_policy(kind, &me);
    let out = kernel_span(
        "policy",
        || format!("{} {}", kind.name(), mix.name),
        &mut sys,
        |sys| sys.run_window(ctl.limit(opts)),
    );
    let wall = started.elapsed();
    *slot.lock().expect("result slot poisoned") = Some(finish_result(
        &mix,
        kind.name(),
        me,
        ipc_single,
        out,
        sys.now(),
        wall,
        warm_wall,
        from_checkpoint,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_workloads::mix_by_name;

    #[test]
    fn run_mix_produces_consistent_result() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let r = run_mix(&mix, &PolicyKind::HfRf, &opts, &cache);
        assert!(!r.timed_out);
        assert_eq!(r.ipc_multi.len(), 2);
        assert!(r.smt_speedup > 0.5 && r.smt_speedup <= 2.0 + 1e-9, "speedup {}", r.smt_speedup);
        assert!(r.unfairness >= 1.0);
        assert!(r.mean_read_latency > 100.0, "latency {}", r.mean_read_latency);
        assert!(
            r.measured_cycles > 0 && r.measured_cycles < r.sim_cycles,
            "measured window ({}) must be a proper suffix of the run ({})",
            r.measured_cycles,
            r.sim_cycles
        );
    }

    #[test]
    fn cache_avoids_reprofiling() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let a = cache.profile(&mix, 0, &opts);
        let b = cache.profile(&mix, 0, &opts);
        assert_eq!(a.me, b.me);
    }

    #[test]
    fn compare_policies_baseline_ratio_is_one() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-4");
        let cmp = compare_policies(&mix, &[PolicyKind::HfRf, PolicyKind::Lreq], &opts, &cache);
        assert!((cmp.speedup_over_baseline(0) - 1.0).abs() < 1e-12);
        assert!(cmp.speedup_over_baseline(1) > 0.5);
    }

    #[test]
    fn audited_run_is_clean_and_reproducible() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let (ra, a) = run_mix_audited(&mix, &PolicyKind::MeLreq, &opts, &cache);
        let (rb, b) = run_mix_audited(&mix, &PolicyKind::MeLreq, &opts, &cache);
        assert!(a.is_clean(), "audit must pass:\n{}", a.render());
        assert!(a.events > 0, "instrumentation must emit events");
        assert_eq!(a.stream_hash, b.stream_hash, "same seed must replay identically");
        assert_eq!(ra.smt_speedup, rb.smt_speedup);
    }

    #[test]
    fn forked_policies_match_fresh_runs_bit_exactly() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let policies = [PolicyKind::HfRf, PolicyKind::MeLreq, PolicyKind::Lreq];
        let group = run_mix_group(&mix, &policies, &opts, &cache, None);
        assert!(!group[0].warmup_from_checkpoint, "first policy owns the warm-up");
        assert!(group[1].warmup_from_checkpoint && group[2].warmup_from_checkpoint);
        for (p, forked) in policies.iter().zip(&group) {
            let fresh = run_mix(&mix, p, &opts, &cache);
            assert_eq!(forked.ipc_multi, fresh.ipc_multi, "{}", p.name());
            assert_eq!(forked.read_latency, fresh.read_latency, "{}", p.name());
            assert_eq!(forked.sim_cycles, fresh.sim_cycles, "{}", p.name());
            assert_eq!(forked.smt_speedup, fresh.smt_speedup, "{}", p.name());
        }
    }

    #[test]
    fn audited_run_matches_unaudited_run_bit_exactly() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MIX-1");
        let (ra, report) = run_mix_audited(&mix, &PolicyKind::MeLreq, &opts, &cache);
        assert!(report.is_clean(), "swap-through-warmup must audit clean:\n{}", report.render());
        let rb = run_mix(&mix, &PolicyKind::MeLreq, &opts, &cache);
        assert_eq!(ra.ipc_multi, rb.ipc_multi);
        assert_eq!(ra.sim_cycles, rb.sim_cycles);
        assert_eq!(ra.smt_speedup, rb.smt_speedup);
    }

    #[test]
    fn warm_store_skips_warmup_and_profiles() {
        use crate::store::CheckpointStore;
        use std::sync::Arc;
        let dir =
            std::env::temp_dir().join(format!("melreq-exp-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");

        let store = Arc::new(CheckpointStore::open(&dir).expect("store"));
        let cache = ProfileCache::with_store(store.clone());
        let run = |cache: &ProfileCache, store: &CheckpointStore| {
            let policies = [PolicyKind::MeLreq];
            run_grid_ctl(&[mix], &policies, &opts, cache, Some(store), &RunControl::default())
                .pop()
                .expect("one run")
        };
        let cold = run(&cache, &store);
        assert!(!cold.warmup_from_checkpoint);
        let s = store.stats();
        assert_eq!(s.warmup_hits, 0);
        assert!(s.profile_hits == 0 && s.profile_misses > 0);

        // Second invocation: fresh in-memory state, same directory.
        let store = Arc::new(CheckpointStore::open(&dir).expect("store"));
        let cache = ProfileCache::with_store(store.clone());
        let warm = run(&cache, &store);
        assert!(warm.warmup_from_checkpoint, "warm store must restore the boundary");
        let s = store.stats();
        assert_eq!(s.warmup_misses, 0, "no warm-up simulated on a warm store");
        assert_eq!(s.profile_misses, 0, "no profiling simulated on a warm store");
        assert!(s.warmup_hits == 1 && s.profile_hits > 0);
        assert_eq!(cold.ipc_multi, warm.ipc_multi);
        assert_eq!(cold.sim_cycles, warm.sim_cycles);
        assert_eq!(cold.smt_speedup, warm.smt_speedup);
        assert_eq!(cold.me, warm.me);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_hit_group_forks_the_stored_container_and_matches_fresh_runs() {
        let dir =
            std::env::temp_dir().join(format!("melreq-exp-share-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let policies = [PolicyKind::HfRf, PolicyKind::MeLreq, PolicyKind::Lreq];
        let ctl = RunControl::default();
        let open = || {
            let store = Arc::new(CheckpointStore::open(&dir).expect("store"));
            (ProfileCache::with_store(store.clone()), store)
        };
        let (cache, store) = open();
        let cold = run_mix_group(&mix, &policies, &opts, &cache, Some(&store));
        assert!(!cold[0].warmup_from_checkpoint && store.stats().warmup_hits == 0);

        // What a store-hit group hands its forks is the stored container
        // itself, and that is the restored machine's own snapshot — with
        // plain streams and again once it reads the group's tapes.
        let Boundary { mut sys, from_checkpoint, snapshot } =
            boundary_system(&mix, &opts, Some(&store), &ctl);
        assert!(from_checkpoint);
        let stored = snapshot.clone().expect("a store hit hands its container back");
        assert!(stored.as_bytes() == sys.snapshot());
        let share = GroupShare::new(mix, &opts, &mut sys, snapshot);
        assert!(share.snapshot == stored && stored.as_bytes() == sys.snapshot());
        drop(share);

        let (cache, store) = open();
        let warm = run_mix_group(&mix, &policies, &opts, &cache, Some(&store));
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses, st.profile_misses), (1, 0, 0));
        for ((p, warm), cold) in policies.iter().zip(&warm).zip(&cold) {
            assert!(warm.warmup_from_checkpoint, "{}", p.name());
            let fresh = run_mix(&mix, p, &opts, &cache);
            for (how, r) in [("cold group", cold), ("fresh run", &fresh)] {
                assert_eq!(warm.ipc_multi, r.ipc_multi, "{} vs {how}", p.name());
                assert_eq!(warm.read_latency, r.read_latency, "{} vs {how}", p.name());
                assert_eq!(warm.sim_cycles, r.sim_cycles, "{} vs {how}", p.name());
                assert_eq!(warm.smt_speedup, r.smt_speedup, "{} vs {how}", p.name());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_matches_serial_order() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mixes = [mix_by_name("2MEM-1"), mix_by_name("2MEM-2")];
        let policies = [PolicyKind::HfRf, PolicyKind::MeLreq];
        let grid = run_grid_ctl(&mixes, &policies, &opts, &cache, None, &RunControl::default());
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].mix.name, "2MEM-1");
        assert_eq!(grid[0].policy, "HF-RF");
        assert_eq!(grid[1].policy, "ME-LREQ");
        assert_eq!(grid[2].mix.name, "2MEM-2");
        // Parallel result equals a serial re-run (determinism end-to-end).
        let serial = run_mix(&mixes[1], &policies[1], &opts, &cache);
        assert_eq!(serial.smt_speedup, grid[3].smt_speedup);
    }
}
