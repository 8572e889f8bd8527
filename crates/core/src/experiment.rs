//! The multiprogrammed evaluation harness (Figures 2–5).
//!
//! Every number in those figures is one measurement, and [`run_tapped`]
//! is the one place it is taken:
//!
//! 1. profile each application alone (profiling slice) → `ME[i]`;
//! 2. run each application alone on the *evaluation* slice →
//!    `IPC_single[i]` (the SMT-speedup denominator);
//! 3. bring the mix to its measurement *boundary*: warm the multi-core
//!    machine up under the canonical policy, or restore that state from
//!    a [`CheckpointStore`];
//! 4. swap the [`Measured`] policy in and run until every core commits
//!    its target instruction count (early finishers keep running —
//!    "reload their applications and keep running");
//! 5. report SMT speedup, unfairness and read latencies.
//!
//! [`ProfileCache`] memoizes steps 1–2 per application so sweeping 36
//! mixes × 5 policies does not re-profile the same programs; the cache is
//! `Sync` and shared across the worker threads of [`run_sweep_stages`].
//! [`Taps`] says who listens to steps 3–4 (the auditor, the trace
//! collector, both or nobody) and a [`RunControl`] bounds them.
//! [`run_mix`], [`run_mix_custom`], [`run_mix_audited`] and
//! [`run_mix_observed`] are that call with the store, the control and the
//! taps filled in.
//!
//! # Warm-up sharing
//!
//! Warm-up always runs under the *canonical* policy
//! ([`CANONICAL_WARMUP_POLICY`], the paper's HF-RF baseline, programmed
//! with a flat ME profile) and the measured policy is swapped in at the
//! boundary ([`System::swap_policy`]), tapped or not. The boundary state
//! is therefore identical across all policies of a (mix, options) group,
//! so [`run_sweep_stages`] reaches it once per group, snapshots it, and
//! forks the bytes into one fresh system per policy, each of which takes
//! steps 4–5 exactly as a run on its own does; [`run_mix`] on the same
//! inputs reaches the same state by direct simulation, which is what makes
//! the two bit-exactly comparable. With a [`CheckpointStore`] attached,
//! boundary snapshots and single-core profiles also persist across
//! process invocations.
//!
//! The runs of a group share one more thing: the instruction streams of
//! their measured windows. From the boundary on, every run of a group of
//! more than one reads its ops from one [`OpTape`] per core, so each op
//! is generated once per group; a run on its own generates its own —
//! unless its store keeps boundaries resident
//! ([`CheckpointStore::open_resident`], a server's) and this process has
//! used the boundary before: then the group is every run of the process
//! on that boundary, the second of which records what the rest replay.
//!
//! And the runs of a group share whole windows where the policies cannot
//! differ: every policy ranks cores, so a window whose read decisions
//! never had two cores' requests to choose between is the same window
//! under every policy of its rule class (`read_first`, `hit_first`). The
//! first run to simulate one publishes it and the rest of its class score
//! it without simulating; a `--profile` artifact shows them as `policy`
//! spans with `shared: 1`.

use crate::profile::{profile_app, AppProfile};
use crate::store::CheckpointStore;
use crate::system::{CancelToken, RunOutcome, System};
use crate::SystemConfig;
use melreq_audit::{AuditHandle, AuditReport, AuditSink, Auditor, AuditorConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::SchedulerPolicy;
use melreq_obs::{Collector, Fanout, DEFAULT_TRACE_CAPACITY};
use melreq_snap::Sealed;
use melreq_stats::fairness::FairnessReport;
use melreq_stats::types::Cycle;
use melreq_trace::{InstrStream, OpTape, TapedStream};
use melreq_workloads::{AppSpec, Mix, SliceKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

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
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            instructions: 150_000,
            warmup: 60_000,
            profile_instructions: 60_000,
            eval_slice: 0,
            max_cycles_factor: 4000,
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
/// the options' safety net. The default control is inert — the
/// [`run_mix`] family uses it.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation, polled at epoch boundaries
    /// ([`System::CANCEL_EPOCH`]); `None` attaches nothing.
    pub cancel: Option<CancelToken>,
    /// Simulated-cycle budget for the whole run (warm-up included); the
    /// effective limit is the minimum of this and the options' safety
    /// net. A run that exhausts it reports `timed_out`.
    pub max_cycles: Option<Cycle>,
    /// Worker-thread count for pooled runs (`--threads`); `None` means
    /// the host's available parallelism (see [`worker_count`]). Results
    /// are bit-identical at any value.
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

/// What a single-core profile depends on: application code, slice, and
/// committed instruction count.
type ProfileId = (char, SliceKind, u64);

/// Memoized single-core profiles: `ME` (profiling slice) and
/// `IPC_single` (evaluation slice) per application. With a
/// [`CheckpointStore`] attached ([`ProfileCache::with_store`]), profiles
/// missing from memory are looked up on disk before being simulated, and
/// freshly simulated ones are persisted — a warm store answers every
/// profiling request of a sweep without running a single profiling cycle.
#[derive(Debug, Default)]
pub struct ProfileCache {
    profiles: Mutex<BTreeMap<ProfileId, Arc<OnceLock<AppProfile>>>>,
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

    /// The profile of `app` alone over `instructions` committed ops of
    /// `slice`, and whether this call simulated it: from memory, else from
    /// the store, else simulated here and persisted. Every profile the
    /// harness uses comes through this lookup. Each profile has a cell of
    /// its own, so callers wait only for the one they asked for.
    pub fn lookup(&self, app: &AppSpec, slice: SliceKind, instructions: u64) -> (AppProfile, bool) {
        let cell = {
            let mut memo = self.profiles.lock().expect("profile cache poisoned");
            Arc::clone(memo.entry((app.code, slice, instructions)).or_default())
        };
        let mut simulated = false;
        let profile = cell.get_or_init(|| {
            let key = CheckpointStore::profile_key(app.code, slice, instructions);
            if let Some(p) = self.store.as_ref().and_then(|st| st.load_profile(key)) {
                return p;
            }
            simulated = true;
            let role = match slice {
                SliceKind::Profiling => "ME",
                SliceKind::Evaluation(_) => "IPC_single",
            };
            let _sp = melreq_prof::span("profile", || format!("app {} ({role})", app.code));
            let p = profile_app(app, slice, instructions);
            if let Some(st) = &self.store {
                st.store_profile(key, &p);
            }
            p
        });
        (profile.clone(), simulated)
    }

    /// The profiling-slice profile of the application on `core` of `mix`.
    pub fn profile(&self, mix: &Mix, core: usize, opts: &ExperimentOptions) -> AppProfile {
        self.lookup(&mix.apps()[core], SliceKind::Profiling, opts.profile_instructions).0
    }

    /// Single-core IPC of that application on the evaluation slice. The
    /// persistent record is the full evaluation-slice [`AppProfile`].
    pub fn ipc_single(&self, mix: &Mix, core: usize, opts: &ExperimentOptions) -> f64 {
        let slice = SliceKind::Evaluation(opts.eval_slice);
        self.lookup(&mix.apps()[core], slice, opts.instructions).0.ipc
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

/// A freshly constructed canonical system for `mix` (evaluation-slice
/// streams, flat ME profile, canonical warm-up policy), to simulate the
/// warm-up from reset.
fn canonical_system(mix: &Mix, opts: &ExperimentOptions) -> System {
    let cores = mix.cores();
    System::new(canonical_config(cores), mix.eval_streams(opts.eval_slice), &vec![1.0; cores])
}

/// `share`'s boundary restored into a canonical system built to receive
/// it ([`System::for_restore`]) and armed with `ctl`, inside a
/// `snapshot.decode` span named `what` that says whether the container
/// was already in memory.
fn restored_system(
    share: &GroupShare,
    ctl: &RunControl,
    what: &str,
    resident: bool,
) -> Result<System, melreq_snap::SnapError> {
    let (mix, cores) = (&share.mix, share.mix.cores());
    let mut sp = melreq_prof::span("snapshot.decode", || format!("{what} {}", mix.name));
    sp.arg("resident", u64::from(resident));
    let streams = mix.eval_streams(share.eval_slice);
    let mut sys = System::for_restore(canonical_config(cores), streams, &vec![1.0; cores]);
    // Armed at cycle 0: the token is polled at the window's first step.
    ctl.arm(&mut sys);
    sys.restore(&share.snapshot)?;
    Ok(sys)
}

/// The host clock, for the `wall` / `warm_wall` a [`MixResult`] reports.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock elapsed time for the report only; no simulated state derives from it"
)]
fn host_clock() -> Instant {
    Instant::now()
}

/// Run `run` on `sys` inside a `cat` span that carries, as args, the
/// kernel work ([`crate::KernelCounters`]) the call did — what a
/// `--profile` artifact needs to say why a warm-up or a policy window
/// took the host time it did — and `taped`, when its ops came off shared
/// [`OpTape`]s, where `ops_fetched` counts ops nobody had to generate.
fn kernel_span<T>(
    cat: &'static str,
    name: impl FnOnce() -> String,
    sys: &mut System,
    run: impl FnOnce(&mut System) -> T,
    taped: bool,
) -> T {
    let mut sp = melreq_prof::span(cat, name);
    let before = sys.kernel_counters().fields();
    let out = run(sys);
    for ((key, after), (_, before)) in sys.kernel_counters().fields().into_iter().zip(before) {
        sp.arg(key, after - before);
    }
    if taped {
        sp.arg("taped", 1);
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
    /// `sys.snapshot()` as what the runs from this boundary can share,
    /// when reaching the boundary produced it anyway: the stored container
    /// `sys` was restored from, or the one persisted after simulating.
    share: Option<Arc<GroupShare>>,
    /// Whether `share` was resident in the store: this process has used
    /// this boundary before.
    reused: bool,
}

/// Reach the measurement boundary of `mix`: restore it from `store` or
/// simulate the warm-up, after `attach` has run on the system that will
/// simulate it from reset. With a store attached, a simulated boundary is
/// persisted unless the warm-up hit the cycle safety net (the subsequent
/// [`System::run_window`] then reports `timed_out` immediately) or
/// `warmup == 0` (nothing worth caching).
fn boundary_system(
    mix: &Mix,
    opts: &ExperimentOptions,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
    attach: impl FnOnce(&mut System),
) -> Boundary {
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
    let stored = keyed_store
        .and_then(|(st, key)| st.boundary(key, |stored| GroupShare::over(*mix, opts, stored)));
    if let Some((share, reused)) = stored {
        // A failure is a record that is checksummed but structurally
        // incompatible (should be unreachable given the versioned keys):
        // re-simulate, and replace it.
        if let Ok(sys) = restored_system(&share, ctl, "warmup", reused) {
            return Boundary { sys, from_checkpoint: true, share: Some(share), reused };
        }
    }
    let mut sys = canonical_system(mix, opts);
    ctl.arm(&mut sys);
    attach(&mut sys);
    sys.prepare_window(opts.warmup, opts.instructions);
    let reached = kernel_span(
        "warmup",
        || mix.name.to_string(),
        &mut sys,
        |sys| sys.run_to_boundary(ctl.limit(opts)),
        false,
    );
    let share = keyed_store.filter(|_| reached).map(|(st, key)| {
        let _sp = melreq_prof::span("snapshot.encode", || format!("warmup {}", mix.name));
        let snapshot = sys.snapshot_sealed();
        st.store_warmup(key, snapshot.as_bytes());
        let share = Arc::new(GroupShare::over(*mix, opts, snapshot));
        st.retain(key, &share);
        share
    });
    Boundary { sys, from_checkpoint: false, share, reused: false }
}

impl Boundary {
    /// Point `sys` at the op tapes of its boundary's share, if `runs` runs
    /// from it are to read tapes: a group of more than one always, and
    /// any run from the second use of a boundary a store keeps resident —
    /// which records what the third and later replay, while a boundary
    /// used once never pays for a recording.
    fn taped(
        &mut self,
        mix: &Mix,
        opts: &ExperimentOptions,
        runs: usize,
    ) -> Option<Arc<GroupShare>> {
        if runs < 2 && !self.reused {
            return None;
        }
        let share = self.share.take().unwrap_or_else(|| {
            let _sp = melreq_prof::span("snapshot.encode", || format!("fork {}", mix.name));
            Arc::new(GroupShare::over(*mix, opts, self.sys.snapshot_sealed()))
        });
        share.tape(&mut self.sys);
        Some(share)
    }
}

/// What the runs from one (mix, options) boundary share instead of each
/// making its own: the boundary snapshot every fork restores, and one op
/// tape per core, starting at the boundary, that every run reads its
/// instructions from — so each op of the measured windows is generated
/// once, by whichever run needs it first. The runs are those of one group,
/// or, as an entry of a resident [`CheckpointStore`], every run of the
/// process until the entry is evicted.
#[derive(Debug)]
pub(crate) struct GroupShare {
    mix: Mix,
    eval_slice: u32,
    pub(crate) snapshot: Sealed,
    /// Made by the first run that reads tapes ([`GroupShare::tape`]).
    tapes: OnceLock<Tapes>,
}

#[derive(Debug)]
struct Tapes {
    per_core: Vec<Arc<OpTape>>,
    /// Profiler clock when they were made, for the `tape` span.
    since_ns: u64,
}

impl GroupShare {
    /// A share of the boundary `snapshot` holds, with no tapes yet.
    pub(crate) fn over(mix: Mix, opts: &ExperimentOptions, snapshot: Sealed) -> Self {
        GroupShare { mix, eval_slice: opts.eval_slice, snapshot, tapes: OnceLock::new() }
    }

    /// Make `sys`, which stands at the boundary, a reader of the share's
    /// tapes. The first caller's warmed streams become the tapes'
    /// generators; every later caller's are dropped unread.
    fn tape(&self, sys: &mut System) {
        let streams = || self.mix.eval_streams(self.eval_slice);
        let tapes = self.tapes.get_or_init(|| {
            debug_assert!(self.snapshot.as_bytes() == sys.snapshot(), "stale boundary container");
            let per_core = sys.replace_streams(streams()).into_iter().map(OpTape::new).collect();
            Tapes { per_core, since_ns: melreq_prof::now_ns() }
        });
        let readers = tapes
            .per_core
            .iter()
            .zip(streams())
            .map(|(tape, own)| {
                Box::new(TapedStream::new(Arc::clone(tape), own)) as Box<dyn InstrStream + Send>
            })
            .collect();
        sys.replace_streams(readers);
    }

    /// Container bytes plus what the tapes hold so far.
    pub(crate) fn bytes(&self) -> usize {
        let tapes = self.tapes.get().map_or(0, |t| t.per_core.iter().map(|t| t.size().1).sum());
        self.snapshot.as_bytes().len() + tapes
    }

    /// Whether a run panicked while extending one of the tapes: reading
    /// that tape again would panic again.
    pub(crate) fn poisoned(&self) -> bool {
        self.tapes.get().is_some_and(|t| t.per_core.iter().any(|t| t.is_poisoned()))
    }
}

impl Drop for GroupShare {
    /// The last run that could read the tapes is over (the group's last, or
    /// the store evicted the entry): say what the windows made the
    /// generators produce (against the `ops_fetched` of the `policy` spans)
    /// and what keeping it cost.
    fn drop(&mut self) {
        let Some(tapes) = self.tapes.get() else { return };
        let sizes: Vec<(u64, usize)> = tapes.per_core.iter().map(|t| t.size()).collect();
        melreq_prof::record(
            "tape",
            || self.mix.name.to_string(),
            tapes.since_ns,
            melreq_prof::now_ns(),
            &[
                ("ops_generated", sizes.iter().map(|s| s.0).sum()),
                ("bytes", sizes.iter().map(|s| s.1 as u64).sum()),
                ("longest_bytes", sizes.iter().map(|s| s.1 as u64).max().unwrap_or(0)),
            ],
        );
    }
}

/// Builds a policy from outside the registry: receives the profiled ME
/// values, the core count and the machine's seed; returns the policy and
/// its read-first setting.
pub type PolicyBuilder<'a> = dyn Fn(&[f64], usize, u64) -> (Box<dyn SchedulerPolicy>, bool) + 'a;

/// The policy a run measures: what the boundary system is handed before
/// its window opens.
#[derive(Clone, Copy)]
pub enum Measured<'a> {
    /// A registered policy, built by [`System::swap_policy`] — which also
    /// engages `PolicyKind::MeLreqOnline`'s system-side estimator.
    Kind(&'a PolicyKind),
    /// A policy from outside the registry, such as a re-weighted
    /// [`melreq_memctrl::FairQueueing`].
    Custom {
        /// Its name in the [`MixResult`].
        name: &'static str,
        /// Its constructor, called once at the boundary.
        build: &'a PolicyBuilder<'a>,
    },
}

impl Measured<'_> {
    /// The policy's shorthand name ("HF-RF", "ME-LREQ", ...).
    pub fn name(&self) -> &'static str {
        match self {
            Measured::Kind(kind) => kind.name(),
            Measured::Custom { name, .. } => name,
        }
    }
}

/// What the single-core profiles say about a mix, in core order: `ME`
/// programs the priority tables, `IPC_single` is the speedup denominator.
#[derive(Debug, Clone)]
struct Inputs {
    me: Vec<f64>,
    ipc_single: Vec<f64>,
}

impl Inputs {
    fn of(mix: &Mix, opts: &ExperimentOptions, cache: &ProfileCache) -> Self {
        let cores = 0..mix.cores();
        Inputs {
            me: cores.clone().map(|i| cache.profile(mix, i, opts).me).collect(),
            ipc_single: cores.map(|i| cache.ipc_single(mix, i, opts)).collect(),
        }
    }
}

/// What a measured window says about the simulation: its outcome and the
/// clock at its end. Who ran it is not in it — [`score`] adds that.
#[derive(Debug, Clone)]
struct Window {
    outcome: RunOutcome,
    sim_cycles: Cycle,
}

/// The measurement itself, from a system standing at the boundary: swap
/// the measured policy in and run the window. Returns the window and how
/// many of its read decisions were contested (among two or more cores'
/// requests); `taped` says `sys` reads shared tapes.
fn run_window(
    sys: &mut System,
    mix: &Mix,
    measured: Measured<'_>,
    me: &[f64],
    opts: &ExperimentOptions,
    ctl: &RunControl,
    taped: bool,
) -> (Window, u64) {
    match measured {
        Measured::Kind(kind) => sys.swap_policy(kind, me),
        Measured::Custom { build, .. } => {
            let (policy, read_first) = build(me, mix.cores(), sys.config().seed);
            sys.swap_policy_boxed(policy, read_first, me);
        }
    }
    let policy = measured.name();
    let contested = |sys: &System| sys.hierarchy().controller().contested_decisions();
    let before = contested(sys);
    let outcome = kernel_span(
        "policy",
        || format!("{policy} {}", mix.name),
        sys,
        |sys| sys.run_window(ctl.limit(opts)),
        taped,
    );
    (Window { outcome, sim_cycles: sys.now() }, contested(sys) - before)
}

/// `window` as `policy`'s result on `mix`, scored against `inputs`.
/// `wall` is what the host spent on this run from the moment it began
/// working on the window (before a fork's restore; after the warm-up
/// otherwise) and `warm_wall` what reaching the boundary cost it, so
/// [`MixResult::wall`] and [`MixResult::warm_wall`] keep their meaning on
/// every path.
fn score(
    mix: &Mix,
    policy: &'static str,
    inputs: &Inputs,
    window: Window,
    wall: Duration,
    warm_wall: Duration,
    warmup_from_checkpoint: bool,
) -> MixResult {
    let Window { outcome: out, sim_cycles } = window;
    let fairness = FairnessReport::compute(&out.ipc, &inputs.ipc_single);
    MixResult {
        mix: *mix,
        policy,
        smt_speedup: fairness.smt_speedup,
        weighted_speedup: fairness.weighted_speedup,
        harmonic_speedup: fairness.harmonic_speedup,
        unfairness: fairness.unfairness,
        max_slowdown: fairness.max_slowdown,
        ipc_multi: out.ipc,
        ipc_single: inputs.ipc_single.clone(),
        read_latency: out.read_latency,
        mean_read_latency: out.mean_read_latency,
        queue_occupancy_mean: out.queue_occupancy_mean,
        grant_candidates_mean: out.grant_candidates_mean,
        channel_traffic: out.channel_traffic,
        me: inputs.me.clone(),
        timed_out: out.timed_out,
        cancelled: out.cancelled,
        sim_cycles,
        measured_cycles: out.cycles,
        wall,
        warm_wall,
        warmup_from_checkpoint,
    }
}

/// Observability knobs of an observed run ([`Taps::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Trace-ring capacity in events (drop-oldest beyond it).
    pub ring_capacity: usize,
    /// Epoch of the time-series sampler in cycles; `None` disables it.
    pub sample_epoch: Option<Cycle>,
}

impl Default for ObserveOptions {
    fn default() -> Self {
        ObserveOptions { ring_capacity: DEFAULT_TRACE_CAPACITY, sample_epoch: None }
    }
}

/// Who listens to a run. Listeners are inert — the [`MixResult`] of a
/// tapped run is bit-identical to the untapped one, which the tests here
/// and the determinism tests pin — but they arm at attach time: the
/// auditor's device replicas and the collector's rule totals must observe
/// the machine from reset. **A tapped run therefore never restores a
/// checkpoint and leaves none behind**; it simulates its own warm-up,
/// whatever store it is offered. It still warms up under the canonical
/// policy and swaps at the boundary — the swap is audit-visible (a repeat
/// `CtrlConfig` plus a `ProfileUpdate`) — so a clean audited run certifies
/// the exact command stream that checkpoint-forked runs of the same (mix,
/// policy, options) replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Taps {
    /// Attach the independent protocol/invariant checker
    /// ([`melreq_audit`]): every DRAM grant is re-validated against the
    /// DDR2 timing constraints and every scheduling decision against the
    /// policy's published invariants, while a running hash of the event
    /// stream fingerprints the run for determinism comparisons.
    pub audit: bool,
    /// Attach a [`melreq_obs`] collector: the audit tap feeds its trace
    /// ring and decision-provenance totals and, when
    /// [`ObserveOptions::sample_epoch`] is set, the system pushes one epoch
    /// row per boundary into its time series.
    pub observe: Option<ObserveOptions>,
}

/// What the [`Taps`] of a finished run heard.
#[derive(Debug, Default)]
pub struct Tapped {
    /// Violation counts, samples and the stream hash ([`Taps::audit`]).
    pub audit: Option<AuditReport>,
    /// The finished collector ([`Taps::observe`]).
    pub collector: Option<Arc<Mutex<Collector>>>,
}

/// Run one mix under one policy: the measurement every other entry point
/// of this module is made of. The boundary is restored from `store` when
/// it holds it and persisted there after simulation otherwise — unless
/// `taps` names a listener ([`Taps`] says why); `ctl` arms the cancel
/// token and the cycle budget on warm-up and window alike.
pub fn run_tapped(
    mix: &Mix,
    measured: Measured<'_>,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    store: Option<&CheckpointStore>,
    ctl: &RunControl,
    taps: Taps,
) -> (MixResult, Tapped) {
    let inputs = Inputs::of(mix, opts, cache);
    let auditor = taps.audit.then(|| Arc::new(Mutex::new(Auditor::new(AuditorConfig::default()))));
    let collector = taps.observe.map(|o| Arc::new(Mutex::new(Collector::new(o.ring_capacity))));
    // One emission on the audit tap, fanned out when both sinks listen,
    // plus the epoch sampler.
    let attach = |sys: &mut System| {
        let mut sinks: Vec<Arc<Mutex<dyn AuditSink>>> = Vec::new();
        sinks.extend(auditor.clone().map(|a| a as _));
        sinks.extend(collector.clone().map(|c| c as _));
        match sinks.len() {
            0 => {}
            1 => sys.attach_audit(AuditHandle::from_shared(sinks.remove(0), true)),
            _ => sys.attach_audit(Fanout::handle(sinks, true)),
        }
        if let (Some(c), Some(epoch)) = (&collector, taps.observe.and_then(|o| o.sample_epoch)) {
            sys.attach_sampler(c.clone(), epoch);
        }
    };
    // Only a run nobody listens to may use a checkpoint (see `Taps`).
    let store = store.filter(|_| taps == Taps::default());
    let warm_started = host_clock();
    let mut boundary = boundary_system(mix, opts, store, ctl, attach);
    let taped = boundary.taped(mix, opts, 1).is_some();
    let Boundary { mut sys, from_checkpoint, .. } = boundary;
    let (warm_wall, started) = (warm_started.elapsed(), host_clock());
    let (window, _) = run_window(&mut sys, mix, measured, &inputs.me, opts, ctl, taped);
    let wall = started.elapsed();
    let result = score(mix, measured.name(), &inputs, window, wall, warm_wall, from_checkpoint);
    if let Some(c) = &collector {
        c.lock().expect("obs collector poisoned").finish();
    }
    let audit = auditor.map(|a| a.lock().expect("auditor poisoned").report());
    (result, Tapped { audit, collector })
}

/// Run one Table 3 mix under one registered policy.
pub fn run_mix(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> MixResult {
    let ctl = RunControl::default();
    run_tapped(mix, Measured::Kind(policy), opts, cache, None, &ctl, Taps::default()).0
}

/// Run one mix under a policy from outside the registry, built by `build`
/// ([`Measured::Custom`]).
pub fn run_mix_custom(
    mix: &Mix,
    name: &'static str,
    build: impl Fn(&[f64], usize, u64) -> (Box<dyn SchedulerPolicy>, bool),
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> MixResult {
    let (measured, ctl) = (Measured::Custom { name, build: &build }, RunControl::default());
    run_tapped(mix, measured, opts, cache, None, &ctl, Taps::default()).0
}

/// [`run_mix`] with the auditor listening ([`Taps::audit`]).
pub fn run_mix_audited(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> (MixResult, AuditReport) {
    let (ctl, taps) = (RunControl::default(), Taps { audit: true, observe: None });
    let (result, heard) = run_tapped(mix, Measured::Kind(policy), opts, cache, None, &ctl, taps);
    (result, heard.audit.expect("an audited run reports"))
}

/// [`run_mix`] with a collector listening ([`Taps::observe`]).
pub fn run_mix_observed(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    observe: &ObserveOptions,
    cache: &ProfileCache,
) -> (MixResult, Arc<Mutex<Collector>>) {
    let (ctl, taps) = (RunControl::default(), Taps { audit: false, observe: Some(*observe) });
    let (result, heard) = run_tapped(mix, Measured::Kind(policy), opts, cache, None, &ctl, taps);
    (result, heard.collector.expect("an observed run keeps its collector"))
}

/// Run one mix under every policy in `policies` with a single shared
/// warm-up: the canonical boundary state is simulated (or loaded from
/// `store`) once, snapshotted, and forked into one fresh system per
/// policy. The first policy consumes the warmed system directly; every
/// other policy restores the snapshot bytes — bit-exactly the same state,
/// as [`System::load_snapshot`] guarantees and the harness tests enforce.
/// `ctl` (cancellation token, simulated-cycle budget, worker-thread count)
/// is armed on the warm-up and every forked run. The forked policy runs
/// execute concurrently on the pool; results land in policy-indexed slots
/// so the output order (and every byte of every result) is independent of
/// the interleaving.
pub fn run_mix_group(
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
/// (`--threads` via [`RunControl::threads`]) wins, then the host's
/// available parallelism (falling back to 4 when that is unknowable) —
/// capped at the number of schedulable jobs.
pub fn worker_count(jobs: usize, explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
        .min(jobs.max(1))
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
    let inputs = Inputs::of(&mix, opts, cache);
    let warm_started = host_clock();
    let mut boundary = boundary_system(&mix, opts, store, ctl, |_| {});
    let total_runs: usize = consumers.iter().map(|c| c.policies.len()).sum();
    let share = boundary.taped(&mix, opts, total_runs);
    let Boundary { sys: base, from_checkpoint, .. } = boundary;
    let taped = share.is_some();
    let warm_wall = warm_started.elapsed();
    let group = Arc::new(GroupRuns { mix, inputs, opts, ctl, certified: Default::default() });

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
            let group = Arc::clone(&group);
            ctx.fork(move |_ctx| {
                let fork = || {
                    let mut sys = restored_system(&share, ctl, "fork", true)
                        .expect("boundary snapshot must restore into an identical fresh system");
                    share.tape(&mut sys);
                    sys
                };
                let result = group.run(kind, fork, true, Duration::ZERO, true);
                *slot.lock().expect("result slot poisoned") = Some(result);
            });
        }
    }
    let (slot, kind) = first.expect("a group has at least one policy run");
    let result = group.run(kind, || base, taped, warm_wall, from_checkpoint);
    *slot.lock().expect("result slot poisoned") = Some(result);
}

/// What the policy runs of one group share besides their boundary: the
/// mix's profiles, the run's options and controls, and the windows
/// certified so far.
///
/// Every policy ranks *cores* ([`SchedulerPolicy::core_key`] is a
/// function of the core): among one core's requests two policies pick
/// alike when they agree on `read_first` and `hit_first`, their *rule
/// class* — `melreq-memctrl`'s
/// `one_cores_requests_are_ordered_by_the_rule_class_alone` holds every
/// registered policy to that. So a window that ran to its end with no
/// contested read decision (two or more cores among the candidates) is
/// the window every policy of its class would have simulated, and the
/// first run to finish one, uncancelled, publishes it in its class's
/// cell. A run that finds its cell filled scores that window instead of
/// restoring and simulating its own. The cells die with the group.
struct GroupRuns<'env> {
    mix: Mix,
    inputs: Inputs,
    opts: &'env ExperimentOptions,
    ctl: &'env RunControl,
    /// One cell per rule class, indexed `read_first << 1 | hit_first`.
    certified: [OnceLock<Window>; 4],
}

impl GroupRuns<'_> {
    /// `kind`'s result: scored from the window its rule class certified,
    /// or measured on the system `boundary` yields (`taped` if it reads
    /// the group's tapes) and certified if nothing in it was contested.
    /// `warm_wall` and `from_checkpoint` are what [`score`] reports.
    fn run(
        &self,
        kind: &PolicyKind,
        boundary: impl FnOnce() -> System,
        taped: bool,
        warm_wall: Duration,
        from_checkpoint: bool,
    ) -> MixResult {
        let started = host_clock();
        let (mix, me) = (&self.mix, &self.inputs.me);
        let hit_first = kind.build(me, mix.cores(), 0).hit_first();
        let cell = &self.certified[usize::from(kind.read_first()) << 1 | usize::from(hit_first)];
        let window = if let Some(window) = cell.get() {
            let mut sp = melreq_prof::span("policy", || format!("{} {}", kind.name(), mix.name));
            sp.arg("shared", 1);
            window.clone()
        } else {
            let mut sys = boundary();
            let measured = Measured::Kind(kind);
            let (window, contested) =
                run_window(&mut sys, mix, measured, me, self.opts, self.ctl, taped);
            if contested == 0 && !window.outcome.cancelled {
                let _ = cell.set(window.clone());
            }
            window
        };
        let wall = started.elapsed();
        score(mix, kind.name(), &self.inputs, window, wall, warm_wall, from_checkpoint)
    }
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
        // The one lookup behind both accessors says who simulated, and
        // keys on everything the profile depends on.
        let app = &mix.apps()[0];
        let n = opts.profile_instructions;
        assert!(!cache.lookup(app, SliceKind::Profiling, n).1, "memoized by `profile` above");
        assert!(cache.lookup(app, SliceKind::Profiling, n / 2).1, "another length, another run");
        assert!(cache.lookup(app, SliceKind::Evaluation(0), n).1, "another slice, another run");
        assert!(!cache.lookup(app, SliceKind::Evaluation(0), n).1);
    }

    #[test]
    fn forked_policies_match_fresh_runs_bit_exactly() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let policies = [PolicyKind::HfRf, PolicyKind::MeLreq, PolicyKind::Lreq];
        let group = run_mix_group(&mix, &policies, &opts, &cache, None, &RunControl::default());
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

    /// Everything a result says about the simulation: host times and how
    /// the boundary was reached aside.
    fn simulated(r: &MixResult) -> String {
        let (wall, warm_wall) = (Duration::ZERO, Duration::ZERO);
        format!("{:?}", MixResult { wall, warm_wall, warmup_from_checkpoint: false, ..r.clone() })
    }

    /// A store that keeps boundaries resident, as a server's does, over a
    /// fresh directory, with the key of `mix`'s boundary in it.
    fn resident_store(
        tag: &str,
        mix: &Mix,
        opts: &ExperimentOptions,
    ) -> (Arc<CheckpointStore>, u64) {
        let dir =
            std::env::temp_dir().join(format!("melreq-exp-{tag}-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Some(crate::store::RESIDENT_BYTE_BUDGET);
        let store = Arc::new(CheckpointStore::with_budget(dir, budget).expect("store"));
        let cfg = canonical_config(mix.cores());
        let key = CheckpointStore::warmup_key(
            &cfg,
            mix.codes,
            opts.eval_slice,
            opts.warmup,
            opts.instructions,
        );
        (store, key)
    }

    /// The share resident under `key`, which must be there.
    fn resident_share(store: &CheckpointStore, key: u64) -> Arc<GroupShare> {
        let (share, reused) = store.boundary(key, |_| unreachable!("resident")).expect("kept");
        assert!(reused);
        share
    }

    #[test]
    fn runs_racing_the_first_reuse_of_a_boundary_share_one_set_of_tapes() {
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MIX-1");
        let (store, key) = resident_store("race", &mix, &opts);
        let cache = ProfileCache::with_store(store.clone());
        let run = |kind: &PolicyKind| {
            let (kind, ctl) = (Measured::Kind(kind), RunControl::default());
            run_tapped(&mix, kind, &opts, &cache, Some(&store), &ctl, Taps::default()).0
        };
        // First use: simulated, stored and kept — untaped.
        let first = run(&PolicyKind::HfRf);
        assert!(!first.warmup_from_checkpoint);
        assert!(resident_share(&store, key).tapes.get().is_none(), "one use records nothing");
        // Second use, twice at once: whichever restores first makes the
        // tapes, from its own warmed streams, and both read them.
        let together = std::sync::Barrier::new(2);
        let racer = |kind: &PolicyKind| {
            together.wait();
            run(kind)
        };
        let (me_lreq, lreq) = std::thread::scope(|s| {
            let other = s.spawn(|| racer(&PolicyKind::MeLreq));
            let lreq = racer(&PolicyKind::Lreq);
            (other.join().expect("racing run"), lreq)
        });
        let fresh = ProfileCache::new();
        for (raced, kind) in [(&me_lreq, PolicyKind::MeLreq), (&lreq, PolicyKind::Lreq)] {
            assert!(raced.warmup_from_checkpoint);
            let alone = run_mix(&mix, &kind, &opts, &fresh);
            assert_eq!(simulated(raced), simulated(&alone), "{}", kind.name());
        }
        // One set of tapes, holding one window: a third use generates
        // nothing the two have not.
        let share = resident_share(&store, key);
        let generated = |share: &GroupShare| -> u64 {
            share.tapes.get().expect("taped").per_core.iter().map(|t| t.size().0).sum()
        };
        let before = generated(&share);
        assert!(before > 0);
        assert_eq!(simulated(&run(&PolicyKind::Lreq)), simulated(&lreq));
        assert_eq!(generated(&share), before, "a replay generates nothing");
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses, st.resident_hits), (5, 1, 5));
        assert_eq!(st.resident_bytes as usize, share.bytes());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A generator that panics when asked for an op: what poisons a tape.
    struct Broken;

    impl InstrStream for Broken {
        fn next_op(&mut self) -> melreq_trace::MicroOp {
            panic!("generator bug")
        }
        fn label(&self) -> &str {
            "broken"
        }
        fn save_state(&self, _: &mut melreq_snap::Enc) {}
        fn load_state(
            &mut self,
            _: &mut melreq_snap::Dec<'_>,
        ) -> Result<(), melreq_snap::SnapError> {
            Ok(())
        }
    }

    #[test]
    fn a_boundary_whose_tape_a_panic_poisoned_is_dropped_for_the_disk_record() {
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-2");
        let (store, key) = resident_store("poison", &mix, &opts);
        let cache = ProfileCache::with_store(store.clone());
        let run = || {
            let (kind, ctl) = (Measured::Kind(&PolicyKind::MeLreq), RunControl::default());
            run_tapped(&mix, kind, &opts, &cache, Some(&store), &ctl, Taps::default()).0
        };
        let first = run();
        // The entry as a run leaves it that panicked inside a tape's
        // generator, under the tape's lock.
        let container = resident_share(&store, key).snapshot.clone();
        let share = GroupShare::over(mix, &opts, container);
        let per_core: Vec<_> = (0..2).map(|_| OpTape::new(Box::new(Broken))).collect();
        let reader = TapedStream::new(Arc::clone(&per_core[1]), Box::new(Broken));
        let died = std::thread::spawn(move || {
            let mut reader = reader;
            reader.next_op()
        });
        assert!(died.join().is_err() && per_core[1].is_poisoned());
        share.tapes.set(Tapes { per_core, since_ns: 0 }).expect("no tapes yet");
        assert!(share.poisoned());
        store.retain(key, &Arc::new(share));

        let hits = store.stats();
        let after = run();
        assert_eq!(simulated(&after), simulated(&first));
        assert!(after.warmup_from_checkpoint, "the disk record answered");
        let st = store.stats();
        assert_eq!(st.warmup_hits, hits.warmup_hits + 1);
        assert_eq!(st.resident_hits, hits.resident_hits, "memory did not");
        // And what it read is resident again, and healthy.
        assert!(!resident_share(&store, key).poisoned());
        assert_eq!(simulated(&run()), simulated(&first));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Swap-through-warm-up audits clean, and neither listener is heard by
    /// the machine: on a MEM and a MIX mix, every combination of taps
    /// gives the untapped result, and two audits of it one event stream.
    #[test]
    fn taps_are_inert_in_every_combination() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        for mix in [mix_by_name("2MEM-1"), mix_by_name("2MIX-1")] {
            let run = |audit: bool, observe: bool| {
                let taps = Taps { audit, observe: observe.then(ObserveOptions::default) };
                let (kind, ctl) = (Measured::Kind(&PolicyKind::MeLreq), RunControl::default());
                run_tapped(&mix, kind, &opts, &cache, None, &ctl, taps)
            };
            let (plain, nothing) = run(false, false);
            assert!(nothing.audit.is_none() && nothing.collector.is_none());
            let (audited, a) = run(true, false);
            let (observed, o) = run(false, true);
            let (both, ao) = run(true, true);
            for (taps, tapped) in [("audit", &audited), ("observe", &observed), ("both", &both)] {
                assert_eq!(simulated(tapped), simulated(&plain), "{taps} changed {}", mix.name);
            }
            let (a, ao_audit) = (a.audit.expect("audited"), ao.audit.expect("audited"));
            assert!(a.is_clean() && a.events > 0, "audit must pass:\n{}", a.render());
            assert_eq!((a.stream_hash, a.events), (ao_audit.stream_hash, ao_audit.events));
            assert!(o.audit.is_none(), "nobody asked for an audit");
            for collector in [o.collector, ao.collector] {
                let c = collector.expect("observed");
                assert!(!c.lock().expect("collector").ring().is_empty(), "the ring must fill");
            }
        }
    }

    #[test]
    fn a_tapped_run_obeys_its_run_control() {
        let cache = ProfileCache::new();
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let run = |ctl: RunControl| {
            let taps = Taps { audit: false, observe: Some(ObserveOptions::default()) };
            run_tapped(&mix, Measured::Kind(&PolicyKind::HfRf), &opts, &cache, None, &ctl, taps).0
        };
        let budgeted = run(RunControl { max_cycles: Some(50_000), ..RunControl::default() });
        assert!(budgeted.timed_out && !budgeted.cancelled, "a 50 k-cycle budget must run out");
        assert!(budgeted.sim_cycles <= 50_000, "{} cycles", budgeted.sim_cycles);
        let token = CancelToken::new();
        token.cancel();
        let cancelled = run(RunControl { cancel: Some(token), ..RunControl::default() });
        assert!(cancelled.cancelled, "an expired token must stop the run");
    }

    #[test]
    fn a_tapped_run_leaves_the_warmup_store_alone() {
        let dir = std::env::temp_dir().join(format!("melreq-exp-taps-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CheckpointStore::open(&dir).expect("store"));
        let cache = ProfileCache::with_store(store.clone());
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let run = |taps: Taps| {
            let (kind, ctl) = (Measured::Kind(&PolicyKind::Lreq), RunControl::default());
            run_tapped(&mix, kind, &opts, &cache, Some(&store), &ctl, taps).0
        };
        let tapped = run(Taps { audit: true, observe: None });
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (0, 0), "a tapped run never looks");
        // Nor did it store: the same run untapped misses, then stores.
        let cold = run(Taps::default());
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (0, 1));
        let warm = run(Taps::default());
        assert!(warm.warmup_from_checkpoint && store.stats().warmup_hits == 1);
        assert!(!tapped.warmup_from_checkpoint && !cold.warmup_from_checkpoint);
        assert_eq!(simulated(&tapped), simulated(&cold));
        let _ = std::fs::remove_dir_all(&dir);
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
            let (policies, ctl) = ([PolicyKind::MeLreq], RunControl::default());
            run_mix_group(&mix, &policies, &opts, cache, Some(store), &ctl).pop().expect("one run")
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
        let cold = run_mix_group(&mix, &policies, &opts, &cache, Some(&store), &ctl);
        assert!(!cold[0].warmup_from_checkpoint && store.stats().warmup_hits == 0);

        // What a store-hit group hands its forks is the stored container
        // itself, and that is the restored machine's own snapshot — with
        // plain streams and again once it reads the group's tapes.
        let mut boundary = boundary_system(&mix, &opts, Some(&store), &ctl, |_| {});
        assert!(boundary.from_checkpoint && !boundary.reused, "a plain store keeps nothing");
        let stored = boundary.share.clone().expect("a store hit hands its container back");
        assert!(stored.snapshot.as_bytes() == boundary.sys.snapshot());
        assert!(boundary.taped(&mix, &opts, 1).is_none(), "a run on its own reads no tape");
        let share = boundary.taped(&mix, &opts, 2).expect("a group shares");
        assert!(Arc::ptr_eq(&share, &stored) && stored.tapes.get().is_some());
        assert!(stored.snapshot.as_bytes() == boundary.sys.snapshot());
        drop((share, stored));

        let (cache, store) = open();
        let warm = run_mix_group(&mix, &policies, &opts, &cache, Some(&store), &ctl);
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
        let stage = SweepStage { mixes: mixes.to_vec(), policies: policies.to_vec() };
        let grid = run_sweep_stages(&[stage], &opts, &cache, None, &RunControl::default())
            .pop()
            .expect("one stage submitted");
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
