//! The multiprogrammed evaluation harness (Figures 2–5).
//!
//! Every number in those figures is one measurement:
//!
//! 1. profile each application alone (profiling slice) → `ME[i]`;
//! 2. run each application alone on the *evaluation* slice →
//!    `IPC_single[i]` (the SMT-speedup denominator);
//! 3. bring the mix to its measurement *boundary*: warm the multi-core
//!    machine up under the canonical policy, or restore that state from
//!    a [`CheckpointStore`];
//! 4. swap the measured policy in and run until every core commits its
//!    target instruction count (early finishers keep running — "reload
//!    their applications and keep running");
//! 5. report SMT speedup, unfairness and read latencies.
//!
//! [`run_tapped`] takes it from reset, [`Taps`] saying who listens to
//! steps 3–4 (the auditor, the trace collector, both or nobody); [`run_mix`]
//! and its siblings are that call. A *group* takes it for every policy of
//! one mix from one boundary, which a store may hold: [`run_sweep_stages`]
//! runs one per distinct mix, and an unaudited request is one. A
//! [`RunControl`] bounds either.
//!
//! [`ProfileCache`] memoizes steps 1–2 per application so sweeping 36
//! mixes × 5 policies does not re-profile the same programs; the cache is
//! `Sync` and shared across the worker threads of [`run_sweep_stages`].
//!
//! # Warm-up sharing
//!
//! Warm-up always runs under the *canonical* policy
//! ([`CANONICAL_WARMUP_POLICY`], the paper's HF-RF baseline, programmed
//! with a flat ME profile) and the measured policy is swapped in at the
//! boundary ([`System::swap_policy`]), tapped or not. The boundary state
//! is therefore identical across all policies of a (mix, options) group,
//! so a group reaches it once, snapshots it, and forks the bytes into one
//! fresh system per policy, each of which takes steps 4–5 exactly as a
//! run from reset does; [`run_mix`] on the same inputs reaches the same
//! state by direct simulation, which is what makes the two bit-exactly
//! comparable. With a [`CheckpointStore`] attached, boundary snapshots
//! and single-core profiles also persist across process invocations.
//!
//! The runs of a group share one more thing: the instruction streams of
//! their measured windows. From the boundary on, every run of a group of
//! more than one reads its ops from one [`OpTape`] per core, so each op
//! is generated once per group; a group of one generates its own —
//! unless its store keeps boundaries resident
//! ([`CheckpointStore::open_resident`], a server's) and this process has
//! used the boundary before: then the tapes are shared by every group of
//! the process on that boundary, the second of which records what the
//! rest replay. With a store attached the tapes also outlive the process:
//! a group that recorded them writes them beside the boundary when its
//! last run ends, if they grew, and every group whose store holds them
//! replays them, so a warm pass, or a restarted server, generates no op
//! an earlier one did.
//!
//! And the runs of a group share whole windows where the policies cannot
//! differ: every policy ranks cores, so a window whose read decisions
//! never had two cores' requests to choose between is the same window
//! under every policy of its rule class (`read_first`, `hit_first`). The
//! first run to simulate one publishes it and the rest of its class score
//! it without simulating; a `--profile` artifact shows them as `policy`
//! spans with `shared: 1`.

use crate::profile::{profile_app_until, AppProfile};
use crate::store::CheckpointStore;
use crate::system::{CancelToken, RunOutcome, System};
use crate::SystemConfig;
use melreq_audit::{AuditHandle, AuditReport, AuditSink, Auditor, AuditorConfig};
use melreq_memctrl::policy::PolicyKind;
use melreq_obs::{Collector, DEFAULT_TRACE_CAPACITY};
use melreq_snap::Sealed;
use melreq_stats::fairness::FairnessReport;
use melreq_stats::types::Cycle;
use melreq_trace::{InstrStream, OpTape, TapedStream};
use melreq_workloads::{AppSpec, Mix, SliceKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
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

    pub(crate) fn max_cycles(&self) -> Cycle {
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
    profiles: Mutex<BTreeMap<ProfileId, Arc<Mutex<Option<AppProfile>>>>>,
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

    /// The store behind the cache, if any.
    pub(crate) fn store(&self) -> Option<&Arc<CheckpointStore>> {
        self.store.as_ref()
    }

    /// The profile of `app` alone over `instructions` committed ops of
    /// `slice`, and whether this call simulated it: from memory, else from
    /// the store, else simulated here and persisted. Every profile the
    /// harness uses comes through this lookup. Each profile has a cell of
    /// its own, so callers wait only for the one they asked for.
    pub fn lookup(&self, app: &AppSpec, slice: SliceKind, instructions: u64) -> (AppProfile, bool) {
        self.lookup_until(app, slice, instructions, None).expect("no token to cancel it")
    }

    /// [`ProfileCache::lookup`], polling `cancel` while it simulates, or
    /// waits for another caller to: `None` if the token fired first, and
    /// then nothing is kept or stored.
    fn lookup_until(
        &self,
        app: &AppSpec,
        slice: SliceKind,
        instructions: u64,
        cancel: Option<&CancelToken>,
    ) -> Option<(AppProfile, bool)> {
        let cell = {
            let mut memo = self.profiles.lock().expect("profile cache poisoned");
            Arc::clone(memo.entry((app.code, slice, instructions)).or_default())
        };
        // A caller with a token waits for whoever is simulating this
        // profile only as long as the token allows. A panic while
        // simulating leaves the cell empty: the next caller simulates again.
        let mut cell = loop {
            match cell.try_lock() {
                Ok(cell) => break cell,
                Err(TryLockError::Poisoned(poisoned)) => break poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => match cancel {
                    None => break cell.lock().unwrap_or_else(PoisonError::into_inner),
                    Some(token) if token.expired() => return None,
                    Some(_) => std::thread::sleep(Duration::from_millis(1)),
                },
            }
        };
        if let Some(p) = cell.as_ref() {
            return Some((p.clone(), false));
        }
        let key = CheckpointStore::profile_key(app.code, slice, instructions);
        if let Some(p) = self.store.as_ref().and_then(|st| st.load_profile(key)) {
            return Some((cell.insert(p).clone(), false));
        }
        let role = match slice {
            SliceKind::Profiling => "ME",
            SliceKind::Evaluation(_) => "IPC_single",
        };
        let _sp = melreq_prof::span("profile", || format!("app {} ({role})", app.code));
        let p = profile_app_until(app, slice, instructions, cancel)?;
        if let Some(st) = &self.store {
            st.store_profile(key, &p);
        }
        Some((cell.insert(p).clone(), true))
    }

    /// Resolve every profile a run of `mix` under `opts` reads — each
    /// core's ME and `IPC_single` — polling `cancel` while one simulates:
    /// false if the token fired first.
    pub(crate) fn resolve(
        &self,
        mix: &Mix,
        opts: &ExperimentOptions,
        cancel: Option<&CancelToken>,
    ) -> bool {
        mix.apps().iter().all(|app| {
            let eval = SliceKind::Evaluation(opts.eval_slice);
            [(SliceKind::Profiling, opts.profile_instructions), (eval, opts.instructions)]
                .into_iter()
                .all(|(slice, n)| self.lookup_until(app, slice, n, cancel).is_some())
        })
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
    /// SMT (weighted) speedup (Σ IPC_multi/IPC_single — Figure 2's
    /// metric).
    pub smt_speedup: f64,
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
pub(crate) fn canonical_config(cores: usize) -> SystemConfig {
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
struct Boundary<'s> {
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
    /// The store that holds the boundary, and its key there.
    keyed: Option<(&'s CheckpointStore, u64)>,
}

/// Reach the measurement boundary of `mix`: restore it from `store` or
/// simulate the warm-up, after `attach` has run on the system that will
/// simulate it from reset. With a store attached, a simulated boundary is
/// persisted unless the warm-up hit the cycle safety net (the subsequent
/// [`System::run_window`] then reports `timed_out` immediately) or
/// `warmup == 0` (nothing worth caching).
fn boundary_system<'s>(
    mix: &Mix,
    opts: &ExperimentOptions,
    store: Option<&'s CheckpointStore>,
    ctl: &RunControl,
    attach: impl FnOnce(&mut System),
) -> Boundary<'s> {
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
            let share = Some(share);
            return Boundary { sys, from_checkpoint: true, share, reused, keyed: keyed_store };
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
    let keyed = keyed_store.filter(|_| reached);
    let share = keyed.map(|(st, key)| {
        let _sp = melreq_prof::span("snapshot.encode", || format!("warmup {}", mix.name));
        let snapshot = sys.snapshot_sealed();
        st.store_warmup(key, snapshot.as_bytes());
        let share = Arc::new(GroupShare::over(*mix, opts, snapshot));
        st.retain(key, &share);
        share
    });
    Boundary { sys, from_checkpoint: false, share, reused: false, keyed }
}

impl Boundary<'_> {
    /// Point `sys` at the op tapes of its boundary's share, if `runs` runs
    /// from it are to read tapes: any run whose store holds tapes for the
    /// boundary, a group of more than one always, and any run from the
    /// second use of a boundary a store keeps resident — which records
    /// what the third and later replay, while a boundary used once never
    /// pays for a recording.
    fn taped(
        &mut self,
        mix: &Mix,
        opts: &ExperimentOptions,
        runs: usize,
    ) -> Option<Arc<GroupShare>> {
        let made = self.share.as_ref().is_some_and(|share| share.tapes.get().is_some());
        let stored = self
            .keyed
            .filter(|_| !made)
            .and_then(|(st, key)| st.load_tapes(key, mix.eval_streams(opts.eval_slice)));
        if runs < 2 && !self.reused && stored.is_none() {
            return None;
        }
        let share = self.share.take().unwrap_or_else(|| {
            let _sp = melreq_prof::span("snapshot.encode", || format!("fork {}", mix.name));
            Arc::new(GroupShare::over(*mix, opts, self.sys.snapshot_sealed()))
        });
        share.tape(&mut self.sys, stored);
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
    /// Ops they held when they came from the store; 0 if recorded here.
    loaded: u64,
    /// Ops the store's record holds, as far as this process knows: what
    /// was loaded, or last written.
    persisted: AtomicU64,
    /// Profiler clock when they were made, for the `tape` span.
    since_ns: u64,
}

impl Tapes {
    /// Ops held, over every core.
    fn ops(&self) -> u64 {
        self.per_core.iter().map(|tape| tape.size().0).sum()
    }
}

impl GroupShare {
    /// A share of the boundary `snapshot` holds, with no tapes yet.
    pub(crate) fn over(mix: Mix, opts: &ExperimentOptions, snapshot: Sealed) -> Self {
        GroupShare { mix, eval_slice: opts.eval_slice, snapshot, tapes: OnceLock::new() }
    }

    /// Make `sys`, which stands at the boundary, a reader of the share's
    /// tapes. The first caller makes them: from `stored`, the store's
    /// tapes, if each starts where `sys`'s warmed stream stands, else by
    /// making the warmed streams the generators of new ones. Every later
    /// caller's streams are dropped unread.
    fn tape(&self, sys: &mut System, stored: Option<Vec<Arc<OpTape>>>) {
        let streams = || self.mix.eval_streams(self.eval_slice);
        let tapes = self.tapes.get_or_init(|| {
            debug_assert!(self.snapshot.as_bytes() == sys.snapshot(), "stale boundary container");
            let mut warmed = sys.replace_streams(streams());
            let stored = stored.filter(|tapes| {
                tapes.iter().zip(&mut warmed).all(|(tape, own)| tape.starts_at(own.as_mut()))
            });
            let per_core: Vec<_> =
                stored.unwrap_or_else(|| warmed.into_iter().map(OpTape::new).collect());
            // A new tape holds nothing yet: what they hold came from the store.
            let loaded = per_core.iter().map(|tape| tape.size().0).sum();
            let (persisted, since_ns) = (AtomicU64::new(loaded), melreq_prof::now_ns());
            Tapes { per_core, loaded, persisted, since_ns }
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

    /// Write the tapes to `store` under `key` if they hold more ops than
    /// its record does, as far as this share knows.
    fn persist(&self, store: &CheckpointStore, key: u64) {
        let Some(tapes) = self.tapes.get() else { return };
        let ops = tapes.ops();
        if tapes.persisted.fetch_max(ops, Ordering::Relaxed) < ops {
            let _sp = melreq_prof::span("snapshot.encode", || format!("tapes {}", self.mix.name));
            store.store_tapes(key, &tapes.per_core);
        }
    }
}

impl Drop for GroupShare {
    /// The last run that could read the tapes is over (the group's last, or
    /// the store evicted the entry): say what the windows made the
    /// generators produce (against the `ops_fetched` of the `policy` spans),
    /// what came from the store instead, and what keeping it cost.
    fn drop(&mut self) {
        let Some(tapes) = self.tapes.get() else { return };
        let sizes: Vec<(u64, usize)> = tapes.per_core.iter().map(|t| t.size()).collect();
        let ops: u64 = sizes.iter().map(|s| s.0).sum();
        melreq_prof::record(
            "tape",
            || self.mix.name.to_string(),
            tapes.since_ns,
            melreq_prof::now_ns(),
            &[
                ("ops_generated", ops.saturating_sub(tapes.loaded)),
                ("ops_loaded", tapes.loaded),
                ("bytes", sizes.iter().map(|s| s.1 as u64).sum()),
                ("longest_bytes", sizes.iter().map(|s| s.1 as u64).max().unwrap_or(0)),
            ],
        );
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
/// `kind` in ([`System::swap_policy`], which also engages
/// `PolicyKind::MeLreqOnline`'s system-side estimator) and run the
/// window. Returns the window and how many of its read decisions were
/// contested (among two or more cores' requests); `taped` says `sys`
/// reads shared tapes.
fn run_window(
    sys: &mut System,
    mix: &Mix,
    kind: &PolicyKind,
    me: &[f64],
    opts: &ExperimentOptions,
    ctl: &RunControl,
    taped: bool,
) -> (Window, u64) {
    sys.swap_policy(kind, me);
    let policy = kind.name();
    let contested = |sys: &System| sys.controller().contested_decisions();
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

/// Who listens to a [`run_tapped`] run. Listeners are inert — the
/// [`MixResult`] of a tapped run is bit-identical to the untapped one,
/// which the tests here and the determinism tests pin — but they arm at
/// attach time: the auditor's device replicas and the collector's rule
/// totals must observe the machine from reset, so [`run_tapped`] takes no
/// store and simulates its own warm-up. It still warms up under the
/// canonical policy and swaps at the boundary — the swap is audit-visible
/// (a repeat `CtrlConfig` plus a `ProfileUpdate`) — so a clean audited run
/// certifies the exact command stream that checkpoint-forked runs of the
/// same (mix, policy, options) replay.
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

/// Run one mix under one policy from reset, with `taps` listening
/// ([`Taps`] says why it takes no store); `ctl` arms the cancel token and
/// the cycle budget on warm-up and window alike.
pub fn run_tapped(
    mix: &Mix,
    kind: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
    ctl: &RunControl,
    taps: Taps,
) -> (MixResult, Tapped) {
    let inputs = Inputs::of(mix, opts, cache);
    let auditor = taps.audit.then(|| Arc::new(Mutex::new(Auditor::new(AuditorConfig::default()))));
    let collector = taps.observe.map(|o| Arc::new(Mutex::new(Collector::new(o.ring_capacity))));
    // One audit tap holding every listening sink, plus the epoch sampler.
    let attach = |sys: &mut System| {
        let mut sinks: Vec<Arc<Mutex<dyn AuditSink>>> = Vec::new();
        sinks.extend(auditor.clone().map(|a| a as _));
        sinks.extend(collector.clone().map(|c| c as _));
        let tap = AuditHandle::from_shared(sinks);
        if tap.is_enabled() {
            sys.attach_audit(tap);
        }
        if let (Some(c), Some(epoch)) = (&collector, taps.observe.and_then(|o| o.sample_epoch)) {
            sys.attach_sampler(c.clone(), epoch);
        }
    };
    let warm_started = host_clock();
    let Boundary { mut sys, .. } = boundary_system(mix, opts, None, ctl, attach);
    let (warm_wall, started) = (warm_started.elapsed(), host_clock());
    let (window, _) = run_window(&mut sys, mix, kind, &inputs.me, opts, ctl, false);
    let wall = started.elapsed();
    let result = score(mix, kind.name(), &inputs, window, wall, warm_wall, false);
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
    run_tapped(mix, policy, opts, cache, &ctl, Taps::default()).0
}

/// [`run_mix`] with the auditor listening ([`Taps::audit`]).
pub fn run_mix_audited(
    mix: &Mix,
    policy: &PolicyKind,
    opts: &ExperimentOptions,
    cache: &ProfileCache,
) -> (MixResult, AuditReport) {
    let (ctl, taps) = (RunControl::default(), Taps { audit: true, observe: None });
    let (result, heard) = run_tapped(mix, policy, opts, cache, &ctl, taps);
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
    let (result, heard) = run_tapped(mix, policy, opts, cache, &ctl, taps);
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

/// Run several (mixes × policies) stages through **one global job
/// pool** (no per-stage barrier), returning each stage's
/// results in `(mix-major, policy-minor)` order.
///
/// The job DAG has one warm-up job per *distinct* mix across all stages
/// — warm-ups shared by several stages (e.g. a mix that appears in both
/// a figure stage and an ablation stage) run once — and one policy run
/// per (stage, mix, policy): each mix is one `Group`, its policies
/// every stage's that runs it, and `warm_up_and_fork` its warm-up job.
/// Warm-up jobs enter the pool's queue with the mix's core count as the
/// priority (longest critical path first); forked runs outrank every
/// warm-up, so idle workers join a group before starting the next.
///
/// Determinism: every result lands in a pre-indexed slot and every run
/// is a pure function of the boundary snapshot, so the returned vectors
/// are bit-identical at any worker count. `warmup_from_checkpoint` is
/// DAG-structural, not timing-dependent: the first (stage, policy) run
/// of a distinct mix inherits the warm-up's provenance flag, every
/// other run forked from the published snapshot reports `true`. A run
/// that panics drains the pool once its group has ended, and
/// [`melreq_exec::run_scope`] re-throws the panic here.
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

    // Each distinct mix, in first-appearance order, with the policies of
    // every (stage, mix-position) that runs it and where their results go.
    type Wanted<'s> = (Vec<PolicyKind>, Vec<&'s Mutex<Option<MixResult>>>);
    let mut groups: Vec<(Mix, Wanted<'_>)> = Vec::new();
    let mut at = slots.iter();
    for stage in stages {
        for mix in &stage.mixes {
            let i = groups.iter().position(|(m, _)| m.name == mix.name).unwrap_or_else(|| {
                groups.push((*mix, Wanted::default()));
                groups.len() - 1
            });
            let (policies, targets) = &mut groups[i].1;
            policies.extend(stage.policies.iter().cloned());
            targets.extend(at.by_ref().take(stage.policies.len()));
        }
    }

    let workers = worker_count(total_runs, ctl.threads);
    melreq_exec::run_scope(workers, |scope| {
        for (mix, (policies, targets)) in groups.into_iter().filter(|(_, (p, _))| !p.is_empty()) {
            let done: GroupDone<'_> = Box::new(move |runs| {
                let runs = runs.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (slot, result) in targets.into_iter().zip(runs) {
                    *slot.lock().expect("result slot poisoned") = Some(result);
                }
            });
            let (opts, ctl) = (*opts, ctl.clone());
            let group = Group { mix, policies, opts, ctl, store, done };
            scope.submit(mix.cores() as u64, move |ctx| warm_up_and_fork(&ctx, group, cache));
        }
    });

    let mut out = Vec::with_capacity(stages.len());
    let mut taken = slots.into_iter().map(|s| s.into_inner().expect("result slot poisoned"));
    for runs in stage_runs {
        out.push((0..runs).map(|_| taken.next().flatten().expect("job not run")).collect());
    }
    out
}

/// What a finished [`Group`] hands back: every run's result, in policy
/// order, or the first panic of one of its runs.
pub(crate) type GroupDone<'env> =
    Box<dyn FnOnce(std::thread::Result<Vec<MixResult>>) + Send + 'env>;

/// The runs of one mix from one shared warm-up boundary, as a seeder
/// hands them to [`warm_up_and_fork`]: [`run_sweep_stages`] one per
/// distinct mix, `Session::run_on` one per unaudited request.
pub(crate) struct Group<'env> {
    /// The mix every run simulates.
    pub(crate) mix: Mix,
    /// The policies to run, in result order.
    pub(crate) policies: Vec<PolicyKind>,
    /// The runs' options.
    pub(crate) opts: ExperimentOptions,
    /// Armed on the warm-up and every run.
    pub(crate) ctl: RunControl,
    /// Where the boundary and its op tapes are looked up and kept.
    pub(crate) store: Option<&'env CheckpointStore>,
    /// Called once, by whichever run ends last.
    pub(crate) done: GroupDone<'env>,
}

/// The warm-up job of a [`Group`]: profile, reach the canonical boundary,
/// publish the snapshot, fork every run but the first onto `ctx`'s pool,
/// and run the first inline on the warmed system. A run that panics is
/// caught, so every run ends and the last one calls the group's `done`;
/// a panic before the runs begin unwinds out of here.
pub(crate) fn warm_up_and_fork<'env>(
    ctx: &melreq_exec::Ctx<'_, 'env>,
    group: Group<'env>,
    cache: &ProfileCache,
) {
    let Group { mix, policies, opts, ctl, store, done } = group;
    let inputs = Inputs::of(&mix, &opts, cache);
    let warm_started = host_clock();
    let mut boundary = boundary_system(&mix, &opts, store, &ctl, |_| {});
    let share = boundary.taped(&mix, &opts, policies.len());
    let Boundary { sys: base, from_checkpoint, keyed, .. } = boundary;
    let taped = share.is_some();
    let warm_wall = warm_started.elapsed();
    let (certified, results) = (Default::default(), policies.iter().map(|_| None).collect());
    let runs = Arc::new(GroupRuns {
        mix,
        inputs,
        opts,
        ctl,
        certified,
        share,
        keyed,
        policies,
        results: Mutex::new(results),
        done: Mutex::new(Some(done)),
    });

    // Fork every run but the first, then run the first on the warmed
    // system while idle workers take the forks.
    for i in 1..runs.policies.len() {
        let runs = Arc::clone(&runs);
        ctx.fork(move |_ctx| {
            let fork = || {
                let share = runs.share.as_ref().expect("a group of >1 runs shares");
                let mut sys = restored_system(share, &runs.ctl, "fork", true)
                    .expect("boundary snapshot must restore into an identical fresh system");
                share.tape(&mut sys, None);
                sys
            };
            runs.run(i, fork, true, Duration::ZERO, true);
        });
    }
    runs.run(0, || base, taped, warm_wall, from_checkpoint);
}

/// What the policy runs of one group share besides their boundary: the
/// mix's profiles, the run's options and controls, the windows certified
/// so far, and the results of the runs that have ended.
///
/// Every policy ranks *cores*
/// ([`melreq_memctrl::SchedulerPolicy::core_key`] is a function of the
/// core): among one core's requests two policies pick alike when they
/// agree on `read_first` and `hit_first`, their *rule class* —
/// `melreq-memctrl`'s
/// `one_cores_requests_are_ordered_by_the_rule_class_alone` holds every
/// registered policy to that. So a window that ran to its end with no
/// contested read decision (two or more cores among the candidates) is
/// the window every policy of its class would have simulated, and the
/// first run to finish one, uncancelled, publishes it in its class's
/// cell. A run that finds its cell filled scores that window instead of
/// restoring and simulating its own. The cells die with the group.
///
/// When the group's last run ends, its tapes go to the store, if they
/// hold more than the store's record of them, and then its results to
/// `done`.
struct GroupRuns<'env> {
    mix: Mix,
    inputs: Inputs,
    opts: ExperimentOptions,
    ctl: RunControl,
    policies: Vec<PolicyKind>,
    /// One cell per rule class, indexed `read_first << 1 | hit_first`.
    certified: [OnceLock<Window>; 4],
    /// What the runs read their ops from, if they read tapes.
    share: Option<Arc<GroupShare>>,
    /// The store that holds the boundary, and its key there.
    keyed: Option<(&'env CheckpointStore, u64)>,
    /// Policy-indexed: what each ended run gave. The run that fills the
    /// last slot calls `done`.
    results: Mutex<Vec<Option<std::thread::Result<MixResult>>>>,
    done: Mutex<Option<GroupDone<'env>>>,
}

impl GroupRuns<'_> {
    /// Run policy `i` ([`GroupRuns::measure`]) and keep what it gave, its
    /// panic included; the last run to end hands every result on.
    fn run(
        &self,
        i: usize,
        boundary: impl FnOnce() -> System,
        taped: bool,
        warm_wall: Duration,
        from_checkpoint: bool,
    ) {
        let kind = &self.policies[i];
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.measure(kind, boundary, taped, warm_wall, from_checkpoint)
        }));
        let runs: Option<Vec<_>> = {
            let mut results = self.results.lock().expect("group results poisoned");
            results[i] = Some(ran);
            results.iter().all(Option::is_some).then(|| std::mem::take(&mut *results))
        };
        let Some(runs) = runs else { return };
        if let (Some(share), Some((store, key))) = (&self.share, self.keyed) {
            share.persist(store, key);
        }
        let runs = runs.into_iter().map(|r| r.expect("every run ended")).collect();
        let done = self.done.lock().expect("group done poisoned").take();
        done.expect("the last run ends once")(runs);
    }

    /// `kind`'s result: scored from the window its rule class certified,
    /// or measured on the system `boundary` yields (`taped` if it reads
    /// the group's tapes) and certified if nothing in it was contested.
    /// `warm_wall` and `from_checkpoint` are what [`score`] reports.
    fn measure(
        &self,
        kind: &PolicyKind,
        boundary: impl FnOnce() -> System,
        taped: bool,
        warm_wall: Duration,
        from_checkpoint: bool,
    ) -> MixResult {
        let started = host_clock();
        let (mix, me) = (&self.mix, &self.inputs.me);
        let policy = kind.build(me, mix.cores(), 0);
        let class = usize::from(policy.read_first()) << 1 | usize::from(policy.hit_first());
        let cell = &self.certified[class];
        let window = if let Some(window) = cell.get() {
            let mut sp = melreq_prof::span("policy", || format!("{} {}", kind.name(), mix.name));
            sp.arg("shared", 1);
            window.clone()
        } else {
            let mut sys = boundary();
            let (window, contested) =
                run_window(&mut sys, mix, kind, me, &self.opts, &self.ctl, taped);
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
    use crate::store::TempDir;
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

    /// A caller whose token has fired leaves a profile that another caller
    /// is simulating instead of waiting for it, and keeps nothing.
    #[test]
    fn a_cancelled_caller_does_not_wait_for_anothers_profile() {
        let cache = ProfileCache::new();
        let app = &mix_by_name("2MEM-1").apps()[0];
        let (slice, n) = (SliceKind::Profiling, 5_000);
        let memo =
            Arc::clone(cache.profiles.lock().unwrap().entry((app.code, slice, n)).or_default());
        let simulating = memo.lock().unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert!(cache.lookup_until(app, slice, n, Some(&token)).is_none());
        drop(simulating);
        assert!(cache.lookup(app, slice, n).1, "the cell is still empty");
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
    /// fresh directory (behind its guard), with the key of `mix`'s
    /// boundary in it.
    fn resident_store(
        tag: &str,
        mix: &Mix,
        opts: &ExperimentOptions,
    ) -> (TempDir, Arc<CheckpointStore>, u64) {
        let dir = TempDir::new(&format!("exp-{tag}"));
        let budget = Some(crate::store::RESIDENT_BYTE_BUDGET);
        let store = Arc::new(CheckpointStore::with_budget(&*dir, budget).expect("store"));
        (dir, store, boundary_key(mix, opts))
    }

    /// The store key of `mix`'s boundary.
    fn boundary_key(mix: &Mix, opts: &ExperimentOptions) -> u64 {
        let cfg = canonical_config(mix.cores());
        CheckpointStore::warmup_key(
            &cfg,
            mix.codes,
            opts.eval_slice,
            opts.warmup,
            opts.instructions,
        )
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
        let (_dir, store, key) = resident_store("race", &mix, &opts);
        let cache = ProfileCache::with_store(store.clone());
        let run = |kind: &PolicyKind| {
            let (kinds, ctl) = ([kind.clone()], RunControl::default());
            run_mix_group(&mix, &kinds, &opts, &cache, Some(&store), &ctl).pop().expect("one run")
        };
        // Groups of one. First use: simulated, stored and kept — untaped.
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
        fn state(
            &mut self,
            _: &mut dyn melreq_snap::Archive,
        ) -> Result<(), melreq_snap::SnapError> {
            Ok(())
        }
    }

    #[test]
    fn a_boundary_whose_tape_a_panic_poisoned_is_dropped_for_the_disk_record() {
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-2");
        let (_dir, store, key) = resident_store("poison", &mix, &opts);
        let cache = ProfileCache::with_store(store.clone());
        let run = || {
            let (kinds, ctl) = ([PolicyKind::MeLreq], RunControl::default());
            run_mix_group(&mix, &kinds, &opts, &cache, Some(&store), &ctl).pop().expect("one run")
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
        let tapes = Tapes { per_core, loaded: 0, persisted: AtomicU64::new(0), since_ns: 0 };
        share.tapes.set(tapes).expect("no tapes yet");
        assert!(share.poisoned());
        // Poisoned tapes are never stored: their generator may stand mid-chunk.
        store.store_tapes(key, &share.tapes.get().expect("set above").per_core);
        assert!(!store.dir().join(format!("tapes-{key:016x}.bin")).exists());
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
    }

    /// A window that panics is caught where it ran, so every run of its
    /// group still ends, and the last hands the panic to `done`, once: to a
    /// server, which answers it, or to a sweep, which re-throws it.
    #[test]
    fn a_window_that_panics_ends_its_group_and_reaches_done_once() {
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-2");
        let (_dir, store, key) = resident_store("group-panic", &mix, &opts);
        let session = crate::api::Session::with_store(store.clone());
        let policies = vec![PolicyKind::HfRf, PolicyKind::MeLreq, PolicyKind::Lreq];
        let req = crate::api::SimRequest::new(mix.name).policies(policies.clone()).opts(opts);
        session.run(&req, &RunControl::default()).expect("the cold group keeps its boundary");
        // The resident entry, with tapes whose generator panics when a
        // window asks it for an op.
        let container = resident_share(&store, key).snapshot.clone();
        let broken = || {
            let share = GroupShare::over(mix, &opts, container.clone());
            let per_core = (0..2).map(|_| OpTape::new(Box::new(Broken))).collect();
            let tapes = Tapes { per_core, loaded: 0, persisted: AtomicU64::new(0), since_ns: 0 };
            share.tapes.set(tapes).expect("no tapes yet");
            store.retain(key, &Arc::new(share));
        };
        broken();
        let answers = std::sync::atomic::AtomicUsize::new(0);
        melreq_exec::run_scope(2, |scope| {
            scope.submit(0, |ctx| {
                let done = Box::new(|outcome: std::thread::Result<_>| {
                    assert!(outcome.is_err(), "a window panicked");
                    answers.fetch_add(1, Ordering::Relaxed);
                });
                session.run_on(&req, &RunControl::default(), &ctx, done);
            });
        });
        assert_eq!(answers.load(Ordering::Relaxed), 1);
        broken();
        let ctl = RunControl::default();
        let sweep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_mix_group(&mix, &policies, &opts, session.cache(), Some(&store), &ctl)
        }));
        assert!(sweep.is_err(), "a sweep re-throws its window's panic");
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
                let ctl = RunControl::default();
                run_tapped(&mix, &PolicyKind::MeLreq, &opts, &cache, &ctl, taps)
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
            run_tapped(&mix, &PolicyKind::HfRf, &opts, &cache, &ctl, taps).0
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
    fn warm_store_skips_warmup_and_profiles() {
        use crate::store::CheckpointStore;
        use std::sync::Arc;
        let dir = TempDir::new("exp-store");
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");

        let store = Arc::new(CheckpointStore::open(&*dir).expect("store"));
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
        let store = Arc::new(CheckpointStore::open(&*dir).expect("store"));
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
    }

    #[test]
    fn store_hit_group_forks_the_stored_container_and_matches_fresh_runs() {
        let dir = TempDir::new("exp-share");
        let opts = ExperimentOptions::quick();
        let mix = mix_by_name("2MEM-1");
        let policies = [PolicyKind::HfRf, PolicyKind::MeLreq, PolicyKind::Lreq];
        let ctl = RunControl::default();
        let open = || {
            let store = Arc::new(CheckpointStore::open(&*dir).expect("store"));
            (ProfileCache::with_store(store.clone()), store)
        };
        let (cache, store) = open();
        let cold = run_mix_group(&mix, &policies, &opts, &cache, Some(&store), &ctl);
        assert!(!cold[0].warmup_from_checkpoint && store.stats().warmup_hits == 0);
        let tapes = dir.join(format!("tapes-{:016x}.bin", boundary_key(&mix, &opts)));
        let record = std::fs::read(&tapes).expect("the cold group stored its tapes");

        // What a store-hit group hands its forks is the stored container
        // itself, and that is the restored machine's own snapshot — with
        // plain streams and again once it reads the group's tapes. Over a
        // store without tapes, as one written before they were kept, a
        // group of one records none, and a larger group records its own.
        std::fs::remove_file(&tapes).expect("the tapes record");
        let mut boundary = boundary_system(&mix, &opts, Some(&store), &ctl, |_| {});
        assert!(boundary.from_checkpoint && !boundary.reused, "a plain store keeps nothing");
        let stored = boundary.share.clone().expect("a store hit hands its container back");
        assert!(stored.snapshot.as_bytes() == boundary.sys.snapshot());
        assert!(boundary.taped(&mix, &opts, 1).is_none(), "a group of one records no tape");
        let share = boundary.taped(&mix, &opts, 2).expect("a group shares");
        assert!(Arc::ptr_eq(&share, &stored) && stored.tapes.get().is_some_and(|t| t.loaded == 0));
        assert!(stored.snapshot.as_bytes() == boundary.sys.snapshot());
        drop((share, stored));
        // Over a store with them, a group of one reads them too.
        std::fs::write(&tapes, &record).expect("the tapes record");
        let mut boundary = boundary_system(&mix, &opts, Some(&store), &ctl, |_| {});
        let share = boundary.taped(&mix, &opts, 1).expect("stored tapes are read");
        assert!(share.tapes.get().is_some_and(|t| t.loaded > 0 && t.ops() == t.loaded));
        assert!(share.snapshot.as_bytes() == boundary.sys.snapshot());
        drop(share);

        let (cache, store) = open();
        let warm = run_mix_group(&mix, &policies, &opts, &cache, Some(&store), &ctl);
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses, st.profile_misses), (1, 0, 0));
        assert_eq!((st.tape_hits, st.tape_misses), (1, 0));
        assert!(std::fs::read(&tapes).is_ok_and(|now| now == record));
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
