//! The assembled machine and its global cycle loop: the cores, the cache
//! hierarchy and the memory controller (with the DRAM beneath it), side by
//! side as in the paper's Figure 1. The system owns the controller and
//! hands it to the hierarchy on each step that reaches memory.

use crate::config::SystemConfig;
use crate::hierarchy::Hierarchy;
use melreq_cpu::{Core, CoreToken};
use melreq_dram::DramSystem;
use melreq_memctrl::{ChannelTraffic, MemoryController};
use melreq_obs::{ChannelSample, Collector, CoreSample};
use melreq_snap::{Archive, Dec, Enc, SnapError};
use melreq_stats::types::{CoreId, Cycle};
use melreq_trace::InstrStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cooperative cancellation handle for a running simulation.
///
/// A token carries an externally settable flag (e.g. flipped by a server
/// on shutdown) and an optional wall-clock deadline. An attached system
/// ([`System::set_cancel`]) polls the token at fixed cycle-count epochs
/// ([`System::CANCEL_EPOCH`]); when it reports expiry, the run stops at
/// that epoch boundary and the outcome carries
/// [`RunOutcome::cancelled`]` == true`.
///
/// Cancellation is a run-time attachment like the audit tap: it is never
/// serialized into snapshots, and a system with no token attached pays
/// nothing on the cycle loop.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires on its own (cancel via [`Self::cancel`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally expires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), deadline: Some(deadline) }
    }

    /// Request cancellation (thread- and signal-safe).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline polling is the cancellation feature itself; expiry aborts, never feeds simulated state"
    )]
    pub fn expired(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// N cores + cache hierarchy + memory controller + DRAM, advanced in
/// lock-step by a single CPU-cycle loop.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    hier: Hierarchy,
    ctrl: MemoryController,
    now: Cycle,
    online: Option<OnlineMe>,
    /// The test oracle: force the cycle-exact loop, disabling the
    /// fast-forward kernel ([`System::set_tick_exact`]). No request, option
    /// or flag reaches it — only the kernel-equivalence tests and the repo
    /// benchmark's own check.
    tick_exact: bool,
    /// Reusable completion buffer for [`Hierarchy::advance`] (keeps the
    /// per-cycle hot path allocation-free).
    scratch: Vec<(CoreId, CoreToken)>,
    /// The ME profile the scheduling policy was initialized from, when
    /// known (`None` for a policy handed to [`System::with_policy`], whose
    /// internal state is opaque). Reported on [`System::attach_audit`] so
    /// the policy auditor can reconstruct the priority tables.
    me_profile: Option<Vec<f64>>,
    /// Cycle at which the memory-side statistics were reset (the
    /// measurement boundary): `Some(0)` when no warm-up was requested,
    /// `None` while warm-up is still in progress.
    stats_reset_at: Option<Cycle>,
    /// Epoch time-series sampler ([`System::attach_sampler`]): `None`
    /// (the default) costs nothing on the cycle loop.
    sampler: Option<SamplerState>,
    /// Cooperative cancellation ([`System::set_cancel`]): polled every
    /// [`System::CANCEL_EPOCH`] cycles; `None` costs nothing.
    cancel: Option<CancelState>,
    /// Latched once an attached [`CancelToken`] fires; reported through
    /// [`RunOutcome::cancelled`].
    cancelled: bool,
    /// Per-core wake cycle (DESIGN.md, "Simulation kernel"): core `i` is
    /// asleep — charged [`Core::sleep_cycle`] instead of being ticked —
    /// while `now < core_wake[i]`. Set from [`Core::next_event_at`] after
    /// a tick that made no progress (`Cycle::MAX` when only a memory
    /// completion can wake the core), cleared to 0 when the hierarchy
    /// delivers the core a completion and by [`System::wake_all`].
    core_wake: Vec<Cycle>, // derived from core state, cleared on restore: not snapshotted
    counters: KernelCounters, // host-side work counters, not simulation state
}

/// How much work the kernel did and avoided, since construction
/// ([`System::kernel_counters`]). Host-side bookkeeping: never serialized,
/// in no report, and — unlike simulated statistics — different between
/// the fast-forward and `tick_exact` kernels by design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Cycles simulated by [`System::tick`].
    pub ticks: u64,
    /// Cycles jumped over because no component could act.
    pub skipped_cycles: u64,
    /// [`Core::tick`] calls (core-cycles a core was awake in a ticked
    /// cycle); the cores slept through the rest of `cores × ticks`.
    pub core_ticks: u64,
    /// Read decisions among two or more cores' requests
    /// ([`MemoryController::contested_decisions`]): the only decisions
    /// two policies of one rule class can take differently.
    pub contested_decisions: u64,
    /// Per-channel grant-candidate scans the controller ran.
    pub channel_scans: u64,
    /// Scans skipped because the channel's wake bound lay ahead.
    pub channel_scans_skipped: u64,
    /// Worklist entries the cores' issue stages visited, summed over cores.
    pub issue_examined: u64,
    /// Ops the cores issued, summed over cores.
    pub ops_issued: u64,
    /// Ops the cores took from their instruction streams, summed over
    /// cores. A stream generates each op it hands out unless it reads a
    /// shared [`melreq_trace::OpTape`], whose size says what its readers
    /// together made it generate.
    pub ops_fetched: u64,
}

impl KernelCounters {
    /// Every counter by name, for span args and metric tables.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("ticks", self.ticks),
            ("skipped_cycles", self.skipped_cycles),
            ("core_ticks", self.core_ticks),
            ("contested_decisions", self.contested_decisions),
            ("channel_scans", self.channel_scans),
            ("channel_scans_skipped", self.channel_scans_skipped),
            ("issue_examined", self.issue_examined),
            ("ops_issued", self.ops_issued),
            ("ops_fetched", self.ops_fetched),
        ]
    }
}

/// An attached [`CancelToken`] plus the next cycle it is polled at.
#[derive(Debug)]
struct CancelState {
    token: CancelToken,
    next_at: Cycle,
}

/// The attached [`melreq_obs::Collector`] plus its sampling schedule.
/// Like the online-ME estimator, epoch boundaries are honoured exactly
/// in both kernels: the fast-forward path clamps its jumps so the
/// boundary cycle is always explicitly ticked, which keeps the sampled
/// rows bit-identical to a cycle-exact run.
#[derive(Debug)]
struct SamplerState {
    collector: Arc<Mutex<Collector>>,
    epoch: Cycle,
    next_at: Cycle,
    /// Reusable row buffers (allocation-free steady-state sampling).
    core_buf: Vec<CoreSample>,
    chan_buf: Vec<ChannelSample>,
}

/// State of the run-time memory-efficiency estimator backing
/// [`melreq_memctrl::policy::PolicyKind::MeLreqOnline`] — the paper's
/// future-work direction ("online methods that can dynamically predict
/// the memory efficiency of a program").
///
/// Every `epoch` cycles the per-core deltas of committed instructions
/// and DRAM bytes are turned into an ME sample (Equation 1 over the
/// epoch) and folded into an exponentially weighted estimate that is
/// written back into the controller's priority tables.
#[derive(Debug)]
struct OnlineMe {
    epoch: Cycle,
    next_at: Cycle,
    prev_instr: Vec<u64>,
    prev_bytes: Vec<u64>,
    estimate: Vec<f64>,
}

impl OnlineMe {
    /// EWMA weight of the newest epoch sample.
    const ALPHA: f64 = 0.5;

    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        const WIDTH: SnapError = SnapError::Invalid("online estimator width mismatch");
        let Self { epoch, next_at, prev_instr, prev_bytes, estimate } = self;
        ar.u64(epoch)?;
        ar.ensure(*epoch > 0, SnapError::Invalid("online epoch must be positive"))?;
        ar.u64(next_at)?;
        for v in [prev_instr, prev_bytes] {
            ar.len(v.len(), WIDTH)?;
            v.iter_mut().try_for_each(|x| ar.u64(x))?;
        }
        ar.len(estimate.len(), WIDTH)?;
        estimate.iter_mut().try_for_each(|x| ar.f64(x))
    }
}

/// Results of a measured run (the paper's methodology: each core's
/// statistics are taken over its first `target` committed instructions;
/// cores keep executing until the *last* core reaches the target).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Cycle at which the last core reached its target.
    pub cycles: Cycle,
    /// Per-core measured IPC (target instructions / cycles to reach them).
    pub ipc: Vec<f64>,
    /// Per-core mean memory read latency in cycles (Figure 4's metric).
    pub read_latency: Vec<f64>,
    /// Mean read latency over all cores.
    pub mean_read_latency: f64,
    /// Per-core bytes moved at the DRAM interface.
    pub bytes_by_core: Vec<u64>,
    /// Mean request-queue occupancy, sampled at scheduling decisions
    /// (see [`melreq_memctrl::ControllerStats::queue_occupancy`]).
    pub queue_occupancy_mean: f64,
    /// Mean candidate-set size per grant (how many requests competed).
    pub grant_candidates_mean: f64,
    /// Per-channel grant breakdown: reads, writes and row hits.
    pub channel_traffic: Vec<ChannelTraffic>,
    /// Whether the run hit the safety cycle limit before all targets.
    pub timed_out: bool,
    /// Whether an attached [`CancelToken`] stopped the run at an epoch
    /// boundary before all targets (wall-clock timeout or shutdown).
    pub cancelled: bool,
}

impl RunOutcome {
    /// Total DRAM bandwidth of the run in GB/s at `freq_hz`.
    pub fn total_bandwidth_gbs(&self, freq_hz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let bytes: u64 = self.bytes_by_core.iter().sum();
        bytes as f64 * freq_hz / self.cycles as f64 / 1e9
    }
}

impl System {
    /// Build a system running one instruction stream per core.
    ///
    /// `me` carries the profiled memory-efficiency values that initialize
    /// the controller's priority tables (ignored by ME-oblivious
    /// policies, but always required so every policy sees an identically
    /// configured machine).
    pub fn new(cfg: SystemConfig, streams: Vec<Box<dyn InstrStream + Send>>, me: &[f64]) -> Self {
        Self::build(cfg, streams, me, true)
    }

    /// [`System::new`] for a machine whose next call is
    /// [`System::restore`]: built without the functional pre-warm, since a
    /// restore overwrites every cache way, stamp and counter the pre-warm
    /// writes (0.3–0.9 ms of a 65 536-way L2). Run from reset instead, it
    /// would be a machine with cold caches — another simulation.
    pub(crate) fn for_restore(
        cfg: SystemConfig,
        streams: Vec<Box<dyn InstrStream + Send>>,
        me: &[f64],
    ) -> Self {
        Self::build(cfg, streams, me, false)
    }

    fn build(
        cfg: SystemConfig,
        streams: Vec<Box<dyn InstrStream + Send>>,
        me: &[f64],
        from_reset: bool,
    ) -> Self {
        assert_eq!(me.len(), cfg.cores, "one ME value per core");
        let policy = cfg.policy.build(me, cfg.cores, cfg.seed);
        let mut sys = Self::assemble(cfg, streams, policy, from_reset);
        sys.online = sys.online_estimator(&sys.cfg.policy);
        sys.me_profile = Some(sys.programmed_profile(me));
        sys
    }

    /// Build a system with an externally constructed scheduling policy —
    /// the extension point for policies beyond the paper's set (see
    /// `examples/custom_scheduler.rs`). `cfg.policy` is ignored.
    pub fn with_policy(
        cfg: SystemConfig,
        streams: Vec<Box<dyn InstrStream + Send>>,
        policy: Box<dyn melreq_memctrl::SchedulerPolicy>,
    ) -> Self {
        Self::assemble(cfg, streams, policy, true)
    }

    /// Put the machine together; `from_reset` says it will run from here
    /// rather than receive a snapshot, and so wants the functional warm-up.
    fn assemble(
        cfg: SystemConfig,
        streams: Vec<Box<dyn InstrStream + Send>>,
        policy: Box<dyn melreq_memctrl::SchedulerPolicy>,
        from_reset: bool,
    ) -> Self {
        cfg.validate();
        assert_eq!(streams.len(), cfg.cores, "one stream per core");
        let dram = DramSystem::new(cfg.geometry, cfg.timing);
        let ctrl = MemoryController::new(cfg.ctrl, dram, policy, cfg.cores);
        let mut hier = Hierarchy::new(cfg.cores, cfg.l1i, cfg.l1d, cfg.l2);
        // Functional warm-up: pre-load each program's cacheable regions so
        // short measured slices are not dominated by compulsory misses
        // (SimPoint checkpoints carry warm architectural state likewise).
        if from_reset {
            for (i, s) in streams.iter().enumerate() {
                if let Some(h) = s.warm_hints() {
                    hier.prewarm(CoreId::from(i), &h);
                }
            }
        }
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Core::new(CoreId::from(i), cfg.core, s))
            .collect();
        System {
            core_wake: vec![0; cfg.cores],
            cfg,
            cores,
            hier,
            ctrl,
            now: 0,
            online: None,
            me_profile: None,
            tick_exact: false,
            scratch: Vec::new(),
            stats_reset_at: None,
            sampler: None,
            cancel: None,
            cancelled: false,
            counters: KernelCounters::default(),
        }
    }

    /// Force the cycle-exact loop (disable fast-forwarding over quiescent
    /// cycles). Results are bit-identical either way — the fast-forward
    /// kernel only skips cycles that are provably no-ops — so this exists
    /// as a debug/regression knob and as the repo benchmark's oracle mode,
    /// not as a fidelity switch.
    ///
    /// With it set no core sleeps and the controller scans every channel
    /// every cycle, which keeps this loop an independent oracle for the
    /// wake-up bounds the default kernel relies on.
    pub fn set_tick_exact(&mut self, tick_exact: bool) {
        self.tick_exact = tick_exact;
        self.ctrl.set_tick_exact(tick_exact);
        self.wake_all();
    }

    /// Forget every core's wake cycle: each core is ticked next cycle and
    /// goes back to sleep only on a freshly computed bound. Called wherever
    /// core or policy state is replaced from outside the cycle loop.
    fn wake_all(&mut self) {
        self.core_wake.fill(0);
    }

    /// Hand every core another instruction stream, in core order, and
    /// take the ones they had — how the runs forked from one boundary come
    /// to read one [`melreq_trace::OpTape`] per core. Each core fetches on
    /// from its new stream's next op ([`Core::replace_stream`]).
    pub fn replace_streams(
        &mut self,
        streams: Vec<Box<dyn InstrStream + Send>>,
    ) -> Vec<Box<dyn InstrStream + Send>> {
        assert_eq!(streams.len(), self.cores.len(), "one stream per core");
        self.wake_all();
        self.cores.iter_mut().zip(streams).map(|(core, s)| core.replace_stream(s)).collect()
    }

    /// Work the kernel did and avoided so far (see [`KernelCounters`]).
    pub fn kernel_counters(&self) -> KernelCounters {
        let (channel_scans, channel_scans_skipped) = self.ctrl.scan_counters();
        let issue = self.cores.iter().map(Core::issue_work);
        KernelCounters {
            contested_decisions: self.ctrl.contested_decisions(),
            channel_scans,
            channel_scans_skipped,
            issue_examined: issue.clone().map(|w| w.examined).sum(),
            ops_issued: issue.map(|w| w.issued).sum(),
            ops_fetched: self.cores.iter().map(Core::ops_fetched).sum(),
            ..self.counters
        }
    }

    /// Attach audit instrumentation to the whole machine: the memory
    /// controller and DRAM device start reporting their configuration,
    /// decisions, and grants on `audit`, and the initial memory-efficiency
    /// profile (when the policy was built internally from a known one) is
    /// announced so the checker can reconstruct the priority tables.
    pub fn attach_audit(&mut self, audit: melreq_audit::AuditHandle) {
        self.ctrl.attach_audit(audit.clone());
        if let Some(me) = self.me_profile.clone() {
            audit.emit(|| melreq_audit::AuditEvent::ProfileUpdate { me });
        }
    }

    /// Attach the epoch time-series sampler of a [`melreq_obs::Collector`]
    /// (usually the same collector that is already listening on the audit
    /// tap, see [`System::attach_audit`]): every `epoch` cycles the
    /// per-core commit/pending state and per-channel queue/bus state are
    /// pushed into the collector as one [`melreq_obs::EpochRow`].
    ///
    /// Sampling is an observer: it reads statistics the simulator
    /// maintains anyway and cannot change the run. Epoch boundaries fire
    /// at exactly the same cycles under both kernels (the fast-forward
    /// path clamps its jumps, as it does for the online-ME estimator), so
    /// the sampled series is kernel-independent.
    pub fn attach_sampler(&mut self, collector: Arc<Mutex<Collector>>, epoch: Cycle) {
        assert!(epoch > 0, "sampling epoch must be positive");
        self.sampler = Some(SamplerState {
            collector,
            epoch,
            next_at: self.now + epoch,
            core_buf: Vec::with_capacity(self.cores.len()),
            chan_buf: Vec::new(),
        });
    }

    /// Cycle-count stride at which an attached [`CancelToken`] is polled.
    /// Cancellation therefore lands on a deterministic epoch grid: a
    /// cancelled run always stops at a multiple of this stride (or the
    /// cycle the token was attached, for immediate expiry).
    pub const CANCEL_EPOCH: Cycle = 8_192;

    /// Attach a cooperative cancellation token, polled by the run loop at
    /// the first step boundary after each [`System::CANCEL_EPOCH`]-cycle
    /// epoch elapses. Like the audit tap and the sampler this is a
    /// run-time attachment: it is not part of snapshots and does not
    /// perturb simulation state — polling only reads a flag and the
    /// clock, so a run that is never cancelled is bit-identical to one
    /// with no token attached.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(CancelState { token, next_at: self.now + Self::CANCEL_EPOCH });
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The cores (statistics access).
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The cache hierarchy (cache contents).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// The memory controller, with the DRAM beneath it (memory-side
    /// statistics).
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Advance the whole machine by one CPU cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        // Memory side first: deliver data that becomes ready this cycle...
        self.scratch.clear();
        self.hier.advance(now, &mut self.ctrl, &mut self.scratch);
        for &(core, token) in &self.scratch {
            self.cores[core.index()].finish(token, now);
            self.core_wake[core.index()] = 0;
        }
        // ...then let every core that can act commit/issue/dispatch. A
        // core goes to sleep only after a tick that made no progress, so
        // a busy core never pays for the bound. Under `tick_exact` no wake
        // cycle is ever set and every core is ticked.
        let mut slept = 0;
        for (core, wake) in self.cores.iter_mut().zip(&mut self.core_wake) {
            if now < *wake {
                core.sleep_cycle(now);
                slept += 1;
            } else if !core.tick(now, &mut self.hier) && !self.tick_exact {
                *wake = core.next_event_at(now + 1).unwrap_or(Cycle::MAX);
            }
        }
        self.counters.ticks += 1;
        self.counters.core_ticks += self.cores.len() as u64 - slept;
        self.now += 1;
        if self.online.is_some() {
            self.refresh_online_profile();
        }
        if self.sampler.is_some() {
            self.take_epoch_sample();
        }
    }

    /// Push one epoch row into the attached collector when the sampling
    /// boundary has been reached (no-op otherwise).
    fn take_epoch_sample(&mut self) {
        let Some(st) = self.sampler.as_mut() else {
            return;
        };
        if self.now < st.next_at {
            return;
        }
        st.next_at = self.now + st.epoch;
        let ctrl = &self.ctrl;
        st.core_buf.clear();
        for (i, core) in self.cores.iter().enumerate() {
            st.core_buf.push(CoreSample {
                committed: core.committed(),
                pending_reads: ctrl.pending_reads(CoreId::from(i)),
            });
        }
        st.chan_buf.clear();
        for ch in 0..ctrl.channels() {
            st.chan_buf.push(ChannelSample {
                queue_depth: ctrl.channel_queue_depth(ch),
                busy_cycles: ctrl.dram().bus_busy_cycles(ch),
            });
        }
        st.collector.lock().expect("obs collector poisoned").sample_epoch(
            self.now,
            &st.core_buf,
            &st.chan_buf,
        );
    }

    /// Conservative lower bound on the next cycle at which any component
    /// can make progress (see DESIGN.md, "Simulation kernel"): the minimum
    /// of the per-core wake cycles and the memory side's bound. `Some(now)`
    /// means this cycle must be simulated; `Some(t > now)` means every
    /// cycle strictly before `t` is provably a no-op; `None` means the
    /// machine is fully quiescent with nothing in flight.
    fn next_event_at(&self) -> Option<Cycle> {
        let now = self.now;
        let cores = self.core_wake.iter().copied().min().unwrap_or(Cycle::MAX);
        if cores <= now {
            return Some(now);
        }
        let bound = self.hier.next_event_at(now, &self.ctrl).map_or(cores, |at| at.min(cores));
        (bound != Cycle::MAX).then_some(bound)
    }

    /// Jump the clock from `now` to `target` without simulating the
    /// intervening cycles. Only legal when every one of those cycles is a
    /// no-op (guaranteed by [`System::next_event_at`]); per-core cycle and
    /// commit-stall counters are advanced so statistics match a
    /// cycle-exact run bit for bit.
    fn skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now, "skip must move forward");
        let delta = target - self.now;
        for core in &mut self.cores {
            core.note_skip(delta);
        }
        self.counters.skipped_cycles += delta;
        self.now = target;
    }

    /// Epoch step of the online memory-efficiency estimator (the
    /// `ME-LREQ-ON` policy). Measures each core's instructions and DRAM
    /// bytes since the previous epoch, converts them to an Equation-1
    /// sample, smooths it, and rewrites the priority tables.
    fn refresh_online_profile(&mut self) {
        let Some(st) = self.online.as_mut() else {
            return;
        };
        if self.now < st.next_at {
            return;
        }
        st.next_at = self.now + st.epoch;
        let bytes_now = &self.ctrl.stats().bytes_by_core;
        let freq = self.cfg.freq_hz;
        let epoch = st.epoch as f64;
        for (i, core) in self.cores.iter().enumerate() {
            let instr_now = core.committed();
            // A statistics reset (end of warm-up) makes byte counters go
            // backwards; resynchronize and skip this epoch's sample.
            if bytes_now[i] < st.prev_bytes[i] {
                st.prev_bytes[i] = bytes_now[i];
                st.prev_instr[i] = instr_now;
                continue;
            }
            let d_instr = instr_now - st.prev_instr[i];
            let d_bytes = bytes_now[i] - st.prev_bytes[i];
            st.prev_instr[i] = instr_now;
            st.prev_bytes[i] = bytes_now[i];
            let ipc = d_instr as f64 / epoch;
            let gbps = d_bytes as f64 * freq / epoch / 1e9;
            let sample = ipc / gbps.max(1e-3);
            st.estimate[i] = OnlineMe::ALPHA * sample + (1.0 - OnlineMe::ALPHA) * st.estimate[i];
        }
        self.ctrl.update_profile(&st.estimate);
    }

    /// Run until every core has committed `target` instructions (the
    /// paper's run-until-last-core-finishes methodology; early finishers
    /// keep running and keep generating memory traffic), or until
    /// `max_cycles` as a safety net.
    pub fn run_until_targets(&mut self, target: u64, max_cycles: Cycle) -> RunOutcome {
        self.run_measured(0, target, max_cycles)
    }

    /// Like [`System::run_until_targets`] but with an explicit warm-up:
    /// each core first commits `warmup` instructions with cold caches;
    /// once *all* cores have passed warm-up, the memory-side statistics
    /// reset and each core's measured slice of `target` instructions
    /// begins. This substitutes for the implicit warm-up inside the
    /// paper's 100 M-instruction SimPoint slices.
    ///
    /// Equivalent to [`System::prepare_window`] followed by
    /// [`System::run_window`]; the split form exists so callers can pause
    /// at the warm-up boundary ([`System::run_to_boundary`]), take a
    /// [`System::snapshot`], and fork the warmed machine.
    pub fn run_measured(&mut self, warmup: u64, target: u64, max_cycles: Cycle) -> RunOutcome {
        self.prepare_window(warmup, target);
        self.run_window(max_cycles)
    }

    /// Arm every core's measurement window. Must be called from reset; the
    /// run then proceeds via [`System::run_to_boundary`] and/or
    /// [`System::run_window`].
    pub fn prepare_window(&mut self, warmup: u64, target: u64) {
        assert!(self.now == 0, "measured runs must start from reset");
        self.wake_all();
        for core in &mut self.cores {
            core.set_window(warmup, target);
        }
        self.stats_reset_at = if warmup == 0 { Some(0) } else { None };
    }

    /// One iteration of the measured-run loop: fast-forward or tick, then
    /// fire the statistics reset when the last core crosses warm-up.
    /// Returns `false` when the safety limit was hit.
    fn step_window(&mut self, max_cycles: Cycle) -> bool {
        if self.now >= max_cycles || self.cancelled {
            return false;
        }
        if let Some(cc) = &mut self.cancel {
            if self.now >= cc.next_at {
                cc.next_at = self.now + Self::CANCEL_EPOCH;
                if cc.token.expired() {
                    self.cancelled = true;
                    return false;
                }
            }
        }
        if !self.tick_exact {
            // Fast-forward: jump over cycles no component can act in.
            // Clamp to the safety limit (a fully idle machine skips
            // straight to the timeout, as ticking would) and to the
            // cycle before the next online-ME epoch boundary, whose
            // profile refresh must fire on schedule.
            let bound = self.next_event_at();
            let mut jump_to = bound.unwrap_or(Cycle::MAX).min(max_cycles);
            if let Some(st) = &self.online {
                jump_to = jump_to.min(st.next_at - 1);
            }
            // Same contract for the epoch sampler: its boundary cycle
            // must be explicitly ticked so rows land on schedule.
            if let Some(st) = &self.sampler {
                jump_to = jump_to.min(st.next_at - 1);
            }
            if jump_to > self.now {
                self.skip_to(jump_to);
                return true;
            }
        }
        self.tick();
        if self.stats_reset_at.is_none()
            && self.cores.iter().all(|c| c.window_start_cycle().is_some())
        {
            self.ctrl.reset_stats();
            // All measured slices start here, together: a core that raced
            // past its warm-up count keeps running, but only instructions
            // committed from this cycle on count toward its target. This
            // is also what makes the warm-up boundary policy-agnostic —
            // nothing measured has executed yet when a forked run swaps
            // the scheduler in.
            for core in &mut self.cores {
                core.begin_measured_slice(self.now);
            }
            self.stats_reset_at = Some(self.now);
        }
        true
    }

    /// Run a prepared window up to the measurement boundary: the cycle at
    /// which the last core finishes warm-up and the memory-side
    /// statistics reset. Returns `false` if `max_cycles` was hit first.
    /// The machine state at the boundary is exactly the state the same
    /// point of a straight [`System::run_window`] call would have — this
    /// is the snapshot/fork point for warmup sharing.
    pub fn run_to_boundary(&mut self, max_cycles: Cycle) -> bool {
        while self.stats_reset_at.is_none() {
            if !self.step_window(max_cycles) {
                return false;
            }
        }
        true
    }

    /// Run a prepared window (from reset, the boundary, or a restored
    /// snapshot) until every core completes its measured slice, then
    /// report the outcome.
    pub fn run_window(&mut self, max_cycles: Cycle) -> RunOutcome {
        let mut timed_out = false;
        while self.cores.iter().any(|c| c.target_cycle().is_none()) {
            if !self.step_window(max_cycles) {
                timed_out = !self.cancelled;
                break;
            }
        }
        let measured_cycles = self.now.saturating_sub(self.stats_reset_at.unwrap_or(0)).max(1);
        let ctrl_stats = self.ctrl.stats();
        let read_latency: Vec<f64> =
            ctrl_stats.read_latency.iter().map(melreq_stats::StreamingMean::mean_or_zero).collect();
        RunOutcome {
            cycles: measured_cycles,
            ipc: self.cores.iter().map(melreq_cpu::Core::measured_ipc).collect(),
            read_latency,
            mean_read_latency: ctrl_stats.mean_read_latency(),
            bytes_by_core: ctrl_stats.bytes_by_core.clone(),
            queue_occupancy_mean: ctrl_stats.queue_occupancy.mean_or_zero(),
            grant_candidates_mean: ctrl_stats.grant_candidates.mean_or_zero(),
            channel_traffic: ctrl_stats.per_channel.clone(),
            timed_out,
            cancelled: self.cancelled,
        }
    }

    /// Swap the scheduling policy in place, preserving all architectural
    /// and micro-architectural state — the warmup-sharing hook: a system
    /// warmed once (under the canonical warm-up policy) forks into one
    /// run per measured policy at the measurement boundary.
    ///
    /// The new policy is built fresh from `kind`, `me`, and the system's
    /// construction seed, exactly as [`System::new`] would build it; the
    /// online-ME estimator is re-created (or dropped) to match, with its
    /// first epoch starting now. An attached audit sees a fresh
    /// `CtrlConfig` plus the profile the new tables were programmed from,
    /// mirroring what [`System::attach_audit`] announces at reset.
    pub fn swap_policy(&mut self, kind: &melreq_memctrl::policy::PolicyKind, me: &[f64]) {
        assert_eq!(me.len(), self.cfg.cores, "one ME value per core required");
        let policy = kind.build(me, self.cfg.cores, self.cfg.seed);
        let online = self.online_estimator(kind);
        self.cfg.policy = kind.clone();
        self.swap_policy_boxed(policy, &self.programmed_profile(me));
        self.online = online;
    }

    /// The online-ME estimator `kind` needs, if it is the online variant:
    /// its first epoch starts now and its deltas are baselined here, so it
    /// samples only execution under the policy being installed.
    fn online_estimator(&self, kind: &melreq_memctrl::policy::PolicyKind) -> Option<OnlineMe> {
        let melreq_memctrl::policy::PolicyKind::MeLreqOnline { epoch_cycles } = *kind else {
            return None;
        };
        assert!(epoch_cycles > 0, "online epoch must be positive");
        Some(OnlineMe {
            epoch: epoch_cycles,
            next_at: self.now + epoch_cycles,
            prev_instr: self.cores.iter().map(melreq_cpu::Core::committed).collect(),
            prev_bytes: self.ctrl.stats().bytes_by_core.clone(),
            estimate: vec![1.0; self.cfg.cores],
        })
    }

    /// The profile `cfg.policy`'s tables were programmed from: the online
    /// build starts flat (see `PolicyKind::build`), every other build
    /// programs `me` directly.
    fn programmed_profile(&self, me: &[f64]) -> Vec<f64> {
        match self.cfg.policy {
            melreq_memctrl::policy::PolicyKind::MeLreqOnline { .. } => vec![1.0; self.cfg.cores],
            _ => me.to_vec(),
        }
    }

    /// Like [`System::swap_policy`] but for an externally constructed
    /// policy (the [`System::with_policy`] extension point), without the
    /// online-ME estimator. `me` is the profile its builder was handed:
    /// an attached audit is told it, as for a registered kind, so a
    /// policy that answers to a modelled name ("ME", "ME-LREQ") is held
    /// to that model's ranking instead of passing for want of a profile.
    pub fn swap_policy_boxed(
        &mut self,
        policy: Box<dyn melreq_memctrl::SchedulerPolicy>,
        me: &[f64],
    ) {
        self.wake_all();
        self.ctrl.set_policy(policy);
        self.online = None;
        self.me_profile = Some(me.to_vec());
        self.ctrl.announce_profile(me);
    }

    /// Serialize the entire machine — every core pipeline (including its
    /// instruction stream's generation cursor), the cache hierarchy, the
    /// memory controller, the DRAM device, the online-ME estimator, the
    /// clock, and the measurement bookkeeping — into a self-validating
    /// container ([`melreq_snap::seal`]). Restoring it into a freshly
    /// constructed identical system resumes the run bit-exactly; see
    /// [`System::load_snapshot`]. A save walk only reads the machine; it
    /// takes `&mut self` because one walk both saves and restores.
    pub fn snapshot(&mut self) -> Vec<u8> {
        self.snapshot_sealed().into_bytes()
    }

    /// [`System::snapshot`] as the verified container it is, for
    /// [`System::restore`] to take without checking it again.
    pub(crate) fn snapshot_sealed(&mut self) -> melreq_snap::Sealed {
        melreq_snap::Sealed::seal(&Enc::save(|enc| self.state(enc)))
    }

    /// Restore a [`System::snapshot`] into this system. The receiver must
    /// have been built with the same configuration (core count, cache and
    /// DRAM geometry, policy kind, seed, streams) as the system the
    /// snapshot was taken from; what was *mutable* — pipeline contents,
    /// cache arrays, queues, timers, RNG streams, statistics, the clock —
    /// is overwritten wholesale. The kernel mode (`tick_exact`) is
    /// deliberately untouched — an observer of the simulation, not part
    /// of its state. Observers that would misreport across the
    /// discontinuity detach: the controller drops its audit tap (see
    /// [`MemoryController::state`]) and any attached epoch sampler
    /// is dropped likewise.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.restore_payload(melreq_snap::open(bytes)?)
    }

    /// [`System::load_snapshot`] of a container already verified where it
    /// entered the process (or sealed in it): no second checksum pass.
    pub(crate) fn restore(&mut self, snapshot: &melreq_snap::Sealed) -> Result<(), SnapError> {
        self.restore_payload(snapshot.payload())
    }

    fn restore_payload(&mut self, payload: &[u8]) -> Result<(), SnapError> {
        let mut dec = Dec::new(payload);
        self.state(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(SnapError::Invalid("trailing snapshot bytes"));
        }
        Ok(())
    }

    /// The snapshot payload's one definition ([`Archive`]): the clock,
    /// every core, the hierarchy, the controller, the online-ME estimator
    /// and the measurement boundary.
    fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `cfg`: construction-time config, identical across snapshot peers.
        // `tick_exact`, `sampler`, `cancel`, `cancelled`, `counters`:
        // observers and host-side bookkeeping, not simulation state (a load
        // drops the sampler). `scratch`: per-cycle buffer. `me_profile`:
        // what the receiver's policy was built from, told to audits it
        // attaches. `core_wake`: derived, cleared by a load.
        let Self {
            cfg: _,
            cores,
            hier,
            ctrl,
            now,
            online,
            tick_exact: _,
            scratch: _,
            me_profile: _,
            stats_reset_at,
            sampler,
            cancel: _,
            cancelled: _,
            core_wake: _,
            counters: _,
        } = self;
        ar.u64(now)?;
        ar.len(cores.len(), SnapError::Invalid("system core count mismatch"))?;
        cores.iter_mut().try_for_each(|c| c.state(ar))?;
        hier.state(ar)?;
        ctrl.state(ar)?;
        let mut has_online = online.is_some();
        ar.bool(&mut has_online)?;
        let presence = SnapError::Invalid("online estimator presence mismatch");
        ar.ensure(has_online == online.is_some(), presence)?;
        if let Some(st) = online {
            st.state(ar)?;
        }
        ar.opt_u64(stats_reset_at)?;
        if ar.loading() {
            // A sampler attached before the restore would emit rows whose
            // deltas straddle the discontinuity; re-attach after restoring
            // to observe the resumed run.
            *sampler = None;
            self.wake_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_memctrl::policy::PolicyKind;
    use melreq_workloads::{app_by_code, Mix, MixKind, SliceKind};

    fn small_system(cores: usize, codes: &'static str, policy: PolicyKind) -> System {
        let mix = Mix { name: "ad hoc", codes, kind: MixKind::Mixed };
        System::new(SystemConfig::paper(cores, policy), mix.eval_streams(0), &vec![1.0; cores])
    }

    #[test]
    fn single_core_ilp_app_runs() {
        let mut sys = small_system(1, "t", PolicyKind::HfRf); // eon
        let out = sys.run_measured(20_000, 20_000, 20_000_000);
        assert!(!out.timed_out, "eon must finish quickly");
        assert!(out.ipc[0] > 1.0, "cache-resident app should have high IPC, got {}", out.ipc[0]);
    }

    #[test]
    fn single_core_mem_app_is_memory_bound() {
        let mut sys = small_system(1, "c", PolicyKind::HfRf); // swim
        let out = sys.run_until_targets(20_000, 10_000_000);
        assert!(!out.timed_out);
        assert!(out.ipc[0] < 1.5, "streaming app should be memory-bound, got {}", out.ipc[0]);
        assert!(out.bytes_by_core[0] > 0, "must touch DRAM");
    }

    #[test]
    fn ilp_app_uses_less_bandwidth_than_mem_app() {
        let mut ilp = small_system(1, "t", PolicyKind::HfRf);
        let mut mem = small_system(1, "c", PolicyKind::HfRf);
        let oi = ilp.run_measured(20_000, 20_000, 20_000_000);
        let om = mem.run_measured(20_000, 20_000, 20_000_000);
        let bi = oi.total_bandwidth_gbs(3.2e9);
        let bm = om.total_bandwidth_gbs(3.2e9);
        assert!(bm > 5.0 * bi.max(1e-6), "MEM app must out-demand ILP app: {bm} vs {bi} GB/s");
    }

    #[test]
    fn two_core_run_interferes() {
        let mut solo = small_system(1, "c", PolicyKind::HfRf);
        let s = solo.run_until_targets(10_000, 10_000_000);
        let mut duo = small_system(2, "ce", PolicyKind::HfRf); // swim + applu
        let d = duo.run_until_targets(10_000, 20_000_000);
        assert!(!d.timed_out);
        assert!(d.ipc[0] < s.ipc[0], "sharing memory must slow swim: {} vs {}", d.ipc[0], s.ipc[0]);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let mut a = small_system(2, "bc", PolicyKind::MeLreq);
        let mut b = small_system(2, "bc", PolicyKind::MeLreq);
        let oa = a.run_until_targets(5_000, 10_000_000);
        let ob = b.run_until_targets(5_000, 10_000_000);
        assert_eq!(oa.cycles, ob.cycles);
        assert_eq!(oa.ipc, ob.ipc);
    }

    #[test]
    fn online_me_lreq_runs_and_learns() {
        // ME-LREQ-ON needs no offline profile: ME values passed to
        // System::new are ignored by the online build, and the estimator
        // refreshes the tables as the run progresses.
        let mut sys = small_system(2, "bc", PolicyKind::MeLreqOnline { epoch_cycles: 5_000 });
        let out = sys.run_measured(10_000, 20_000, 1 << 27);
        assert!(!out.timed_out);
        assert!(out.ipc.iter().all(|&i| i > 0.0));
    }

    #[test]
    fn online_estimator_is_deterministic() {
        let run = || {
            let mut sys = small_system(2, "kc", PolicyKind::MeLreqOnline { epoch_cycles: 3_000 });
            sys.run_measured(5_000, 10_000, 1 << 27)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.cycles, b.cycles);
    }

    /// A restore overwrites everything the functional pre-warm writes: the
    /// pinned 4MEM-1 boundary container (`tests/determinism.rs`) restored
    /// into a machine built without it is the machine built with it.
    #[test]
    fn a_machine_built_for_restore_restores_to_the_one_built_warm() {
        let opts = crate::ExperimentOptions::quick();
        let mix = melreq_workloads::mix_by_name("4MEM-1");
        let (cfg, me) =
            (SystemConfig::paper(4, crate::experiment::CANONICAL_WARMUP_POLICY), [1.0; 4]);
        let mut warmed = System::new(cfg.clone(), mix.eval_streams(0), &me);
        warmed.prepare_window(opts.warmup, opts.instructions);
        assert!(warmed.run_to_boundary(1 << 26), "warm-up must reach the boundary");
        let container = warmed.snapshot_sealed();
        assert_eq!(melreq_snap::fnv1a(container.as_bytes()), 0x2ff8_816e_ec81_d93c);

        let mut warm = System::new(cfg.clone(), mix.eval_streams(0), &me);
        let mut cold = System::for_restore(cfg, mix.eval_streams(0), &me);
        assert!(warm.snapshot() != cold.snapshot(), "the pre-warm must have written something");
        for sys in [&mut warm, &mut cold] {
            sys.restore(&container).expect("the boundary restores");
            assert!(sys.snapshot() == container.as_bytes(), "restored state moved");
        }
        let (warm, cold) = (warm.run_window(1 << 26), cold.run_window(1 << 26));
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn stream_count_must_match() {
        let cfg = SystemConfig::paper(2, PolicyKind::HfRf);
        let s = app_by_code('c').build_stream(0, SliceKind::Profiling);
        let _ = System::new(cfg, vec![Box::new(s) as Box<dyn InstrStream + Send>], &[1.0, 1.0]);
    }
}
