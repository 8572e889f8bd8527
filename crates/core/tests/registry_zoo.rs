//! The grown scheduler zoo through the open policy registry: BLISS and
//! TCM-cluster (plus the externally contributed FQ/STF) must be
//! first-class citizens of every harness path the paper's policies
//! enjoy — name resolution, audited runs with deterministic event
//! streams, shared-warm-up forking, and mid-run pause/restore.

use melreq_audit::{Auditor, AuditorConfig, Rule};
use melreq_core::experiment::{
    run_mix, run_mix_audited, run_mix_group, ProfileCache, CANONICAL_WARMUP_POLICY,
};
use melreq_core::{ExperimentOptions, PolicyKind, RunControl, System, SystemConfig};
use melreq_memctrl::policy::Candidate;
use melreq_memctrl::{canonical_name, registry, SchedulerPolicy};
use melreq_snap::{fnv1a, Archive, SnapError};
use melreq_stats::CoreId;
use melreq_workloads::mix_by_name;

/// The grown set: every non-paper policy the registry resolves,
/// including parameterized variants off their defaults.
fn grown_set() -> Vec<PolicyKind> {
    vec![
        PolicyKind::parse("fq").unwrap(),
        PolicyKind::parse("stf").unwrap(),
        PolicyKind::parse("bliss").unwrap(),
        PolicyKind::parse("bliss(threshold=2,clear=3000)").unwrap(),
        PolicyKind::parse("tcm").unwrap(),
        PolicyKind::parse("tcm(quantum=1500)").unwrap(),
        PolicyKind::parse("me-lreq-on(epoch=20000)").unwrap(),
    ]
}

#[test]
fn every_registered_policy_round_trips_through_the_api() {
    for d in registry() {
        let kind = PolicyKind::parse(d.id).expect("id resolves");
        let token = canonical_name(&kind);
        let back = PolicyKind::parse(&token).expect("canonical token resolves");
        assert_eq!(kind, back, "{}: parse -> canonical -> parse must be identity", d.id);
        for alias in d.aliases {
            assert_eq!(
                PolicyKind::parse(alias).expect("alias resolves"),
                d.default_kind(),
                "alias {alias} must resolve to {}",
                d.id
            );
        }
    }
}

#[test]
fn grown_set_audits_clean_with_deterministic_streams() {
    let cache = ProfileCache::new();
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name("2MEM-1");
    for kind in grown_set() {
        let (ra, a) = run_mix_audited(&mix, &kind, &opts, &cache);
        let (rb, b) = run_mix_audited(&mix, &kind, &opts, &cache);
        assert!(a.is_clean(), "[{}] audit must pass:\n{}", kind.name(), a.render());
        assert!(a.events > 0, "[{}] instrumentation must emit events", kind.name());
        assert_eq!(a.stream_hash, b.stream_hash, "[{}] stream must replay", kind.name());
        assert_eq!(ra.smt_speedup, rb.smt_speedup, "[{}]", kind.name());
        assert!(ra.harmonic_speedup > 0.0, "[{}] no core may starve", kind.name());
        assert!(ra.max_slowdown >= 1.0 - 1e-9, "[{}]", kind.name());
        assert!(ra.unfairness >= 1.0, "[{}]", kind.name());
    }
}

/// `melreq audit 4MEM-1 --instructions 20000 --warmup 2000 --profile 20000`
/// for every registry entry, captured at f3b694c with each scheduler's
/// order still hand-written in its own `select`. FQ and STF have no
/// auditor model and no results pin: this hash is their oracle.
#[test]
fn audit_stream_hashes_are_pinned_for_the_whole_registry() {
    const PINNED: [(&str, u64); 14] = [
        ("hf-rf", 0x2c418515711baaab),
        ("me", 0xd3bf6f9a6430bc08),
        ("rr", 0xa78d22a02352bae8),
        ("lreq", 0xb24973351a2b25a0),
        ("me-lreq", 0x3e70bfa3471b0974),
        ("fcfs", 0x77dcbdbbbc6020fa),
        ("fcfs-rf", 0xff47389d6c754e9f),
        ("me-lreq-on", 0x1e4dd930546b459f),
        ("fix-0123", 0xbef34b3c1d91dcda),
        ("fix-3210", 0x24b93679bcb3391e),
        ("fq", 0x9412499a123816c8),
        ("stf", 0x67845d77ffc6e8c2),
        ("bliss", 0x69441f9521f3be2d),
        ("tcm", 0x3810c5c61f6c031b),
    ];
    let cache = ProfileCache::new();
    let opts = ExperimentOptions {
        instructions: 20_000,
        warmup: 2_000,
        profile_instructions: 20_000,
        ..ExperimentOptions::default()
    };
    let mix = mix_by_name("4MEM-1");
    let ids: Vec<&str> = registry().iter().map(|d| d.id).collect();
    assert_eq!(ids, PINNED.map(|(id, _)| id), "a registry entry without a pinned stream");
    for (id, hash) in PINNED {
        let (_, report) = run_mix_audited(&mix, &PolicyKind::parse(id).unwrap(), &opts, &cache);
        assert!(report.is_clean(), "[{id}] audit must pass:\n{}", report.render());
        assert_eq!(report.stream_hash, hash, "[{id}] audit stream {:016x}", report.stream_hash);
    }
}

/// Which link of its inner policy's chain a [`Mutant`] inverts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flip {
    /// None: the control, which must behave exactly like the policy.
    Nothing,
    /// The core link: the largest key wins.
    CoreKey,
    /// The age link (youngest first), for policies whose core key is a
    /// constant. Their row-hit link cannot stand in: under the paper's
    /// close-page DRAM a hit never competes with an older miss, so
    /// inverting it changes no grant (HF-RF and FCFS-RF are one schedule).
    Age,
}

/// A registered policy with one comparator of its rule chain inverted and
/// everything else — its name and parameters on the audit stream, its
/// `prepare`, its grant history, its state — delegated.
#[derive(Debug)]
struct Mutant {
    inner: Box<dyn SchedulerPolicy>,
    flip: Flip,
}

impl SchedulerPolicy for Mutant {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn core_key(&self, core: CoreId, pending: &[u32]) -> (u64, u16) {
        let (key, tie) = self.inner.core_key(core, pending);
        if self.flip == Flip::CoreKey {
            (u64::MAX - key, u16::MAX - tie)
        } else {
            (key, tie)
        }
    }
    fn hit_first(&self) -> bool {
        self.inner.hit_first()
    }
    fn read_first(&self) -> bool {
        self.inner.read_first()
    }
    fn prepare(&mut self, cands: &[Candidate], pending: &[u32]) {
        self.inner.prepare(cands, pending);
    }
    /// The chain as `SchedulerPolicy` documents it — core key, then hits,
    /// then age — with this mutant's links (the control pins it to the
    /// real one).
    fn select(&mut self, cands: &[Candidate], pending: &[u32]) -> usize {
        self.prepare(cands, pending);
        let age = |c: &Candidate| if self.flip == Flip::Age { u64::MAX - c.id.0 } else { c.id.0 };
        let link = |c: &Candidate| {
            (self.core_key(c.core, pending), self.hit_first() && !c.row_hit, age(c))
        };
        (0..cands.len()).min_by_key(|&i| link(&cands[i])).expect("select called with no candidates")
    }
    fn core_rule(&self, winner: CoreId, beaten: CoreId, pending: &[u32]) -> Rule {
        self.inner.core_rule(winner, beaten, pending)
    }
    fn note_grant(&mut self, granted: &Candidate) {
        self.inner.note_grant(granted);
    }
    fn params(&self) -> Vec<(&'static str, u64)> {
        self.inner.params()
    }
    fn update_profile(&mut self, me: &[f64]) {
        self.inner.update_profile(me);
    }
    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        self.inner.state(ar)
    }
}

/// Is the auditor's model of each policy still reached? A scheduler that
/// grants in the wrong order under a registered name must fail `melreq
/// audit`; a model that lets it through proves nothing about the real one.
#[test]
fn a_flipped_comparator_fails_the_audit_of_every_modelled_policy() {
    // Their core key is a constant, so the flip goes to the age link.
    const CONSTANT_KEY: [&str; 2] = ["fcfs-rf", "hf-rf"];
    // No audit model: `audit_stream_hashes_are_pinned_for_the_whole_registry`
    // is their oracle. The day either gets a model this test says so.
    const UNMODELLED: [&str; 2] = ["fq", "stf"];
    // Where reads do not bypass writes the controller orders the one mixed
    // class itself and never asks the policy: there is nothing to mutate.
    const NEVER_CONSULTED: [&str; 1] = ["fcfs"];
    let cache = ProfileCache::new();
    let opts = ExperimentOptions {
        instructions: 20_000,
        warmup: 2_000,
        profile_instructions: 20_000,
        ..ExperimentOptions::default()
    };
    let mix = mix_by_name("4MEM-1");
    let me: Vec<f64> = (0..mix.cores()).map(|i| cache.profile(&mix, i, &opts).me).collect();
    // What an audited run does, with the mutant swapped in at the
    // boundary: warm up from reset under the canonical policy, the
    // auditor listening from the first cycle.
    let audit = |kind: &PolicyKind, flip: Flip| {
        let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
        let mut sys = System::new(cfg, mix.eval_streams(opts.eval_slice), &vec![1.0; mix.cores()]);
        let (handle, auditor) = Auditor::shared(AuditorConfig::default());
        sys.attach_audit(handle);
        sys.prepare_window(opts.warmup, opts.instructions);
        assert!(sys.run_to_boundary(1 << 30), "[{}] the warm-up must end", kind.name());
        let mut inner = kind.build(&me, mix.cores(), sys.config().seed);
        // The audit is told `me`. The online variant is built flat for
        // the system's estimator to refresh, which a boxed policy does
        // not get: program its tables here (a no-op for the rest).
        inner.update_profile(&me);
        sys.swap_policy_boxed(Box::new(Mutant { inner, flip }), &me);
        let out = sys.run_window(1 << 30);
        assert!(!out.timed_out, "[{}] the window must end", kind.name());
        let report = auditor.lock().expect("auditor poisoned").report();
        (out.ipc, report)
    };
    for d in registry() {
        let (id, kind) = (d.id, d.default_kind());
        let (as_itself, control) = audit(&kind, Flip::Nothing);
        assert!(control.is_clean(), "[{id}] the wrapper alone must pass:\n{}", control.render());
        if !matches!(kind, PolicyKind::MeLreqOnline { .. }) {
            // (The online variant's estimator is the system's, engaged
            // for a registered kind only.)
            let real = run_mix(&mix, &kind, &opts, &cache);
            assert_eq!(as_itself, real.ipc_multi, "[{id}] the wrapper is not the policy");
        }
        let flip = if CONSTANT_KEY.contains(&id) { Flip::Age } else { Flip::CoreKey };
        let (_, mutated) = audit(&kind, flip);
        if NEVER_CONSULTED.contains(&id) {
            assert_eq!(mutated.stream_hash, control.stream_hash, "[{id}] is consulted after all");
            continue;
        }
        assert_ne!(mutated.stream_hash, control.stream_hash, "[{id}] the flip changed no grant");
        assert_eq!(
            mutated.is_clean(),
            UNMODELLED.contains(&id),
            "[{id}] {flip:?} flipped, {} violation(s)",
            mutated.total_violations
        );
    }
}

#[test]
fn zoo_forks_match_fresh_runs_bit_exactly() {
    let cache = ProfileCache::new();
    let opts = ExperimentOptions::quick();
    let mix = mix_by_name("2MEM-1");
    let policies = [
        PolicyKind::HfRf,
        PolicyKind::parse("bliss").unwrap(),
        PolicyKind::parse("tcm").unwrap(),
        PolicyKind::Fq,
        PolicyKind::Stf,
    ];
    let group = run_mix_group(&mix, &policies, &opts, &cache, None, &RunControl::default());
    assert!(!group[0].warmup_from_checkpoint, "first policy owns the warm-up");
    for r in &group[1..] {
        assert!(r.warmup_from_checkpoint, "{} must fork the shared warm-up", r.policy);
    }
    for (p, forked) in policies.iter().zip(&group) {
        let fresh = run_mix(&mix, p, &opts, &cache);
        assert_eq!(forked.ipc_multi, fresh.ipc_multi, "{}", p.name());
        assert_eq!(forked.read_latency, fresh.read_latency, "{}", p.name());
        assert_eq!(forked.sim_cycles, fresh.sim_cycles, "{}", p.name());
        assert_eq!(forked.smt_speedup, fresh.smt_speedup, "{}", p.name());
        assert_eq!(forked.harmonic_speedup, fresh.harmonic_speedup, "{}", p.name());
        assert_eq!(forked.max_slowdown, fresh.max_slowdown, "{}", p.name());
    }
}

fn build(mix_name: &str, kind: &PolicyKind, me: &[f64]) -> System {
    let mix = mix_by_name(mix_name);
    System::new(SystemConfig::paper(mix.cores(), kind.clone()), mix.eval_streams(0), me)
}

/// Pause each zoo policy mid-window — with blacklist bits, cluster
/// ranks, epoch counters and attained-service state all live — snapshot,
/// restore into a fresh system, and require both arms to finish in
/// bit-identical architectural state.
#[test]
fn zoo_midrun_snapshot_continue_equals_restore() {
    const WARMUP: u64 = 4_000;
    const TARGET: u64 = 6_000;
    const MAX_CYCLES: u64 = 1 << 26;
    for (pi, kind) in grown_set().iter().enumerate() {
        // A distinct deterministic pause offset per policy.
        let k = (pi as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 3_000;
        let me = [0.5, 1.5];

        let mut sys = build("2MEM-1", kind, &me);
        sys.prepare_window(WARMUP, TARGET);
        assert!(sys.run_to_boundary(MAX_CYCLES), "warm-up must complete");
        for _ in 0..k {
            sys.tick();
        }
        let snap = sys.snapshot();

        let mut restored = build("2MEM-1", kind, &me);
        restored
            .load_snapshot(&snap)
            .expect("mid-run snapshot must restore into an identical fresh system");
        assert_eq!(restored.now(), sys.now());

        let name = kind.name();
        let out_a = sys.run_window(MAX_CYCLES);
        let out_b = restored.run_window(MAX_CYCLES);
        assert!(!out_a.timed_out && !out_b.timed_out, "[{name}] must finish");
        assert_eq!(out_a.cycles, out_b.cycles, "[{name}] cycles");
        assert_eq!(out_a.ipc, out_b.ipc, "[{name}] IPC");
        assert_eq!(out_a.read_latency, out_b.read_latency, "[{name}] latency");
        assert_eq!(
            fnv1a(&sys.snapshot()),
            fnv1a(&restored.snapshot()),
            "[{name}] final machine state diverged after a mid-run restore"
        );
    }
}
