//! Observability regressions: attaching the trace collector, the epoch
//! sampler, or both must not perturb the simulation, and the rule each
//! grant is attributed to is read off the policy that made it.
//!
//! The observed run fans the same audit tap out to both the auditor and
//! the collector, so the strongest available check is free: the FNV-1a
//! hash over the full audit event stream must match the un-observed run
//! bit for bit, along with every paper metric. An observer that ever
//! fed back into scheduling (e.g. by consuming the ME-LREQ tie-break
//! RNG) would shift at least one grant and fail the hash comparison.

use melreq_core::experiment::{ObserveOptions, ProfileCache, CANONICAL_WARMUP_POLICY};
use melreq_core::{run_mix_audited, run_mix_observed, run_tapped, Taps};
use melreq_core::{ExperimentOptions, RunControl, System, SystemConfig};
use melreq_memctrl::policy::{PolicyKind, SchedulerPolicy};
use melreq_memctrl::registry;
use melreq_obs::{Collector, Rule, RuleTotals, DEFAULT_TRACE_CAPACITY};
use melreq_stats::types::CoreId;
use melreq_workloads::mix_by_name;
use proptest::prelude::*;

/// The rules a registry entry's own core key may be credited with; the
/// controller's class labels and the chain's last two links (`row-hit-first`,
/// `fcfs-tiebreak`) are open to every policy.
fn core_rules(id: &str) -> &'static [Rule] {
    match id {
        "me" | "fix-0123" | "fix-3210" => &[Rule::MeRank],
        "rr" => &[Rule::RoundRobin],
        "lreq" => &[Rule::LreqCount],
        "me-lreq" | "me-lreq-on" => {
            &[Rule::MeRank, Rule::LreqCount, Rule::MeLreqRatio, Rule::RandomTie]
        }
        "fq" => &[Rule::FqStartTag],
        "stf" => &[Rule::StfDebt],
        "bliss" => &[Rule::BlissBlacklist],
        "tcm" => &[Rule::TcmCluster],
        _ => &[],
    }
}

#[test]
fn tracing_and_sampling_are_inert_for_every_policy() {
    let mix = mix_by_name("2MEM-1");
    let observe = ObserveOptions { sample_epoch: Some(2_000), ..ObserveOptions::default() };
    for desc in registry() {
        let (policy, name) = (&desc.default_kind(), desc.display);
        // Fresh caches per arm: shared profile state must not be what
        // makes the two runs agree.
        let opts = ExperimentOptions::quick();
        let plain_cache = ProfileCache::new();
        let (plain, plain_audit) = run_mix_audited(&mix, policy, &opts, &plain_cache);
        let obs_cache = ProfileCache::new();
        let (ctl, taps) = (RunControl::default(), Taps { audit: true, observe: Some(observe) });
        let (observed, heard) = run_tapped(&mix, policy, &opts, &obs_cache, &ctl, taps);
        let obs_audit = heard.audit.expect("audited");
        let collector = heard.collector.expect("observed");

        assert!(plain_audit.is_clean(), "[{name}] plain audit:\n{}", plain_audit.render());
        assert!(obs_audit.is_clean(), "[{name}] observed audit:\n{}", obs_audit.render());
        assert_eq!(
            plain_audit.stream_hash, obs_audit.stream_hash,
            "[{name}] tracing changed the audit event stream"
        );
        assert_eq!(plain_audit.events, obs_audit.events, "[{name}] event counts diverged");
        assert_eq!(plain.sim_cycles, observed.sim_cycles, "[{name}] cycle counts diverged");
        assert_eq!(plain.ipc_multi, observed.ipc_multi, "[{name}] per-core IPC diverged");
        assert_eq!(plain.read_latency, observed.read_latency, "[{name}] read latency diverged");
        assert_eq!(plain.smt_speedup, observed.smt_speedup, "[{name}] SMT speedup diverged");
        assert_eq!(plain.unfairness, observed.unfairness, "[{name}] unfairness diverged");

        let c = collector.lock().expect("collector");
        let decisions: u64 = c.rule_totals().iter().map(|(_, t)| t.total()).sum();
        assert!(decisions > 0, "[{name}] collector saw no decisions");
        assert!(!c.series().is_empty(), "[{name}] sampler produced no rows");
        let (active, totals) = c.active_rule_totals().expect("active policy totals");
        let identity = policy.build(&[1.0, 1.0], 2, 0).name();
        assert_eq!(active, identity, "[{name}] provenance bucketed under the wrong policy");
        assert!(totals.total() > 0, "[{name}] no grants attributed to a rule");
        let shared = [
            Rule::OnlyCandidate,
            Rule::ReadFirst,
            Rule::RowHitFirst,
            Rule::FcfsTiebreak,
            Rule::WriteDrain,
            Rule::WriteFallback,
        ];
        for (rule, grants) in totals.nonzero() {
            assert!(
                shared.contains(&rule) || core_rules(desc.id).contains(&rule),
                "[{name}] {grants} grants attributed to {}, a rule it cannot reach",
                rule.name()
            );
        }
    }
}

/// `compare 4MEM-1 --provenance` at `ExperimentOptions::quick()` over the
/// whole registry, one line per policy. Captured at f3b694c — the last
/// commit where `melreq-obs` re-derived each rule from its own replica of
/// the policy — except that FQ and STF could only say `external` there
/// (852 and 720 grants): their rows are this tree's, and must still sum
/// to those counts.
const PROVENANCE_4MEM_1: &str = "\
HF-RF: only-candidate 3365, read-first 605, fcfs-tiebreak 1138, write-drain 316, write-fallback 638
ME: only-candidate 3066, read-first 569, fcfs-tiebreak 281, me-rank 726, write-drain 245, write-fallback 657
RR: only-candidate 2304, read-first 450, fcfs-tiebreak 218, round-robin 546, write-drain 189, write-fallback 493
LREQ: only-candidate 2454, read-first 450, fcfs-tiebreak 248, lreq-count 578, write-drain 243, write-fallback 494
ME-LREQ: only-candidate 2541, read-first 457, fcfs-tiebreak 240, me-rank 125, me-lreq-ratio 478, write-drain 274, write-fallback 478
FCFS: only-candidate 2862, fcfs-tiebreak 786, write-fallback 503
FCFS-RF: only-candidate 2243, read-first 393, fcfs-tiebreak 770, write-drain 200, write-fallback 444
ME-LREQ-ON: only-candidate 2406, read-first 422, fcfs-tiebreak 237, me-rank 13, lreq-count 379, me-lreq-ratio 87, random-tie 84, write-drain 240, write-fallback 453
FIX-0123: only-candidate 3031, read-first 545, fcfs-tiebreak 303, me-rank 680, write-drain 223, write-fallback 636
FIX-3210: only-candidate 2654, read-first 478, fcfs-tiebreak 253, me-rank 657, write-drain 227, write-fallback 523
FQ: only-candidate 2506, read-first 497, fcfs-tiebreak 242, fq-start-tag 610, write-drain 167, write-fallback 579
STF: only-candidate 2260, read-first 398, fcfs-tiebreak 201, stf-debt 519, write-drain 169, write-fallback 446
BLISS: only-candidate 2279, read-first 396, fcfs-tiebreak 735, bliss-blacklist 12, write-drain 208, write-fallback 441
TCM: only-candidate 2424, read-first 464, fcfs-tiebreak 224, tcm-cluster 570, write-drain 154, write-fallback 552
";

#[test]
fn rule_totals_match_the_replica_they_replaced() {
    let mix = mix_by_name("4MEM-1");
    let cache = ProfileCache::new();
    let (opts, observe) = (ExperimentOptions::quick(), ObserveOptions::default());
    let mut table = String::new();
    for desc in registry() {
        let (_, c) = run_mix_observed(&mix, &desc.default_kind(), &opts, &observe, &cache);
        let c = c.lock().expect("collector");
        let (_, totals) = c.active_rule_totals().expect("active policy totals");
        let rows: Vec<String> =
            totals.nonzero().map(|(rule, n)| format!("{} {n}", rule.name())).collect();
        table.push_str(&format!("{}: {}\n", desc.display, rows.join(", ")));
        let contested: u64 = [Rule::RowHitFirst, Rule::FcfsTiebreak]
            .iter()
            .chain(core_rules(desc.id))
            .map(|&r| totals.get(r))
            .sum();
        match desc.id {
            "fq" => assert_eq!(contested, 852, "FQ's former `external` grants"),
            "stf" => assert_eq!(contested, 720, "STF's former `external` grants"),
            _ => {}
        }
    }
    let pinned: Vec<&str> = PROVENANCE_4MEM_1.lines().collect();
    assert_eq!(table.lines().collect::<Vec<_>>(), pinned);
}

fn build(mix_name: &str, kind: &PolicyKind) -> System {
    let mix = mix_by_name(mix_name);
    let me: Vec<f64> = (0..mix.cores()).map(|i| 1.0 + i as f64).collect();
    System::new(SystemConfig::paper(mix.cores(), kind.clone()), mix.eval_streams(0), &me)
}

/// Attach a fresh collector to `sys`, tick it `ticks` cycles, run it to
/// the end of its window if `finish`, and return the totals collected.
fn observe(sys: &mut System, ticks: u64, finish: bool) -> RuleTotals {
    let (handle, collector) = Collector::shared(DEFAULT_TRACE_CAPACITY);
    sys.attach_audit(handle);
    (0..ticks).for_each(|_| sys.tick());
    assert!(!finish || !sys.run_window(1 << 26).timed_out, "window must finish");
    let c = collector.lock().expect("collector");
    c.active_rule_totals().map(|(_, t)| t.clone()).unwrap_or_default()
}

/// A collector attached after `load_snapshot` explains the continuation
/// exactly as one that watched from reset would: the rule comes from the
/// restored policy itself, not from a replica that restarts at reset.
#[test]
fn rule_totals_are_exact_across_a_snapshot_restore() {
    const HALF: u64 = 6_000;
    for token in ["rr", "bliss(threshold=2,clear=50)", "tcm(quantum=100)"] {
        let kind = PolicyKind::parse(token).expect("registered policy");
        let fresh = || {
            let mut sys = build("4MEM-1", &kind);
            sys.prepare_window(0, 8_000);
            sys
        };
        let whole = observe(&mut fresh(), HALF, true);
        let mut first = fresh();
        let before = observe(&mut first, HALF, false);
        let mut rest = build("4MEM-1", &kind);
        rest.load_snapshot(&first.snapshot()).expect("snapshot restores");
        let after = observe(&mut rest, 0, true);
        assert!(before.total() > 0 && after.total() > 0, "[{token}] both halves must grant");
        for rule in Rule::ALL {
            let split = before.get(rule) + after.get(rule);
            assert_eq!(whole.get(rule), split, "[{token}] {} across the restore", rule.name());
        }
    }
}

/// An out-of-tree policy states its core key and nothing else.
#[derive(Debug)]
struct FewestFirstDescending;

impl SchedulerPolicy for FewestFirstDescending {
    fn name(&self) -> &'static str {
        "FEWEST-DESC"
    }
    fn core_key(&self, core: CoreId, pending: &[u32]) -> (u64, u16) {
        (u64::from(pending[core.index()]), u16::MAX - core.0)
    }
}

#[test]
fn out_of_tree_policies_are_explained_by_the_generic_core_rule() {
    let (mix, opts) = (mix_by_name("4MEM-1"), ExperimentOptions::quick());
    let flat = vec![1.0; mix.cores()];
    // The measured window of a canonical warm-up, `swap` installing the
    // policy at the boundary.
    let totals = |swap: &dyn Fn(&mut System)| {
        let cfg = SystemConfig::paper(mix.cores(), CANONICAL_WARMUP_POLICY);
        let mut sys = System::new(cfg, mix.eval_streams(opts.eval_slice), &flat);
        sys.prepare_window(opts.warmup, opts.instructions);
        assert!(sys.run_to_boundary(1 << 26), "the warm-up must end");
        swap(&mut sys);
        observe(&mut sys, 0, true)
    };
    let custom = totals(&|sys| sys.swap_policy_boxed(Box::new(FewestFirstDescending), &flat));
    assert!(custom.get(Rule::CoreKey) > 0, "no grant credited to core-key: {custom:?}");
    // Much the same order under its registered name is credited to that name.
    let lreq = totals(&|sys| sys.swap_policy(&PolicyKind::Lreq, &flat));
    assert_eq!(lreq.get(Rule::CoreKey), 0, "{lreq:?}");
    assert!(lreq.get(Rule::LreqCount) > 0, "{lreq:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The epoch sampler reads identical state under the fast-forward
    /// and cycle-exact kernels: every `EpochRow` — IPC, pending reads,
    /// ME, queue depth, bus utilization, traffic rates — must match
    /// bit for bit at every sample point, for any epoch length and any
    /// paper policy. This pins the `step_window` clamp that forces the
    /// fast-forward kernel to tick sampling boundaries explicitly.
    #[test]
    fn epoch_series_is_kernel_independent(
        epoch in 500u64..6_000,
        policy_pick in 0usize..5,
    ) {
        let policy = PolicyKind::figure2_set()[policy_pick].clone();
        let opts = ExperimentOptions::quick();
        // The shape of an observed harness run, under each kernel.
        let run = |tick_exact: bool| {
            let mut sys = build("2MEM-1", &PolicyKind::HfRf);
            sys.set_tick_exact(tick_exact);
            let (handle, collector) = Collector::shared(DEFAULT_TRACE_CAPACITY);
            sys.attach_audit(handle);
            sys.attach_sampler(collector.clone(), epoch);
            sys.prepare_window(opts.warmup, opts.instructions);
            assert!(sys.run_to_boundary(1 << 26), "warm-up must reach the boundary");
            sys.swap_policy(&policy, &[0.4, 0.1]);
            assert!(!sys.run_window(1 << 26).timed_out, "window must finish");
            let series = collector.lock().expect("collector").series().to_vec();
            (sys.now(), series)
        };
        let (fast_cycles, fast) = run(false);
        let (exact_cycles, exact) = run(true);
        prop_assert_eq!(fast_cycles, exact_cycles, "cycle counts diverged");
        prop_assert!(!fast.is_empty(), "sampler produced no rows");
        prop_assert_eq!(fast, exact, "epoch series diverged between kernels (epoch {})", epoch);
    }
}
