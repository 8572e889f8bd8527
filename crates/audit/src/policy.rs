//! The policy auditor: scheduler-invariant checks on `Decision` events.
//!
//! For every grant the controller makes, the auditor re-derives — from
//! the candidate set the controller itself reported — which requests the
//! configured policy was *allowed* to choose, and flags decisions outside
//! that set. The ranking rules are re-implemented here from the paper
//! (Zheng et al., ICPP 2008, Sections 2–3 and Figure 1), not imported
//! from `melreq-memctrl`, so a bug in the production policy code cannot
//! hide itself.

use crate::event::{CandidateInfo, Decision, Grant, Submit};
use crate::oracle::{TimingOracle, Violation, ViolationKind};
use melreq_stats::types::Cycle;
use std::collections::BTreeSet;

/// Entries and width of the per-core priority table (Section 3.2: 64
/// pending counts × 10 bits). Deliberately hard-coded rather than shared
/// with `melreq-memctrl`: if the implementation drifts from the paper's
/// hardware cost claim, the audit should fail, not follow.
const TABLE_MAX_PENDING: u32 = 64;
const TABLE_PRIORITY_MAX: f64 = 1023.0;

/// Independent re-derivation of the ME-LREQ table entry
/// `quantize(ME[core] / pending)` in the log domain (see
/// `melreq-memctrl`'s table module for the rationale; the math here must
/// agree bit-for-bit with the table the OS would program).
fn melreq_priority(me: &[f64], core: usize, pending: u32) -> u16 {
    let finite = |v: f64| v.is_finite() && v > 0.0;
    let lmax =
        me.iter().copied().filter(|&v| finite(v)).fold(f64::NEG_INFINITY, |a, v| a.max(v.log2()));
    let lmin = me
        .iter()
        .copied()
        .filter(|&v| finite(v))
        .fold(f64::INFINITY, |a, v| a.min((v / f64::from(TABLE_MAX_PENDING)).log2()));
    let scale =
        if lmax.is_finite() && lmax > lmin { TABLE_PRIORITY_MAX / (lmax - lmin) } else { 1.0 };
    let p = pending.clamp(1, TABLE_MAX_PENDING);
    let v = me[core] / f64::from(p);
    if !v.is_finite() {
        return if v > 0.0 { TABLE_PRIORITY_MAX as u16 } else { 0 };
    }
    if v <= 0.0 || !lmax.is_finite() {
        return 0;
    }
    ((v.log2() - lmin) * scale).round().clamp(0.0, TABLE_PRIORITY_MAX) as u16
}

/// The ME fixed-priority ranking: cores ordered by descending profiled
/// ME, ties to the lower core id; `rank[core]`, 0 = highest.
fn me_ranks(me: &[f64]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..me.len()).collect();
    order.sort_by(|&a, &b| {
        me[b].partial_cmp(&me[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut rank = vec![0u32; me.len()];
    for (pos, &core) in order.iter().enumerate() {
        rank[core] = pos as u32;
    }
    rank
}

/// Hit-first-then-oldest key (smaller = preferred).
fn hf_key(c: &CandidateInfo) -> (bool, u64) {
    (!c.row_hit, c.id)
}

/// Fallback parameter values used when a parameterized policy's stream
/// carries no `PolicyParams` event. Deliberately hard-coded (not imported
/// from `melreq-memctrl`): if the registry's defaults drift, the audit
/// should fail, not follow.
const BLISS_DEFAULT_THRESHOLD: u64 = 4;
const BLISS_DEFAULT_CLEAR: u64 = 10_000;
const TCM_DEFAULT_QUANTUM: u64 = 2_000;

/// Independent re-derivation of the TCM two-cluster ranking: cores at or
/// below the mean read count form the latency cluster (ascending reads,
/// ties to the lower id); the bandwidth cluster follows, its ascending
/// order rotated left by `shuffle` positions.
fn tcm_ranks(interval_reads: &[u64], shuffle: u64) -> Vec<u32> {
    let cores = interval_reads.len();
    let total: u64 = interval_reads.iter().sum();
    let mean = total / cores as u64;
    let mut latency: Vec<usize> = (0..cores).filter(|&c| interval_reads[c] <= mean).collect();
    let mut bandwidth: Vec<usize> = (0..cores).filter(|&c| interval_reads[c] > mean).collect();
    latency.sort_by_key(|&c| (interval_reads[c], c));
    bandwidth.sort_by_key(|&c| (interval_reads[c], c));
    if !bandwidth.is_empty() {
        let by = usize::try_from(shuffle % bandwidth.len() as u64).expect("rotation < len");
        bandwidth.rotate_left(by);
    }
    let mut rank = vec![0u32; cores];
    for (pos, &core) in latency.iter().chain(bandwidth.iter()).enumerate() {
        rank[core] = pos as u32;
    }
    rank
}

/// Replays `Decision` events against the configured policy's rules.
#[derive(Debug, Clone, Default)]
pub struct PolicyAuditor {
    cores: usize,
    policy: &'static str,
    read_first: bool,
    overhead: Cycle,
    configured: bool,
    /// First profile seen — what the ME fixed ranking was built from.
    me_first: Option<Vec<f64>>,
    /// Latest profile — what ME-LREQ's tables currently hold.
    me_latest: Option<Vec<f64>>,
    /// Round-Robin rotation pointer replica.
    rr_next: usize,
    /// Tunable parameters announced via `PolicyParams` (empty until one
    /// is seen; lookups fall back to the hard-coded defaults above).
    params: Vec<(&'static str, u64)>,
    /// BLISS replica: per-core blacklist bits.
    bliss_blacklisted: Vec<bool>,
    /// BLISS replica: the core owning the current grant streak.
    bliss_last_core: Option<u16>,
    /// BLISS replica: consecutive-grant streak length.
    bliss_streak: u64,
    /// BLISS replica: grants since the blacklist was last cleared.
    bliss_grants: u64,
    /// TCM replica: reads granted per core during the current quantum.
    tcm_reads: Vec<u64>,
    /// TCM replica: grants observed in the current quantum.
    tcm_grants: u64,
    /// TCM replica: current rank vector (`rank[core]`, 0 = highest).
    tcm_rank: Vec<u32>,
    /// TCM replica: monotone shuffle counter.
    tcm_shuffle: u64,
    /// Reads submitted minus reads granted, per core.
    reads_outstanding: Vec<i64>,
    /// Age cap (cycles) past which a candidate counts as starved.
    starvation_cap: Cycle,
    /// Ids already reported as starved (one report per request).
    starved: BTreeSet<u64>,
}

impl PolicyAuditor {
    /// An unconfigured auditor with the given starvation cap.
    pub fn new(starvation_cap: Cycle) -> Self {
        PolicyAuditor { starvation_cap, ..Self::default() }
    }

    /// Apply a `CtrlConfig`. The first one configures the auditor; a
    /// later one is a *reconfiguration* — the controller swapped its
    /// scheduling policy mid-run (warmup sharing) — so the policy model
    /// resets to the new policy's initial state (rotation pointer at
    /// core 0, no profile seen yet) while the request-history replicas
    /// survive: the shared buffer is not cleared by a policy swap, and
    /// the outstanding-read counts must keep matching the submit/grant
    /// history.
    pub fn on_config(
        &mut self,
        cores: usize,
        policy: &'static str,
        read_first: bool,
        overhead: Cycle,
    ) {
        if !self.configured || self.cores != cores {
            self.reads_outstanding = vec![0; cores];
        }
        self.cores = cores;
        self.policy = policy;
        self.read_first = read_first;
        self.overhead = overhead;
        self.rr_next = 0;
        self.me_first = None;
        self.me_latest = None;
        self.params = Vec::new();
        self.bliss_blacklisted = vec![false; cores];
        self.bliss_last_core = None;
        self.bliss_streak = 0;
        self.bliss_grants = 0;
        self.tcm_reads = vec![0; cores];
        self.tcm_grants = 0;
        self.tcm_rank = vec![0; cores];
        self.tcm_shuffle = 0;
        self.configured = true;
    }

    /// Apply a `PolicyParams` announcement (the active policy's tunable
    /// parameters, emitted right after its `CtrlConfig`).
    pub fn on_params(&mut self, params: &[(&'static str, u64)]) {
        self.params = params.to_vec();
    }

    /// The announced value of parameter `key`, or `default` when the
    /// stream never announced one.
    fn param(&self, key: &str, default: u64) -> u64 {
        self.params.iter().find(|(k, _)| *k == key).map_or(default, |(_, v)| *v)
    }

    /// Apply a `ProfileUpdate`.
    pub fn on_profile(&mut self, me: &[f64]) {
        if self.me_first.is_none() {
            self.me_first = Some(me.to_vec());
        }
        self.me_latest = Some(me.to_vec());
    }

    /// Observe a `Submit` (tracks per-core outstanding reads).
    pub fn on_submit(&mut self, &Submit { core, write, .. }: &Submit) {
        if !write {
            if let Some(n) = self.reads_outstanding.get_mut(core as usize) {
                *n += 1;
            }
        }
    }

    /// Observe a `Grant` (the request leaves the queue). Read grants are
    /// exactly the policy-selected ones (writes drain outside the
    /// policy), so the BLISS/TCM grant-history replicas advance here.
    pub fn on_grant(&mut self, &Grant { core, write, .. }: &Grant) {
        if write {
            return;
        }
        if let Some(n) = self.reads_outstanding.get_mut(core as usize) {
            *n -= 1;
        }
        match self.policy {
            "BLISS" => {
                if self.bliss_last_core == Some(core) {
                    self.bliss_streak += 1;
                } else {
                    self.bliss_last_core = Some(core);
                    self.bliss_streak = 1;
                }
                if self.bliss_streak >= self.param("threshold", BLISS_DEFAULT_THRESHOLD) {
                    if let Some(b) = self.bliss_blacklisted.get_mut(usize::from(core)) {
                        *b = true;
                    }
                }
                self.bliss_grants += 1;
                if self.bliss_grants >= self.param("clear", BLISS_DEFAULT_CLEAR) {
                    self.bliss_blacklisted.iter_mut().for_each(|b| *b = false);
                    self.bliss_grants = 0;
                }
            }
            "TCM" => {
                if let Some(r) = self.tcm_reads.get_mut(usize::from(core)) {
                    *r += 1;
                }
                self.tcm_grants += 1;
                if self.tcm_grants >= self.param("quantum", TCM_DEFAULT_QUANTUM) {
                    self.tcm_rank = tcm_ranks(&self.tcm_reads, self.tcm_shuffle);
                    self.tcm_shuffle += 1;
                    self.tcm_reads.iter_mut().for_each(|r| *r = 0);
                    self.tcm_grants = 0;
                }
            }
            _ => {}
        }
    }

    /// Check one scheduling decision. `oracle` supplies the replayed
    /// bank state for issuability and row-hit verification.
    pub fn on_decision(&mut self, d: &Decision, oracle: &TimingOracle, out: &mut Vec<Violation>) {
        let mut push = |kind: ViolationKind, detail: String| {
            out.push(Violation { kind, at: d.at, channel: d.channel, detail });
        };
        if !self.configured {
            push(ViolationKind::StreamInvalid, "decision before CtrlConfig".into());
            return;
        }

        // Pending-read counts must match the submit/grant history.
        if d.pending_reads.len() != self.cores {
            push(
                ViolationKind::PendingMismatch,
                format!(
                    "pending vector covers {} cores, expected {}",
                    d.pending_reads.len(),
                    self.cores
                ),
            );
        } else {
            for (core, (&seen, &derived)) in
                d.pending_reads.iter().zip(&self.reads_outstanding).enumerate()
            {
                if i64::from(seen) != derived {
                    push(
                        ViolationKind::PendingMismatch,
                        format!("core {core}: policy saw {seen} pending reads, history implies {derived}"),
                    );
                }
            }
        }

        // Candidate-level checks: issuability, overhead, row-hit claims,
        // starvation.
        for c in &d.candidates {
            if c.arrival + self.overhead > d.at {
                push(
                    ViolationKind::NotIssuable,
                    format!(
                        "req {} offered {} cycles after arrival, overhead is {}",
                        c.id,
                        d.at - c.arrival,
                        self.overhead
                    ),
                );
            }
            if !oracle.can_issue(d.channel, c.bank, d.at) {
                push(
                    ViolationKind::NotIssuable,
                    format!("req {} offered while bank {} is busy", c.id, c.bank),
                );
            }
            let really_hits = oracle.open_row(d.channel, c.bank) == Some(c.row);
            if c.row_hit != really_hits {
                push(
                    ViolationKind::RowHitMismatch,
                    format!(
                        "req {} claims row_hit={}, replay says {}",
                        c.id, c.row_hit, really_hits
                    ),
                );
            }
            if d.at.saturating_sub(c.arrival) > self.starvation_cap && self.starved.insert(c.id) {
                push(
                    ViolationKind::Starvation,
                    format!(
                        "req {} aged {} cycles (cap {})",
                        c.id,
                        d.at - c.arrival,
                        self.starvation_cap
                    ),
                );
            }
        }

        let Some(chosen) = d.candidates.iter().find(|c| c.id == d.chosen) else {
            push(
                ViolationKind::ChosenNotCandidate,
                format!(
                    "granted req {} was not among the {} candidates",
                    d.chosen,
                    d.candidates.len()
                ),
            );
            return;
        };

        if !self.read_first {
            // Plain FCFS: one class, strict arrival order.
            let oldest = d.candidates.iter().map(|c| c.id).min().expect("non-empty");
            if chosen.id != oldest {
                push(
                    ViolationKind::FcfsOrderViolated,
                    format!("granted req {} but req {} is older", chosen.id, oldest),
                );
            }
            return;
        }

        // Read-first class discipline with write-drain hysteresis.
        let has_read = d.candidates.iter().any(|c| !c.write);
        let has_write = d.candidates.iter().any(|c| c.write);
        let want_writes = if d.draining { has_write } else { !has_read && has_write };
        if chosen.write != want_writes {
            push(
                ViolationKind::ClassViolated,
                format!(
                    "granted a {} while {} were required (draining={})",
                    if chosen.write { "write" } else { "read" },
                    if want_writes { "writes" } else { "reads" },
                    d.draining
                ),
            );
            return;
        }

        if want_writes {
            // Writes drain hit-first-then-oldest for every policy.
            let best = d
                .candidates
                .iter()
                .filter(|c| c.write)
                .min_by_key(|c| hf_key(c))
                .expect("write class non-empty");
            if chosen.id != best.id {
                push(
                    ViolationKind::HitFirstViolated,
                    format!("write drain granted req {} over req {}", chosen.id, best.id),
                );
            }
            return;
        }

        let reads: Vec<&CandidateInfo> = d.candidates.iter().filter(|c| !c.write).collect();

        // Within the selected core, the core-selecting schemes serve
        // hit-first-then-oldest (Figure 1: "the first read request of the
        // selected thread"). Not FCFS-RF — it ignores hits by definition —
        // and not extension policies with unknown internal orders.
        let core_selecting = matches!(
            self.policy,
            "HF-RF" | "RR" | "LREQ" | "ME" | "ME-LREQ" | "ME-LREQ-ON" | "TCM"
        ) || self.policy.starts_with("FIX-");
        if core_selecting {
            let best_in_core = reads
                .iter()
                .filter(|c| c.core == chosen.core)
                .min_by_key(|c| hf_key(c))
                .expect("chosen core has a read");
            if chosen.id != best_in_core.id {
                push(
                    ViolationKind::HitFirstViolated,
                    format!(
                        "within core {} req {} beats granted req {}",
                        chosen.core, best_in_core.id, chosen.id
                    ),
                );
            }
        }

        // Core selection per policy.
        let candidate_cores: Vec<u16> = {
            let mut cs: Vec<u16> = reads.iter().map(|c| c.core).collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        };
        let pending_of = |core: u16| d.pending_reads.get(core as usize).copied().unwrap_or(0);
        match self.policy {
            "HF-RF" => {
                let best = reads.iter().min_by_key(|c| hf_key(c)).expect("non-empty");
                if chosen.id != best.id {
                    push(
                        ViolationKind::HitFirstViolated,
                        format!("HF-RF granted req {} over req {}", chosen.id, best.id),
                    );
                }
            }
            "FCFS" => {
                // FCFS-RF: arrival order within the read class.
                let oldest = reads.iter().map(|c| c.id).min().expect("non-empty");
                if chosen.id != oldest {
                    push(
                        ViolationKind::FcfsOrderViolated,
                        format!("FCFS-RF granted req {} but req {} is older", chosen.id, oldest),
                    );
                }
            }
            "RR" => {
                let expect = (0..self.cores)
                    .map(|off| ((self.rr_next + off) % self.cores) as u16)
                    .find(|c| candidate_cores.contains(c))
                    .expect("non-empty");
                if chosen.core != expect {
                    push(
                        ViolationKind::CoreChoiceViolated,
                        format!(
                            "RR pointer at {} demands core {expect}, granted core {}",
                            self.rr_next, chosen.core
                        ),
                    );
                }
                // Track the implementation's pointer, not our expectation,
                // so one violation does not cascade.
                self.rr_next = (usize::from(chosen.core) + 1) % self.cores;
            }
            "LREQ" => {
                let best = candidate_cores
                    .iter()
                    .copied()
                    .min_by_key(|&c| (pending_of(c), c))
                    .expect("non-empty");
                if chosen.core != best {
                    push(
                        ViolationKind::CoreChoiceViolated,
                        format!(
                            "LREQ demands core {best} ({} pending), granted core {} ({} pending)",
                            pending_of(best),
                            chosen.core,
                            pending_of(chosen.core)
                        ),
                    );
                }
            }
            name if name == "ME" || name.starts_with("FIX-") => {
                let ranks = if name == "ME" {
                    self.me_first.as_deref().map(me_ranks)
                } else {
                    // FIX-3210 style: the suffix digits are the core order.
                    name[4..]
                        .chars()
                        .map(|ch| ch.to_digit(10).map(|d| d as usize))
                        .collect::<Option<Vec<usize>>>()
                        .filter(|order| order.len() == self.cores)
                        .map(|order| {
                            let mut rank = vec![u32::MAX; self.cores];
                            for (pos, &core) in order.iter().enumerate() {
                                if let Some(r) = rank.get_mut(core) {
                                    *r = pos as u32;
                                }
                            }
                            rank
                        })
                };
                if let Some(ranks) = ranks {
                    let best = candidate_cores
                        .iter()
                        .copied()
                        .min_by_key(|&c| ranks.get(usize::from(c)).copied().unwrap_or(u32::MAX))
                        .expect("non-empty");
                    if chosen.core != best {
                        push(
                            ViolationKind::CoreChoiceViolated,
                            format!("{name} ranks core {best} first, granted core {}", chosen.core),
                        );
                    }
                }
            }
            "ME-LREQ" | "ME-LREQ-ON" => {
                if let Some(me) = self.me_latest.as_deref() {
                    let prio = |c: u16| melreq_priority(me, usize::from(c), pending_of(c).max(1));
                    let best = candidate_cores.iter().copied().map(&prio).max().expect("non-empty");
                    if prio(chosen.core) != best {
                        push(
                            ViolationKind::TableInconsistent,
                            format!(
                                "granted core {} at table priority {}, but {} was available",
                                chosen.core,
                                prio(chosen.core),
                                best
                            ),
                        );
                    }
                }
            }
            "BLISS" => {
                // Request-level rule: minimize (blacklisted, !row_hit, id).
                let bl = |c: &CandidateInfo| {
                    self.bliss_blacklisted.get(usize::from(c.core)).copied().unwrap_or(false)
                };
                let best = reads.iter().min_by_key(|c| (bl(c), hf_key(c))).expect("non-empty");
                if chosen.id != best.id {
                    let kind = if bl(chosen) != bl(best) {
                        ViolationKind::CoreChoiceViolated
                    } else {
                        ViolationKind::HitFirstViolated
                    };
                    push(
                        kind,
                        format!(
                            "BLISS granted req {} (core {} blacklisted={}) over req {} (core {} blacklisted={})",
                            chosen.id,
                            chosen.core,
                            bl(chosen),
                            best.id,
                            best.core,
                            bl(best)
                        ),
                    );
                }
            }
            "TCM" => {
                let rank_of =
                    |core: u16| self.tcm_rank.get(usize::from(core)).copied().unwrap_or(u32::MAX);
                let best = candidate_cores
                    .iter()
                    .copied()
                    .min_by_key(|&c| (rank_of(c), c))
                    .expect("non-empty");
                if chosen.core != best {
                    push(
                        ViolationKind::CoreChoiceViolated,
                        format!(
                            "TCM ranks core {best} (rank {}) first, granted core {} (rank {})",
                            rank_of(best),
                            chosen.core,
                            rank_of(chosen.core)
                        ),
                    );
                }
            }
            // Extension policies (FQ, STF, ...) get the generic checks only.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Rule, TimingParams};
    use melreq_stats::types::RowOutcome;

    /// Hit-claiming candidates target bank 1 / row 7, which [`oracle`]
    /// really holds open, so the row-hit cross-check stays quiet and the
    /// tests exercise only the invariant they name.
    fn cand(id: u64, core: u16, write: bool, hit: bool) -> CandidateInfo {
        let (bank, row) = if hit { (1, 7) } else { (0, 0) };
        CandidateInfo { id, core, bank, row, write, row_hit: hit, arrival: 0 }
    }

    /// A read from `core` of bank 1 / row 7, as it enters the queue and
    /// as it is granted at cycle 0, leaving the row open.
    fn read(core: u16) -> (Submit, Grant) {
        let (id, channel, bank, row, write, at) = (0, 0, 1, 7, false, 0);
        let submit = Submit { id, core, channel, bank, row, write, at };
        let outcome = RowOutcome::ClosedMiss;
        let grant = Grant {
            id,
            core,
            channel,
            bank,
            row,
            write,
            at,
            keep_open: true,
            outcome,
            data_ready: 0,
        };
        (submit, grant)
    }

    fn oracle() -> TimingOracle {
        let mut o = TimingOracle::new();
        o.on_config(1, 8, TimingParams::default());
        let mut sink = Vec::new();
        o.on_grant(&read(0).1, &mut sink);
        assert!(sink.is_empty(), "fixture grant must be legal: {sink:?}");
        o
    }

    fn auditor(policy: &'static str, read_first: bool, cores: usize) -> PolicyAuditor {
        let mut a = PolicyAuditor::new(1_000_000);
        a.on_config(cores, policy, read_first, 0);
        a
    }

    fn decide(
        a: &mut PolicyAuditor,
        chosen: u64,
        cands: &[CandidateInfo],
        pending: &[u32],
        draining: bool,
    ) -> Vec<Violation> {
        // Keep the outstanding-read replica consistent with `pending`
        // for the cores the test uses.
        a.reads_outstanding = pending.iter().map(|&p| i64::from(p)).collect();
        let mut v = Vec::new();
        let d = Decision {
            channel: 0,
            at: 100,
            draining,
            chosen,
            candidates: cands.to_vec(),
            pending_reads: pending.to_vec(),
            why: (Rule::OnlyCandidate, None),
        };
        a.on_decision(&d, &oracle(), &mut v);
        v
    }

    #[test]
    fn hf_rf_accepts_hit_first_and_flags_inversion() {
        let mut a = auditor("HF-RF", true, 2);
        let cands = [cand(1, 0, false, false), cand(5, 1, false, true)];
        assert!(decide(&mut a, 5, &cands, &[1, 1], false).is_empty());
        let v = decide(&mut a, 1, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::HitFirstViolated), "{v:?}");
    }

    #[test]
    fn plain_fcfs_order_enforced() {
        let mut a = auditor("FCFS", false, 1);
        let cands = [cand(3, 0, false, true), cand(7, 0, true, false)];
        assert!(decide(&mut a, 3, &cands, &[2], false).is_empty());
        let v = decide(&mut a, 7, &cands, &[2], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::FcfsOrderViolated), "{v:?}");
    }

    #[test]
    fn read_first_class_enforced() {
        let mut a = auditor("HF-RF", true, 1);
        let cands = [cand(1, 0, true, true), cand(2, 0, false, false)];
        // Not draining: the read must win even though the write is a hit.
        let v = decide(&mut a, 1, &cands, &[1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::ClassViolated), "{v:?}");
        // Draining: the write must win.
        let v = decide(&mut a, 2, &cands, &[1], true);
        assert!(v.iter().any(|x| x.kind == ViolationKind::ClassViolated), "{v:?}");
        assert!(decide(&mut a, 1, &cands, &[1], true).is_empty());
    }

    #[test]
    fn chosen_not_candidate_detected() {
        let mut a = auditor("HF-RF", true, 1);
        let cands = [cand(1, 0, false, false)];
        let v = decide(&mut a, 99, &cands, &[1], false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::ChosenNotCandidate);
    }

    #[test]
    fn round_robin_rotation_enforced() {
        let mut a = auditor("RR", true, 4);
        let cands = [cand(0, 0, false, false), cand(1, 1, false, false), cand(2, 3, false, false)];
        let p = [1, 1, 0, 1];
        assert!(decide(&mut a, 0, &cands, &p, false).is_empty()); // pointer 0 → core 0
        assert!(decide(&mut a, 1, &cands, &p, false).is_empty()); // → core 1
                                                                  // Core 2 has no candidate: pointer 2 must skip to core 3.
        let v = decide(&mut a, 0, &cands, &p, false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");
    }

    #[test]
    fn lreq_core_choice_enforced() {
        let mut a = auditor("LREQ", true, 2);
        let cands = [cand(0, 0, false, true), cand(1, 1, false, false)];
        assert!(decide(&mut a, 1, &cands, &[10, 2], false).is_empty());
        let v = decide(&mut a, 0, &cands, &[10, 2], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");
    }

    #[test]
    fn me_and_fix_rankings_enforced() {
        let mut a = auditor("ME", true, 2);
        a.on_profile(&[1.0, 50.0]);
        let cands = [cand(0, 0, false, true), cand(1, 1, false, false)];
        assert!(decide(&mut a, 1, &cands, &[1, 1], false).is_empty());
        let v = decide(&mut a, 0, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");

        let mut a = auditor("FIX-10", true, 2);
        assert!(decide(&mut a, 1, &cands, &[1, 1], false).is_empty());
        let v = decide(&mut a, 0, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");
    }

    #[test]
    fn me_lreq_table_consistency() {
        let mut a = auditor("ME-LREQ", true, 2);
        a.on_profile(&[16.0, 4.0]);
        let cands = [cand(0, 0, false, true), cand(1, 1, false, false)];
        // 16/8 = 2 < 4/1 = 4: core 1 must win.
        assert!(decide(&mut a, 1, &cands, &[8, 1], false).is_empty());
        let v = decide(&mut a, 0, &cands, &[8, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::TableInconsistent), "{v:?}");
        // At equal pending, higher ME wins.
        assert!(decide(&mut a, 0, &cands, &[2, 2], false).is_empty());
    }

    #[test]
    fn me_lreq_accepts_quantization_ties() {
        let mut a = auditor("ME-LREQ", true, 2);
        // Ratios so close the 10-bit grid collapses them: either core is
        // a legal pick.
        a.on_profile(&[1000.0, 999.99]);
        let cands = [cand(0, 0, false, false), cand(1, 1, false, false)];
        assert!(decide(&mut a, 0, &cands, &[1, 1], false).is_empty());
        assert!(decide(&mut a, 1, &cands, &[1, 1], false).is_empty());
    }

    #[test]
    fn bliss_blacklist_enforced() {
        let mut a = auditor("BLISS", true, 2);
        a.on_params(&[("threshold", 2), ("clear", 1_000)]);
        // Two consecutive read grants to core 0 blacklist it.
        a.on_grant(&read(0).1);
        a.on_grant(&read(0).1);
        assert!(a.bliss_blacklisted[0]);
        let cands = [cand(0, 0, false, true), cand(1, 1, false, false)];
        // Core 1's miss must beat blacklisted core 0's row hit.
        assert!(decide(&mut a, 1, &cands, &[1, 1], false).is_empty());
        let v = decide(&mut a, 0, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");
        // Among equally non-blacklisted candidates the hit-first order holds.
        a.bliss_blacklisted = vec![false, false];
        let v = decide(&mut a, 0, &cands, &[1, 1], false);
        assert!(v.is_empty(), "{v:?}");
        let v = decide(&mut a, 1, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::HitFirstViolated), "{v:?}");
    }

    #[test]
    fn bliss_defaults_apply_without_params_event() {
        let mut a = auditor("BLISS", true, 2);
        // Default threshold is 4: three grants must not blacklist.
        for _ in 0..3 {
            a.on_grant(&read(0).1);
        }
        assert!(!a.bliss_blacklisted[0]);
        a.on_grant(&read(0).1);
        assert!(a.bliss_blacklisted[0]);
    }

    #[test]
    fn tcm_rank_enforced_after_recluster() {
        let mut a = auditor("TCM", true, 2);
        a.on_params(&[("quantum", 4)]);
        // One quantum: core 1 heavy (3 reads), core 0 light (1 read).
        a.on_grant(&read(1).1);
        a.on_grant(&read(1).1);
        a.on_grant(&read(1).1);
        a.on_grant(&read(0).1);
        // Mean 2: core 0 forms the latency cluster, core 1 the bandwidth one.
        assert_eq!(a.tcm_rank, vec![0, 1]);
        let cands = [cand(0, 0, false, false), cand(1, 1, false, true)];
        assert!(decide(&mut a, 0, &cands, &[1, 1], false).is_empty());
        let v = decide(&mut a, 1, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");
    }

    #[test]
    fn tcm_ranks_shuffle_rotates_bandwidth_cluster() {
        // Three heavy cores (1, 2, 3) against one idle core 0.
        let reads = [0u64, 10, 11, 12];
        let r0 = tcm_ranks(&reads, 0);
        let r1 = tcm_ranks(&reads, 1);
        assert_eq!(r0, vec![0, 1, 2, 3]);
        assert_eq!(r1, vec![0, 3, 1, 2]);
        // The latency cluster is untouched by the shuffle.
        assert_eq!(r0[0], r1[0]);
    }

    #[test]
    fn starvation_reported_once() {
        let mut a = auditor("HF-RF", true, 1);
        a.starvation_cap = 10;
        let mut c = cand(0, 0, false, false);
        c.arrival = 0; // decision at 100 → aged 100 > 10
        let v = decide(&mut a, 0, &[c], &[1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::Starvation), "{v:?}");
        let v = decide(&mut a, 0, &[c], &[1], false);
        assert!(!v.iter().any(|x| x.kind == ViolationKind::Starvation), "{v:?}");
    }

    #[test]
    fn reconfig_keeps_history_but_resets_policy_model() {
        // Warm up under HF-RF, accumulate outstanding reads and an ME
        // profile, then swap to RR mid-run.
        let mut a = auditor("HF-RF", true, 2);
        a.on_profile(&[9.0, 1.0]);
        a.on_submit(&read(0).0);
        a.on_submit(&read(0).0);
        a.on_submit(&read(1).0);
        a.on_config(2, "RR", true, 0);
        // History survives the swap...
        assert_eq!(a.reads_outstanding, vec![2, 1]);
        // ...but the policy model is the new policy's initial state.
        assert!(a.me_first.is_none() && a.me_latest.is_none());
        assert_eq!(a.rr_next, 0);
        // The fresh RR pointer demands core 0 first.
        let cands = [cand(0, 0, false, false), cand(1, 1, false, false)];
        assert!(decide(&mut a, 0, &cands, &[1, 1], false).is_empty());
        let v = decide(&mut a, 0, &cands, &[1, 1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoreChoiceViolated), "{v:?}");
        // A different core count is a different machine: counts reset.
        a.on_config(4, "HF-RF", true, 0);
        assert_eq!(a.reads_outstanding, vec![0, 0, 0, 0]);
    }

    #[test]
    fn pending_mismatch_detected() {
        let mut a = auditor("HF-RF", true, 2);
        let cands = [cand(0, 0, false, false)];
        let mut v = Vec::new();
        a.reads_outstanding = vec![3, 0];
        let d = Decision {
            channel: 0,
            at: 100,
            draining: false,
            chosen: 0,
            candidates: cands.to_vec(),
            pending_reads: vec![2, 0],
            why: (Rule::OnlyCandidate, None),
        };
        a.on_decision(&d, &oracle(), &mut v);
        assert!(v.iter().any(|x| x.kind == ViolationKind::PendingMismatch), "{v:?}");
    }

    #[test]
    fn overhead_not_elapsed_is_not_issuable() {
        let mut a = auditor("HF-RF", true, 1);
        a.overhead = 50;
        let mut c = cand(0, 0, false, false);
        c.arrival = 80; // decision at 100: only 20 < 50 cycles old
        let v = decide(&mut a, 0, &[c], &[1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::NotIssuable), "{v:?}");
    }

    #[test]
    fn row_hit_claim_checked_against_replay() {
        let mut a = auditor("HF-RF", true, 1);
        // Claims a hit on bank 0, which the replay holds closed.
        let c = CandidateInfo {
            id: 0,
            core: 0,
            bank: 0,
            row: 0,
            write: false,
            row_hit: true,
            arrival: 0,
        };
        let v = decide(&mut a, 0, &[c], &[1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::RowHitMismatch), "{v:?}");
        // And the inverse lie: denies the hit bank 1 really has.
        let c = CandidateInfo {
            id: 1,
            core: 0,
            bank: 1,
            row: 7,
            write: false,
            row_hit: false,
            arrival: 0,
        };
        let v = decide(&mut a, 1, &[c], &[1], false);
        assert!(v.iter().any(|x| x.kind == ViolationKind::RowHitMismatch), "{v:?}");
    }
}
