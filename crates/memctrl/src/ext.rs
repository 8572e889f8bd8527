//! Extension policies beyond the paper's evaluated set.
//!
//! The paper's related-work section points at two contemporaneous fair
//! memory schedulers — Nesbit et al.'s *Fair Queuing CMP Memory Systems*
//! (MICRO'06) and Mutlu & Moscibroda's *Stall-Time Fair Memory Access
//! Scheduling* (MICRO'07) — and distinguishes ME-LREQ as performance-
//! oriented rather than fairness-oriented. This module implements
//! simplified versions of both so the comparison can actually be run
//! (`examples/` accept any [`SchedulerPolicy`]):
//!
//! * [`FairQueueing`] — start-time fair queueing over memory service: each
//!   core owns a virtual clock that advances by `chunk / share` per
//!   granted request; the candidate core with the smallest virtual start
//!   time wins. Long-term, every core receives its share of memory
//!   service regardless of demand.
//! * [`StallTimeFair`] — a slowdown-balancing heuristic: the controller
//!   tracks per-core accumulated queueing delay (a proxy for the extra
//!   stall a core suffers from sharing) and serves the core with the
//!   largest backlog-weighted delay.
//!
//! Both are deliberately reduced to the controller-visible signals this
//! simulator models; they are faithful to the *objective* of the
//! original proposals, not to their full mechanisms.

use crate::policy::{Candidate, SchedulerPolicy};
use melreq_stats::types::{CoreId, Cycle};

/// Start-time fair queueing over memory service (FQ-style).
///
/// Classic SFQ bookkeeping: each core has a per-flow virtual finish time
/// `vt[i]`; a request's *start tag* is `max(vt[i], V)` where `V` is the
/// global virtual clock (the start tag of the last grant). The candidate
/// with the smallest start tag wins, and the winner's flow clock
/// advances by `QUANTUM / share`. The `max(·, V)` is what prevents a
/// long-idle core from monopolizing the bus with its stale clock when it
/// returns.
#[derive(Debug, Clone)]
pub struct FairQueueing {
    /// Per-core virtual finish times (in service quanta).
    virtual_time: Vec<u64>,
    /// Global virtual clock: start tag of the most recent grant.
    global_vt: u64,
    /// Per-core service shares (relative weights; equal by default).
    share: Vec<u32>, // melreq-allow(S01): construction weights, identical across snapshot peers
}

impl FairQueueing {
    /// Equal-share fair queueing over `cores` cores.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        FairQueueing { virtual_time: vec![0; cores], global_vt: 0, share: vec![1; cores] }
    }

    /// Weighted shares (e.g. QoS classes). `share[i] = 2` gives core `i`
    /// twice the memory service of a `share = 1` core under contention.
    pub fn with_shares(shares: Vec<u32>) -> Self {
        assert!(!shares.is_empty(), "need at least one core");
        assert!(shares.iter().all(|&s| s > 0), "shares must be positive");
        FairQueueing { virtual_time: vec![0; shares.len()], global_vt: 0, share: shares }
    }

    /// A core's virtual clock (test/diagnostic access).
    pub fn virtual_time(&self, core: CoreId) -> u64 {
        self.virtual_time[core.index()]
    }

    #[inline]
    fn start_tag(&self, core: CoreId) -> u64 {
        self.virtual_time[core.index()].max(self.global_vt)
    }
}

/// Service quantum charged per granted request, scaled by 1/share.
const QUANTUM: u64 = 64;

impl SchedulerPolicy for FairQueueing {
    fn name(&self) -> &'static str {
        "FQ"
    }

    fn select(&mut self, cands: &[Candidate], _pending: &[u32]) -> usize {
        let best_core = cands
            .iter()
            .map(|c| c.core)
            .min_by_key(|c| (self.start_tag(*c), c.index()))
            .expect("non-empty");
        cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.core == best_core)
            .min_by_key(|(_, c)| (!c.row_hit, c.id))
            .map(|(i, _)| i)
            .expect("selected core has a candidate")
    }

    fn note_grant(&mut self, granted: &Candidate) {
        let i = granted.core.index();
        let start = self.start_tag(granted.core);
        self.global_vt = start;
        self.virtual_time[i] = start + QUANTUM / self.share[i] as u64;
    }

    fn save_state(&self, enc: &mut melreq_snap::Enc) {
        enc.u64s(&self.virtual_time);
        enc.u64(self.global_vt);
    }

    fn load_state(&mut self, dec: &mut melreq_snap::Dec<'_>) -> Result<(), melreq_snap::SnapError> {
        let vt = dec.u64s()?;
        if vt.len() != self.virtual_time.len() {
            return Err(melreq_snap::SnapError::Invalid("fair-queueing core count mismatch"));
        }
        self.virtual_time = vt;
        self.global_vt = dec.u64()?;
        Ok(())
    }
}

/// Stall-time-fairness heuristic (STFM-style).
///
/// The controller cannot see core stall cycles directly, but a request's
/// queueing delay is the memory-side component of the extra stall its
/// core suffers from sharing. This policy serves the core whose
/// *accumulated queueing-delay debt* is largest, decaying the debt on
/// service so the measure tracks the recent past.
#[derive(Debug, Clone)]
pub struct StallTimeFair {
    debt: Vec<f64>,
    last_now: Cycle,
}

impl StallTimeFair {
    /// A balancer over `cores` cores.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        StallTimeFair { debt: vec![0.0; cores], last_now: 0 }
    }

    /// A core's current delay debt (test/diagnostic access).
    pub fn debt(&self, core: CoreId) -> f64 {
        self.debt[core.index()]
    }

    /// Accrue queueing delay: each core's debt grows with its pending
    /// read count per cycle (total waiting ≈ Σ queue residence).
    pub fn accrue(&mut self, pending: &[u32], now: Cycle) {
        let dt = now.saturating_sub(self.last_now) as f64;
        self.last_now = now;
        for (d, &p) in self.debt.iter_mut().zip(pending) {
            *d += dt * p as f64;
        }
    }
}

impl SchedulerPolicy for StallTimeFair {
    fn name(&self) -> &'static str {
        "STF"
    }

    fn select(&mut self, cands: &[Candidate], pending: &[u32]) -> usize {
        // `select` is invoked once per grant opportunity; use it as the
        // accrual tick too (dt = 1 grant epoch).
        self.accrue(pending, self.last_now + 1);
        let best_core = cands
            .iter()
            .map(|c| c.core)
            .max_by(|a, b| {
                self.debt[a.index()]
                    .partial_cmp(&self.debt[b.index()])
                    .expect("debts are finite")
                    .then(b.index().cmp(&a.index()))
            })
            .expect("non-empty");
        cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.core == best_core)
            .min_by_key(|(_, c)| (!c.row_hit, c.id))
            .map(|(i, _)| i)
            .expect("selected core has a candidate")
    }

    fn note_grant(&mut self, granted: &Candidate) {
        // Serving a request repays part of the core's debt.
        let i = granted.core.index();
        self.debt[i] = (self.debt[i] - QUANTUM as f64).max(0.0);
    }

    fn save_state(&self, enc: &mut melreq_snap::Enc) {
        enc.f64s(&self.debt);
        enc.u64(self.last_now);
    }

    fn load_state(&mut self, dec: &mut melreq_snap::Dec<'_>) -> Result<(), melreq_snap::SnapError> {
        let debt = dec.f64s()?;
        if debt.len() != self.debt.len() {
            return Err(melreq_snap::SnapError::Invalid("stall-time-fair core count mismatch"));
        }
        self.debt = debt;
        self.last_now = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqId;

    fn cand(id: u64, core: u16, hit: bool) -> Candidate {
        Candidate { id: ReqId(id), core: CoreId(core), row_hit: hit }
    }

    #[test]
    fn fq_alternates_between_equal_cores() {
        let mut p = FairQueueing::new(2);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        let mut grants = [0u32; 2];
        for _ in 0..10 {
            let i = p.select(&cands, &[1, 1]);
            grants[cands[i].core.index()] += 1;
            p.note_grant(&cands[i]);
        }
        assert_eq!(grants, [5, 5], "equal shares must split service evenly");
    }

    #[test]
    fn fq_respects_weighted_shares() {
        let mut p = FairQueueing::with_shares(vec![2, 1]);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        let mut grants = [0u32; 2];
        for _ in 0..12 {
            let i = p.select(&cands, &[1, 1]);
            grants[cands[i].core.index()] += 1;
            p.note_grant(&cands[i]);
        }
        assert_eq!(grants, [8, 4], "2:1 shares must yield 2:1 service");
    }

    #[test]
    fn fq_idle_core_cannot_monopolize_on_return() {
        let mut p = FairQueueing::new(2);
        // Core 0 runs alone for a while.
        let solo = [cand(0, 0, false)];
        for _ in 0..100 {
            let i = p.select(&solo, &[1, 0]);
            p.note_grant(&solo[i]);
        }
        // Core 1 returns: it must not win 100 grants in a row; the
        // fast-forward clamps its deficit.
        let both = [cand(0, 0, false), cand(1, 1, false)];
        let mut core1_streak = 0;
        loop {
            let i = p.select(&both, &[1, 1]);
            if both[i].core == CoreId(1) {
                core1_streak += 1;
                p.note_grant(&both[i]);
            } else {
                break;
            }
            assert!(core1_streak < 5, "returning core monopolized the bus");
        }
    }

    #[test]
    fn fq_uses_hit_first_within_core() {
        let mut p = FairQueueing::new(1);
        let cands = [cand(0, 0, false), cand(3, 0, true)];
        assert_eq!(p.select(&cands, &[2]), 1);
    }

    #[test]
    fn stf_prefers_the_most_delayed_core() {
        let mut p = StallTimeFair::new(2);
        // Core 1 has had 10 pending reads queued for 100 cycles.
        p.accrue(&[1, 10], 100);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        assert_eq!(cands[p.select(&cands, &[1, 10])].core, CoreId(1));
        assert!(p.debt(CoreId(1)) > p.debt(CoreId(0)));
    }

    #[test]
    fn stf_debt_decays_with_service() {
        let mut p = StallTimeFair::new(2);
        p.accrue(&[0, 2], 100);
        let before = p.debt(CoreId(1));
        p.note_grant(&cand(0, 1, false));
        assert!(p.debt(CoreId(1)) < before);
        assert!(p.debt(CoreId(1)) >= 0.0);
    }

    #[test]
    fn policies_report_names() {
        assert_eq!(FairQueueing::new(1).name(), "FQ");
        assert_eq!(StallTimeFair::new(1).name(), "STF");
    }

    #[test]
    fn fq_snapshot_round_trips() {
        let mut p = FairQueueing::with_shares(vec![2, 1]);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        for _ in 0..7 {
            let i = p.select(&cands, &[1, 1]);
            p.note_grant(&cands[i]);
        }
        let mut enc = melreq_snap::Enc::new();
        p.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut q = FairQueueing::with_shares(vec![2, 1]);
        let mut dec = melreq_snap::Dec::new(&bytes);
        q.load_state(&mut dec).expect("load");
        assert!(dec.is_exhausted(), "trailing bytes after fq state");
        assert_eq!(p.virtual_time(CoreId(0)), q.virtual_time(CoreId(0)));
        assert_eq!(p.select(&cands, &[1, 1]), q.select(&cands, &[1, 1]));
    }

    #[test]
    fn stf_snapshot_round_trips() {
        let mut p = StallTimeFair::new(2);
        p.accrue(&[3, 1], 250);
        p.note_grant(&cand(0, 0, false));
        let mut enc = melreq_snap::Enc::new();
        p.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut q = StallTimeFair::new(2);
        q.load_state(&mut melreq_snap::Dec::new(&bytes)).expect("load");
        assert_eq!(p.debt(CoreId(0)).to_bits(), q.debt(CoreId(0)).to_bits());
        assert_eq!(p.debt(CoreId(1)).to_bits(), q.debt(CoreId(1)).to_bits());
        let cands = [cand(5, 0, false), cand(6, 1, false)];
        assert_eq!(p.select(&cands, &[1, 1]), q.select(&cands, &[1, 1]));
    }
}
