//! The combining sink: timing oracle + policy auditor + stream hash.

use crate::event::{AuditEvent, AuditHandle, AuditSink};
use crate::oracle::{GrantFacts, TimingOracle, Violation, ViolationKind};
use crate::policy::{DecisionFacts, PolicyAuditor};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit, folded over a canonical encoding of the event stream.
/// Two runs of the simulator are byte-identical iff their hashes agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }
}

/// Fold `ev` under its variant's tag byte. Every pinned stream hash
/// depends on the tags: never renumber or reuse one.
fn fold_event(h: &mut Fnv, ev: &AuditEvent) {
    match ev {
        AuditEvent::DramConfig { channels, banks_per_channel, timing } => {
            h.byte(1);
            h.usize(*channels);
            h.usize(*banks_per_channel);
            for v in [
                timing.t_rcd,
                timing.t_cl,
                timing.t_rp,
                timing.t_wr,
                timing.burst,
                timing.t_refi,
                timing.t_rfc,
                timing.t_rrd,
                timing.t_faw,
            ] {
                h.u64(v);
            }
        }
        AuditEvent::CtrlConfig {
            cores,
            policy,
            read_first,
            buffer_entries,
            drain_start,
            drain_stop,
            overhead,
        } => {
            h.byte(2);
            h.usize(*cores);
            h.str(policy);
            h.bool(*read_first);
            h.usize(*buffer_entries);
            h.usize(*drain_start);
            h.usize(*drain_stop);
            h.u64(*overhead);
        }
        AuditEvent::ProfileUpdate { me } => {
            h.byte(3);
            h.usize(me.len());
            for &v in me {
                h.f64(v);
            }
        }
        AuditEvent::PolicyParams { params } => {
            h.byte(9);
            h.usize(params.len());
            for (k, v) in params {
                h.str(k);
                h.u64(*v);
            }
        }
        AuditEvent::Submit { id, core, channel, bank, row, write, at } => {
            h.byte(4);
            h.u64(*id);
            h.u64(u64::from(*core));
            h.usize(*channel);
            h.usize(*bank);
            h.u64(*row);
            h.bool(*write);
            h.u64(*at);
        }
        AuditEvent::Refresh { channel, at } => {
            h.byte(5);
            h.usize(*channel);
            h.u64(*at);
        }
        AuditEvent::Decision {
            channel,
            at,
            draining,
            chosen,
            candidates,
            pending_reads,
            why: _,
        } => {
            h.byte(7);
            h.usize(*channel);
            h.u64(*at);
            h.bool(*draining);
            h.u64(*chosen);
            h.usize(candidates.len());
            for c in candidates {
                h.u64(c.id);
                h.u64(u64::from(c.core));
                h.usize(c.bank);
                h.u64(c.row);
                h.bool(c.write);
                h.bool(c.row_hit);
                h.u64(c.arrival);
            }
            h.usize(pending_reads.len());
            for &p in pending_reads {
                h.u64(u64::from(p));
            }
        }
        AuditEvent::Grant {
            id,
            core,
            channel,
            bank,
            row,
            write,
            requested_at,
            granted_at,
            keep_open,
            outcome,
            data_ready,
        } => {
            h.byte(8);
            h.u64(*id);
            h.u64(u64::from(*core));
            h.usize(*channel);
            h.usize(*bank);
            h.u64(*row);
            h.bool(*write);
            h.u64(*requested_at);
            h.u64(*granted_at);
            h.bool(*keep_open);
            h.byte(match outcome {
                crate::event::GrantOutcome::Hit => 0,
                crate::event::GrantOutcome::ClosedMiss => 1,
                crate::event::GrantOutcome::Conflict => 2,
            });
            h.u64(*data_ready);
        }
    }
}

/// Auditor knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditorConfig {
    /// Age (cycles) past which an ungranted candidate counts as starved.
    pub starvation_cap: u64,
    /// Panic on the first violation (the debug-build watchdog mode)
    /// instead of accumulating a report.
    pub panic_on_violation: bool,
    /// Violations kept verbatim in the report; the rest are counted only.
    pub max_stored: usize,
}

impl Default for AuditorConfig {
    fn default() -> Self {
        AuditorConfig { starvation_cap: 1_000_000, panic_on_violation: false, max_stored: 64 }
    }
}

/// Everything a finished audit knows.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Events observed.
    pub events: u64,
    /// FNV-1a hash of the canonical event stream (determinism check:
    /// same seed ⇒ same hash).
    pub stream_hash: u64,
    /// Total violations detected.
    pub total_violations: u64,
    /// First [`AuditorConfig::max_stored`] violations, verbatim.
    pub violations: Vec<Violation>,
    /// Violation counts by kind.
    pub counts: Vec<(ViolationKind, u64)>,
}

impl AuditReport {
    /// Whether the stream was fully legal.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "audit: {} events, stream hash {:016x}, {} violation(s)\n",
            self.events, self.stream_hash, self.total_violations
        ));
        for (kind, n) in &self.counts {
            s.push_str(&format!("  {kind:?}: {n}\n"));
        }
        for v in &self.violations {
            s.push_str(&format!("  {v}\n"));
        }
        if self.total_violations as usize > self.violations.len() {
            s.push_str(&format!(
                "  ... {} more not stored\n",
                self.total_violations as usize - self.violations.len()
            ));
        }
        s
    }
}

/// The full checker: replays the stream through the [`TimingOracle`] and
/// [`PolicyAuditor`] while hashing it.
#[derive(Debug)]
pub struct Auditor {
    cfg: AuditorConfig,
    oracle: TimingOracle,
    policy: PolicyAuditor,
    hash: Fnv,
    events: u64,
    stored: Vec<Violation>,
    counts: Vec<(ViolationKind, u64)>,
    total: u64,
    scratch: Vec<Violation>,
}

impl Auditor {
    /// A fresh auditor.
    pub fn new(cfg: AuditorConfig) -> Self {
        Auditor {
            cfg,
            oracle: TimingOracle::new(),
            policy: PolicyAuditor::new(cfg.starvation_cap),
            hash: Fnv::new(),
            events: 0,
            stored: Vec::new(),
            counts: Vec::new(),
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// Build a shared auditor plus the handle the simulator should hold.
    pub fn shared(cfg: AuditorConfig) -> (AuditHandle, Arc<Mutex<Auditor>>) {
        let auditor = Arc::new(Mutex::new(Auditor::new(cfg)));
        let sink: Arc<Mutex<dyn AuditSink>> = auditor.clone();
        (AuditHandle::from_shared(vec![sink]), auditor)
    }

    /// Snapshot the current findings.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            events: self.events,
            stream_hash: self.hash.0,
            total_violations: self.total,
            violations: self.stored.clone(),
            counts: self.counts.clone(),
        }
    }

    fn absorb_scratch(&mut self) {
        for v in self.scratch.drain(..) {
            if self.cfg.panic_on_violation {
                panic!("audit violation: {v}");
            }
            match self.counts.iter_mut().find(|(k, _)| *k == v.kind) {
                Some((_, n)) => *n += 1,
                None => self.counts.push((v.kind, 1)),
            }
            if self.stored.len() < self.cfg.max_stored {
                self.stored.push(v);
            }
            self.total += 1;
        }
    }
}

impl AuditSink for Auditor {
    fn record(&mut self, ev: &AuditEvent) {
        fold_event(&mut self.hash, ev);
        self.events += 1;
        match ev {
            AuditEvent::DramConfig { channels, banks_per_channel, timing } => {
                self.oracle.on_config(*channels, *banks_per_channel, *timing);
            }
            AuditEvent::CtrlConfig { cores, policy, read_first, overhead, .. } => {
                self.policy.on_config(*cores, policy, *read_first, *overhead);
            }
            AuditEvent::PolicyParams { params } => self.policy.on_params(params),
            AuditEvent::ProfileUpdate { me } => self.policy.on_profile(me),
            AuditEvent::Submit { core, write, .. } => self.policy.on_submit(*core, *write),
            AuditEvent::Refresh { channel, at } => {
                self.oracle.on_refresh(*channel, *at, &mut self.scratch);
            }
            AuditEvent::Decision {
                channel,
                at,
                draining,
                chosen,
                candidates,
                pending_reads,
                why: _,
            } => {
                let facts = DecisionFacts {
                    channel: *channel,
                    at: *at,
                    draining: *draining,
                    chosen: *chosen,
                    candidates,
                    pending_reads,
                };
                self.policy.on_decision(&facts, &self.oracle, &mut self.scratch);
            }
            AuditEvent::Grant {
                id: _,
                core,
                channel,
                bank,
                row,
                write,
                requested_at,
                granted_at,
                keep_open,
                outcome,
                data_ready,
            } => {
                self.policy.on_grant(*core, *write);
                let facts = GrantFacts {
                    channel: *channel,
                    bank: *bank,
                    row: *row,
                    write: *write,
                    requested_at: *requested_at,
                    granted_at: *granted_at,
                    keep_open: *keep_open,
                    outcome: *outcome,
                    data_ready: *data_ready,
                };
                self.oracle.on_grant(&facts, &mut self.scratch);
            }
        }
        self.absorb_scratch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GrantOutcome, TimingParams};

    fn ddr2() -> TimingParams {
        TimingParams { t_rcd: 40, t_cl: 40, t_rp: 40, t_wr: 48, burst: 16, ..Default::default() }
    }

    fn legal_stream() -> Vec<AuditEvent> {
        vec![
            AuditEvent::DramConfig { channels: 1, banks_per_channel: 8, timing: ddr2() },
            AuditEvent::CtrlConfig {
                cores: 1,
                policy: "HF-RF",
                read_first: true,
                buffer_entries: 64,
                drain_start: 32,
                drain_stop: 16,
                overhead: 0,
            },
            AuditEvent::Submit { id: 0, core: 0, channel: 0, bank: 0, row: 5, write: false, at: 0 },
            AuditEvent::Decision {
                channel: 0,
                at: 0,
                draining: false,
                chosen: 0,
                candidates: vec![crate::event::CandidateInfo {
                    id: 0,
                    core: 0,
                    bank: 0,
                    row: 5,
                    write: false,
                    row_hit: false,
                    arrival: 0,
                }],
                pending_reads: vec![1],
                why: (crate::event::Rule::OnlyCandidate, None),
            },
            AuditEvent::Grant {
                id: 0,
                core: 0,
                channel: 0,
                bank: 0,
                row: 5,
                write: false,
                requested_at: 0,
                granted_at: 0,
                keep_open: false,
                outcome: GrantOutcome::ClosedMiss,
                data_ready: 96,
            },
        ]
    }

    #[test]
    fn legal_stream_is_clean_and_hashes_deterministically() {
        let mut a = Auditor::new(AuditorConfig::default());
        let mut b = Auditor::new(AuditorConfig::default());
        for ev in legal_stream() {
            a.record(&ev);
            b.record(&ev);
        }
        let (ra, rb) = (a.report(), b.report());
        assert!(ra.is_clean(), "{}", ra.render());
        assert_eq!(ra.stream_hash, rb.stream_hash);
        assert_eq!(ra.events, 5);
    }

    #[test]
    fn mutated_stream_changes_hash_and_is_flagged() {
        let mut a = Auditor::new(AuditorConfig::default());
        let clean_hash = {
            let mut c = Auditor::new(AuditorConfig::default());
            for ev in legal_stream() {
                c.record(&ev);
            }
            c.report().stream_hash
        };
        let mut evs = legal_stream();
        if let AuditEvent::Grant { data_ready, .. } = &mut evs[4] {
            *data_ready = 80; // faster than tRCD + tCL allows
        }
        for ev in evs {
            a.record(&ev);
        }
        let r = a.report();
        assert_ne!(r.stream_hash, clean_hash);
        assert_eq!(r.total_violations, 1, "{}", r.render());
        assert_eq!(r.violations[0].kind, ViolationKind::DataTooEarly);
        assert!(r.render().contains("DataTooEarly"));
    }

    #[test]
    #[should_panic(expected = "audit violation")]
    fn panic_mode_trips_on_first_violation() {
        let cfg = AuditorConfig { panic_on_violation: true, ..Default::default() };
        let mut a = Auditor::new(cfg);
        let mut evs = legal_stream();
        if let AuditEvent::Grant { granted_at, requested_at, .. } = &mut evs[4] {
            *granted_at = 0;
            *requested_at = 5; // grant before request
        }
        for ev in evs {
            a.record(&ev);
        }
    }

    #[test]
    fn shared_handle_feeds_the_auditor() {
        let (handle, auditor) = Auditor::shared(AuditorConfig::default());
        for ev in legal_stream() {
            handle.emit(|| ev.clone());
        }
        let r = auditor.lock().expect("auditor").report();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.events, 5);
    }

    #[test]
    fn stored_violations_are_capped_but_counted() {
        let cfg = AuditorConfig { max_stored: 2, ..Default::default() };
        let mut a = Auditor::new(cfg);
        a.record(&AuditEvent::DramConfig { channels: 1, banks_per_channel: 1, timing: ddr2() });
        for i in 0..5u64 {
            // Five refreshes while refresh is disabled: five RefreshBad.
            a.record(&AuditEvent::Refresh { channel: 0, at: i });
        }
        let r = a.report();
        assert_eq!(r.total_violations, 5);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.counts, vec![(ViolationKind::RefreshBad, 5)]);
        assert!(r.render().contains("3 more not stored"));
    }
}
