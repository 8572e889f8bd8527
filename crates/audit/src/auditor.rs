//! The combining sink: timing oracle + policy auditor + stream hash.

use crate::event::{AuditEvent, AuditHandle, AuditSink, Decision, Grant, GrantOutcome, Submit};
use crate::oracle::{TimingOracle, Violation, ViolationKind};
use crate::policy::PolicyAuditor;
use melreq_snap::{fnv1a, fnv1a_from, Enc};
use std::sync::{Arc, Mutex};

/// Write `ev`'s canonical encoding, the bytes the stream hash folds:
/// its variant's tag byte, then its fields in declaration order. Every
/// pinned stream hash depends on these bytes: never renumber or reuse a
/// tag (5 and 6 are retired), and keep a decision's `why` out.
fn encode(e: &mut Enc, ev: &AuditEvent) {
    match ev {
        AuditEvent::DramConfig { channels, banks_per_channel, timing } => {
            e.u8(1);
            e.usize(*channels);
            e.usize(*banks_per_channel);
            for v in [timing.t_rcd, timing.t_cl, timing.t_rp, timing.t_wr, timing.burst] {
                e.u64(v);
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
            e.u8(2);
            e.usize(*cores);
            e.str(policy);
            e.bool(*read_first);
            e.usize(*buffer_entries);
            e.usize(*drain_start);
            e.usize(*drain_stop);
            e.u64(*overhead);
        }
        AuditEvent::ProfileUpdate { me } => {
            e.u8(3);
            e.f64s(me);
        }
        AuditEvent::PolicyParams { params } => {
            e.u8(9);
            e.usize(params.len());
            for (k, v) in params {
                e.str(k);
                e.u64(*v);
            }
        }
        AuditEvent::Submit(Submit { id, core, channel, bank, row, write, at }) => {
            e.u8(4);
            e.u64(*id);
            e.u64(u64::from(*core));
            e.usize(*channel);
            e.usize(*bank);
            e.u64(*row);
            e.bool(*write);
            e.u64(*at);
        }
        AuditEvent::Decision(Decision {
            channel,
            at,
            draining,
            chosen,
            candidates,
            pending_reads,
            why: _,
        }) => {
            e.u8(7);
            e.usize(*channel);
            e.u64(*at);
            e.bool(*draining);
            e.u64(*chosen);
            e.usize(candidates.len());
            for c in candidates {
                e.u64(c.id);
                e.u64(u64::from(c.core));
                e.usize(c.bank);
                e.u64(c.row);
                e.bool(c.write);
                e.bool(c.row_hit);
                e.u64(c.arrival);
            }
            e.usize(pending_reads.len());
            for &p in pending_reads {
                e.u64(u64::from(p));
            }
        }
        AuditEvent::Grant(Grant {
            id,
            core,
            channel,
            bank,
            row,
            write,
            at,
            keep_open,
            outcome,
            data_ready,
        }) => {
            e.u8(8);
            e.u64(*id);
            e.u64(u64::from(*core));
            e.usize(*channel);
            e.usize(*bank);
            e.u64(*row);
            e.bool(*write);
            e.u64(*at);
            e.bool(*keep_open);
            e.u8(match outcome {
                GrantOutcome::Hit => 0,
                GrantOutcome::ClosedMiss => 1,
                GrantOutcome::Conflict => 2,
            });
            e.u64(*data_ready);
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
    /// FNV-1a over the canonical encoding of the event stream
    /// (determinism check: same seed ⇒ same hash).
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
    /// `melreq_snap::fnv1a` of every event's encoding so far.
    hash: u64,
    /// The last event's encoding (one buffer, reused for every event).
    enc: Enc,
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
            hash: fnv1a(&[]),
            enc: Enc::new(),
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
            stream_hash: self.hash,
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
        self.enc.clear();
        encode(&mut self.enc, ev);
        self.hash = fnv1a_from(self.hash, self.enc.as_bytes());
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
            AuditEvent::Submit(s) => self.policy.on_submit(s.core, s.write),
            AuditEvent::Decision(d) => self.policy.on_decision(d, &self.oracle, &mut self.scratch),
            AuditEvent::Grant(g) => {
                self.policy.on_grant(g.core, g.write);
                self.oracle.on_grant(g, &mut self.scratch);
            }
        }
        self.absorb_scratch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CandidateInfo, Rule, TimingParams};

    fn ddr2() -> TimingParams {
        TimingParams { t_rcd: 40, t_cl: 40, t_rp: 40, t_wr: 48, burst: 16 }
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
            AuditEvent::Submit(Submit {
                id: 0,
                core: 0,
                channel: 0,
                bank: 0,
                row: 5,
                write: false,
                at: 0,
            }),
            AuditEvent::Decision(Decision {
                channel: 0,
                at: 0,
                draining: false,
                chosen: 0,
                candidates: vec![CandidateInfo {
                    id: 0,
                    core: 0,
                    bank: 0,
                    row: 5,
                    write: false,
                    row_hit: false,
                    arrival: 0,
                }],
                pending_reads: vec![1],
                why: (Rule::OnlyCandidate, None),
            }),
            AuditEvent::Grant(Grant {
                id: 0,
                core: 0,
                channel: 0,
                bank: 0,
                row: 5,
                write: false,
                at: 0,
                keep_open: false,
                outcome: GrantOutcome::ClosedMiss,
                data_ready: 96,
            }),
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
        if let AuditEvent::Grant(g) = &mut evs[4] {
            g.data_ready = 80; // faster than tRCD + tCL allows
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
        if let AuditEvent::Grant(g) = &mut evs[4] {
            g.data_ready = 80; // faster than tRCD + tCL allows
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
            // Five grants to a bank the device lacks: five StreamInvalid.
            a.record(&AuditEvent::Grant(Grant {
                id: i,
                core: 0,
                channel: 0,
                bank: 1,
                row: 0,
                write: false,
                at: i,
                keep_open: false,
                outcome: GrantOutcome::ClosedMiss,
                data_ready: i + 96,
            }));
        }
        let r = a.report();
        assert_eq!(r.total_violations, 5);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.counts, vec![(ViolationKind::StreamInvalid, 5)]);
        assert!(r.render().contains("3 more not stored"));
    }
}
