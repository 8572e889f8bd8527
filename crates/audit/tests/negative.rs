//! Negative tests: the oracle must have teeth.
//!
//! Each test drives the *real* memory controller with the recorder
//! attached, captures a legal event stream, then injects one illegal
//! mutation and asserts the auditor reports exactly the violation kind
//! that mutation corresponds to. A final property test randomizes the
//! mutation site and magnitude.

use melreq_audit::{
    AuditEvent, AuditHandle, AuditReport, AuditSink, Auditor, AuditorConfig, Recorder,
    ViolationKind,
};
use melreq_dram::DramSystem;
use melreq_memctrl::controller::ControllerConfig;
use melreq_memctrl::policy::PolicyKind;
use melreq_memctrl::MemoryController;
use melreq_stats::types::{AccessKind, CoreId, RowOutcome};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Drive a real controller under `policy` for `cycles` cycles of synthetic
/// traffic and return the recorded audit stream.
fn drive(policy: &PolicyKind, cores: usize, cycles: u64, seed: u64) -> Vec<AuditEvent> {
    let me: Vec<f64> = (0..cores).map(|i| 1.0 + 2.0 * i as f64).collect();
    let mut ctrl = MemoryController::new(
        ControllerConfig::paper(),
        DramSystem::paper(),
        policy.build(&me, cores, seed),
        cores,
    );
    let rec = Arc::new(Mutex::new(Recorder::default()));
    let sink: Arc<Mutex<dyn AuditSink>> = rec.clone();
    ctrl.attach_audit(AuditHandle::from_shared(vec![sink]));
    if matches!(policy, PolicyKind::MeLreq) {
        // Publish the profile on the stream (and reprogram the table
        // consistently) so the table-consistency check engages.
        ctrl.update_profile(&me);
    }
    // Deterministic mixed traffic with row locality: a handful of pages
    // per core, several lines per page, ~1/4 writes.
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng >> 33
    };
    for now in 0..cycles {
        for c in 0..cores {
            if next() % 7 < 2 && ctrl.can_accept() {
                let page = next() % 12;
                let line = next() % 32;
                let addr = (c as u64) * (1 << 26) + page * (1 << 13) + line * 64;
                let kind = if next() % 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                ctrl.submit(CoreId::from(c), addr, kind, now);
            }
        }
        ctrl.tick(now);
        while ctrl.pop_completed(now).is_some() {}
    }
    let events = rec.lock().expect("recorder poisoned").events.clone();
    events
}

/// Replay a (possibly mutated) stream through a fresh auditor.
fn audit(events: &[AuditEvent]) -> AuditReport {
    let mut a = Auditor::new(AuditorConfig::default());
    for ev in events {
        a.record(ev);
    }
    a.report()
}

fn has(report: &AuditReport, kind: ViolationKind) -> bool {
    report.counts.iter().any(|(k, _)| *k == kind)
}

fn first_grant(events: &[AuditEvent]) -> usize {
    events.iter().position(|e| matches!(e, AuditEvent::Grant(_))).expect("stream contains grants")
}

#[test]
fn legal_streams_are_clean_for_every_policy() {
    for policy in [
        PolicyKind::Fcfs,
        PolicyKind::FcfsRf,
        PolicyKind::HfRf,
        PolicyKind::RoundRobin,
        PolicyKind::Lreq,
        PolicyKind::Me,
        PolicyKind::MeLreq,
    ] {
        let events = drive(&policy, 4, 20_000, 7);
        assert!(
            events.iter().any(|e| matches!(e, AuditEvent::Grant(_))),
            "{policy:?}: traffic must reach DRAM"
        );
        let report = audit(&events);
        assert!(report.is_clean(), "{policy:?} must audit clean:\n{}", report.render());
    }
}

#[test]
fn identical_seeds_replay_to_identical_hashes() {
    let a = audit(&drive(&PolicyKind::MeLreq, 4, 15_000, 42));
    let b = audit(&drive(&PolicyKind::MeLreq, 4, 15_000, 42));
    assert_eq!(a.stream_hash, b.stream_hash);
    let c = audit(&drive(&PolicyKind::MeLreq, 4, 15_000, 43));
    assert_ne!(a.stream_hash, c.stream_hash, "different traffic must fingerprint differently");
}

#[test]
fn shrunk_data_ready_is_data_too_early() {
    // The first grant of the run hits a cold bank and an idle bus, so its
    // data timing is bank-limited: any claimed early delivery is exactly
    // DataTooEarly.
    let mut events = drive(&PolicyKind::HfRf, 2, 10_000, 1);
    let i = first_grant(&events);
    let AuditEvent::Grant(g) = &mut events[i] else { unreachable!() };
    g.data_ready -= 1;
    let report = audit(&events);
    assert!(has(&report, ViolationKind::DataTooEarly), "got:\n{}", report.render());
    assert_eq!(report.total_violations, 1, "one mutation, one violation:\n{}", report.render());
}

#[test]
fn inflated_data_ready_is_data_mismatch() {
    let mut events = drive(&PolicyKind::HfRf, 2, 10_000, 1);
    let i = first_grant(&events);
    let AuditEvent::Grant(g) = &mut events[i] else { unreachable!() };
    g.data_ready += 13;
    let report = audit(&events);
    assert!(has(&report, ViolationKind::DataMismatch), "got:\n{}", report.render());
    assert_eq!(report.total_violations, 1, "got:\n{}", report.render());
}

#[test]
fn flipped_outcome_is_outcome_mismatch() {
    let mut events = drive(&PolicyKind::HfRf, 2, 10_000, 1);
    let i = first_grant(&events);
    let AuditEvent::Grant(g) = &mut events[i] else { unreachable!() };
    assert_eq!(g.outcome, RowOutcome::ClosedMiss, "cold bank");
    g.outcome = RowOutcome::Hit;
    let report = audit(&events);
    assert!(has(&report, ViolationKind::OutcomeMismatch), "got:\n{}", report.render());
    assert_eq!(report.total_violations, 1, "got:\n{}", report.render());
}

#[test]
fn duplicated_grant_is_bank_busy() {
    let mut events = drive(&PolicyKind::HfRf, 2, 10_000, 1);
    let i = first_grant(&events);
    let dup = events[i].clone();
    events.insert(i + 1, dup);
    let report = audit(&events);
    assert!(has(&report, ViolationKind::BankBusy), "got:\n{}", report.render());
}

#[test]
fn foreign_chosen_id_is_chosen_not_candidate() {
    let mut events = drive(&PolicyKind::HfRf, 2, 10_000, 5);
    let i = events
        .iter()
        .position(|e| matches!(e, AuditEvent::Decision(_)))
        .expect("stream contains decisions");
    let AuditEvent::Decision(d) = &mut events[i] else { unreachable!() };
    d.chosen = u64::MAX;
    let report = audit(&events);
    assert!(has(&report, ViolationKind::ChosenNotCandidate), "got:\n{}", report.render());
}

#[test]
fn hit_first_inversion_is_caught() {
    // Find a decision whose chosen core also queued a non-hit read and
    // whose grant was a row hit; granting the non-hit instead violates
    // the within-core hit-first order (and nothing else, since the core
    // choice is unchanged).
    let mut events = drive(&PolicyKind::Lreq, 2, 30_000, 9);
    let mut site = None;
    for (i, ev) in events.iter().enumerate() {
        let AuditEvent::Decision(d) = ev else {
            continue;
        };
        let Some(ch) = d.candidates.iter().find(|c| c.id == d.chosen) else {
            continue;
        };
        if !ch.row_hit || ch.write {
            continue;
        }
        if let Some(alt) = d
            .candidates
            .iter()
            .find(|c| c.core == ch.core && !c.row_hit && !c.write && c.id != ch.id)
        {
            site = Some((i, alt.id));
            break;
        }
    }
    let (i, alt_id) = site.expect("traffic with row locality must hit this pattern");
    let AuditEvent::Decision(d) = &mut events[i] else { unreachable!() };
    d.chosen = alt_id;
    let report = audit(&events);
    assert!(has(&report, ViolationKind::HitFirstViolated), "got:\n{}", report.render());
}

#[test]
fn corrupted_profile_is_table_inconsistent() {
    // Reverse the published ME profile: the auditor's independently
    // quantized priority table now disagrees with the policy's, so some
    // decision must pick a core the (mutated) table ranks below another.
    let mut events = drive(&PolicyKind::MeLreq, 4, 30_000, 11);
    let i = events
        .iter()
        .position(|e| matches!(e, AuditEvent::ProfileUpdate { .. }))
        .expect("MeLreq stream carries the profile");
    let AuditEvent::ProfileUpdate { me } = &mut events[i] else { unreachable!() };
    me.reverse();
    let report = audit(&events);
    assert!(has(&report, ViolationKind::TableInconsistent), "got:\n{}", report.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomly violate one timing constraint on the run's first grant
    /// (bank-limited by construction) and demand exactly the matching
    /// violation kind.
    #[test]
    fn random_single_timing_mutation_is_precisely_classified(
        which in 0usize..3,
        magnitude in 1u64..64,
    ) {
        let mut events = drive(&PolicyKind::HfRf, 2, 8_000, 1);
        let i = first_grant(&events);
        let expected = {
            let AuditEvent::Grant(g) = &mut events[i] else { unreachable!() };
            match which {
                0 => {
                    g.data_ready -= magnitude.min(79); // stay > the grant cycle
                    ViolationKind::DataTooEarly
                }
                1 => {
                    g.data_ready += magnitude;
                    ViolationKind::DataMismatch
                }
                _ => {
                    g.outcome = RowOutcome::Conflict;
                    ViolationKind::OutcomeMismatch
                }
            }
        };
        let report = audit(&events);
        prop_assert_eq!(report.total_violations, 1);
        prop_assert!(
            has(&report, expected),
            "expected {:?}, got:\n{}", expected, report.render()
        );
    }
}
