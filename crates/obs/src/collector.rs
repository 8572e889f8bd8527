//! The trace collector: an [`AuditSink`] that turns the audit tap
//! stream into the structured trace, the provenance totals, and the
//! event-derived half of the epoch time-series.
//!
//! The collector is attached through the exact same
//! `melreq_audit::AuditHandle` tap the protocol checker uses, so the
//! instrumented crates need no new hooks and the disabled path stays a
//! single `Option` check. Everything here is read-only observation:
//! the collector never calls back into the simulator and holds no model
//! of any policy — each `Decision` arrives with its rule already named
//! (see `provenance`) — which is what makes tracing provably inert.

use melreq_audit::{AuditEvent, AuditHandle, AuditSink, Grant, GrantOutcome, TimingParams};
use melreq_prof::Ring;
use melreq_stats::types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use crate::event::{CmdKind, TraceEvent};
use crate::provenance::{Rule, RuleTotals};
use crate::series::EpochRow;

/// Default structured-trace ring capacity in events (drop-oldest beyond
/// it): 2^20 events, a few hundred thousand grants, plenty for any plot.
/// A [`TraceEvent`] is 88 bytes on a 64-bit host, so a full ring holds
/// 88 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Per-core sample handed in by the system at an epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct CoreSample {
    /// Cumulative committed instructions.
    pub committed: u64,
    /// Demand reads currently pending at the controller.
    pub pending_reads: u32,
}

/// Per-channel sample handed in by the system at an epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct ChannelSample {
    /// Requests currently queued for the channel.
    pub queue_depth: usize,
    /// Cumulative data-bus busy cycles.
    pub busy_cycles: Cycle,
}

/// Reconstructs memory-bound spans per core: a span is open while the
/// core has ≥ 1 demand read outstanding at the controller.
#[derive(Debug, Default)]
struct CoreTrack {
    inflight: u64,
    open_since: Option<Cycle>,
    /// Data-return times of granted reads, popped as time advances.
    completions: BinaryHeap<Reverse<Cycle>>,
}

/// Per-channel grant counts accumulated between epoch samples.
#[derive(Debug, Default, Clone)]
struct ChanAccum {
    reads: u64,
    writes: u64,
    row_hits: u64,
}

/// A decision waiting for its grant: the chosen id, the rule, and the
/// `(id, core)` of the request the winner beat.
type PendingRule = (u64, Rule, Option<(u64, u16)>);

/// The deterministic trace/telemetry collector (see crate docs).
#[derive(Debug)]
pub struct Collector {
    ring: Ring<TraceEvent>,
    // --- configuration knowledge replicated from the tap stream ---
    timing: TimingParams,
    channels: usize,
    cores: usize,
    policy: String,
    me: Vec<f64>,
    // --- provenance ---
    pending_rule: Option<PendingRule>,
    totals: Vec<(String, RuleTotals)>,
    // --- core memory-bound span reconstruction ---
    tracks: Vec<CoreTrack>,
    // --- epoch accumulators (event-derived half of the series) ---
    chan_accum: Vec<ChanAccum>,
    prev_committed: Vec<u64>,
    prev_busy: Vec<Cycle>,
    last_sample_at: Cycle,
    series: Vec<EpochRow>,
}

impl Collector {
    /// A collector whose trace ring holds at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Collector {
            ring: Ring::new(capacity),
            timing: TimingParams::default(),
            channels: 0,
            cores: 0,
            policy: String::new(),
            me: Vec::new(),
            pending_rule: None,
            totals: Vec::new(),
            tracks: Vec::new(),
            chan_accum: Vec::new(),
            prev_committed: Vec::new(),
            prev_busy: Vec::new(),
            last_sample_at: 0,
            series: Vec::new(),
        }
    }

    /// A collector wrapped for sharing with an [`AuditHandle`]. Returns
    /// the handle to attach and the shared collector to read results
    /// back from after the run.
    pub fn shared(capacity: usize) -> (AuditHandle, Arc<Mutex<Collector>>) {
        let collector = Arc::new(Mutex::new(Collector::new(capacity)));
        let sink: Arc<Mutex<dyn AuditSink>> = collector.clone();
        (AuditHandle::from_shared(vec![sink]), collector)
    }

    // ---- results ----

    /// The structured event trace (most recent window, oldest first).
    pub fn ring(&self) -> &Ring<TraceEvent> {
        &self.ring
    }

    /// Epoch time-series rows collected so far.
    pub fn series(&self) -> &[EpochRow] {
        &self.series
    }

    /// Per-policy rule-attribution totals, in first-seen order. The
    /// warm-up policy and the measured policy get separate buckets.
    pub fn rule_totals(&self) -> &[(String, RuleTotals)] {
        &self.totals
    }

    /// Rule totals for the policy active at the end of the run (the
    /// measured policy after a warm-up swap), if any decision was seen.
    pub fn active_rule_totals(&self) -> Option<(&str, &RuleTotals)> {
        self.totals
            .iter()
            .find(|(name, _)| *name == self.policy)
            .map(|(name, t)| (name.as_str(), t))
    }

    /// Device geometry as reported by `DramConfig` (channels, cores).
    pub fn geometry(&self) -> (usize, usize) {
        (self.channels, self.cores)
    }

    /// Close still-open memory-bound spans. Call once after the run,
    /// before exporting; further events may reopen spans.
    pub fn finish(&mut self) {
        for core in 0..self.tracks.len() {
            // Drain queued completions, then close whatever remains
            // open at the latest cycle we know about.
            let last = self.tracks[core]
                .completions
                .iter()
                .map(|r| r.0)
                .max()
                .unwrap_or(self.last_sample_at);
            self.advance_track(core, Cycle::MAX);
            let t = &mut self.tracks[core];
            if let Some(from) = t.open_since.take() {
                let to = last.max(from);
                self.ring.push(TraceEvent::CoreWait { core: core as u16, from, to });
            }
        }
    }

    // ---- epoch sampling (driven by melreq_core::System) ----

    /// Record one epoch sample at cycle `at`. `cores` and `channels`
    /// carry the state only the system can see (cumulative committed
    /// instructions, live queue depths, cumulative bus-busy cycles);
    /// the collector supplies the event-derived rest.
    pub fn sample_epoch(&mut self, at: Cycle, cores: &[CoreSample], channels: &[ChannelSample]) {
        let dt = at.saturating_sub(self.last_sample_at).max(1) as f64;
        self.prev_committed.resize(cores.len(), 0);
        self.prev_busy.resize(channels.len(), 0);
        self.chan_accum.resize(channels.len(), ChanAccum::default());

        let ipc: Vec<f64> = cores
            .iter()
            .zip(&self.prev_committed)
            .map(|(c, &prev)| c.committed.saturating_sub(prev) as f64 / dt)
            .collect();
        let bus_util: Vec<f64> = channels
            .iter()
            .zip(&self.prev_busy)
            .map(|(c, &prev)| (c.busy_cycles.saturating_sub(prev) as f64 / dt).min(1.0))
            .collect();
        let row_hit_rate: Vec<f64> = self
            .chan_accum
            .iter()
            .map(|a| {
                let grants = a.reads + a.writes;
                if grants == 0 {
                    0.0
                } else {
                    a.row_hits as f64 / grants as f64
                }
            })
            .collect();
        self.series.push(EpochRow {
            cycle: at,
            ipc,
            pending_reads: cores.iter().map(|c| c.pending_reads).collect(),
            me: self.me.clone(),
            queue_depth: channels.iter().map(|c| c.queue_depth).collect(),
            bus_util,
            reads: self.chan_accum.iter().map(|a| a.reads).collect(),
            writes: self.chan_accum.iter().map(|a| a.writes).collect(),
            row_hit_rate,
        });

        for (prev, c) in self.prev_committed.iter_mut().zip(cores) {
            *prev = c.committed;
        }
        for (prev, c) in self.prev_busy.iter_mut().zip(channels) {
            *prev = c.busy_cycles;
        }
        for a in &mut self.chan_accum {
            *a = ChanAccum::default();
        }
        self.last_sample_at = at;
    }

    // ---- internals ----

    /// Pop completions up to `now`, closing the span when the last
    /// outstanding read returns.
    fn advance_track(&mut self, core: usize, now: Cycle) {
        while let Some(&Reverse(done)) = self.tracks[core].completions.peek() {
            if done > now {
                break;
            }
            self.tracks[core].completions.pop();
            let t = &mut self.tracks[core];
            t.inflight = t.inflight.saturating_sub(1);
            if t.inflight == 0 {
                if let Some(from) = t.open_since.take() {
                    self.ring.push(TraceEvent::CoreWait {
                        core: core as u16,
                        from,
                        to: done.max(from),
                    });
                }
            }
        }
    }

    fn current_totals(&mut self) -> &mut RuleTotals {
        if let Some(i) = self.totals.iter().position(|(name, _)| *name == self.policy) {
            &mut self.totals[i].1
        } else {
            self.totals.push((self.policy.clone(), RuleTotals::default()));
            &mut self.totals.last_mut().expect("just pushed").1
        }
    }

    /// Reconstruct the DRAM command sequence a grant implies and push it
    /// onto the ring (an approximation for visualization: the write
    /// recovery before a close-page precharge is folded into the
    /// precharge slice).
    fn push_commands(&mut self, g: &Grant) {
        let (t, grant) = (self.timing, *g);
        let mut push = |kind, at, dur: Cycle| {
            self.ring.push(TraceEvent::Command { kind, grant, at, dur: dur.max(1) });
        };
        let mut at = g.at;
        if g.outcome == GrantOutcome::Conflict {
            push(CmdKind::Pre, at, t.t_rp);
            at += t.t_rp;
        }
        if g.outcome != GrantOutcome::Hit {
            push(CmdKind::Act, at, t.t_rcd);
            at += t.t_rcd;
        }
        let kind = if g.write { CmdKind::Write } else { CmdKind::Read };
        push(kind, at, g.data_ready.saturating_sub(at));
        if !g.keep_open {
            push(CmdKind::Pre, g.data_ready + if g.write { t.t_wr } else { 0 }, t.t_rp);
        }
    }
}

impl AuditSink for Collector {
    fn record(&mut self, ev: &AuditEvent) {
        match ev {
            AuditEvent::DramConfig { channels, timing, .. } => {
                self.channels = *channels;
                self.timing = *timing;
                self.chan_accum.resize(*channels, ChanAccum::default());
                self.prev_busy.resize(*channels, 0);
            }
            AuditEvent::CtrlConfig { cores, policy, .. } => {
                self.cores = *cores;
                self.policy = (*policy).to_string();
                self.pending_rule = None;
                while self.tracks.len() < *cores {
                    self.tracks.push(CoreTrack::default());
                }
                self.prev_committed.resize(*cores, 0);
            }
            AuditEvent::PolicyParams { .. } => {}
            AuditEvent::ProfileUpdate { me } => self.me = me.clone(),
            AuditEvent::Submit(sub) => {
                self.ring.push(TraceEvent::Arrival(*sub));
                let core = usize::from(sub.core);
                if !sub.write && core < self.tracks.len() {
                    self.advance_track(core, sub.at);
                    let t = &mut self.tracks[core];
                    t.inflight += 1;
                    if t.inflight == 1 {
                        t.open_since = Some(sub.at);
                    }
                }
            }
            AuditEvent::Decision(d) => {
                let (rule, beaten) = d.why;
                let beat = beaten
                    .and_then(|id| d.candidates.iter().find(|c| c.id == id))
                    .map(|c| (c.id, c.core));
                self.current_totals().add(rule);
                self.pending_rule = Some((d.chosen, rule, beat));
            }
            AuditEvent::Grant(g) => {
                let (rule, beat) = match self.pending_rule.take() {
                    Some((decided, rule, beat)) if decided == g.id => (Some(rule), beat),
                    _ => (None, None),
                };
                self.ring.push(TraceEvent::Grant { grant: *g, rule, beat });
                self.push_commands(g);
                if let Some(a) = self.chan_accum.get_mut(g.channel) {
                    if g.write {
                        a.writes += 1;
                    } else {
                        a.reads += 1;
                    }
                    if g.outcome == GrantOutcome::Hit {
                        a.row_hits += 1;
                    }
                }
                let core = usize::from(g.core);
                if !g.write && core < self.tracks.len() {
                    self.tracks[core].completions.push(Reverse(g.data_ready));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_audit::{CandidateInfo, Decision, Submit};

    fn base_config(c: &mut Collector, policy: &'static str) {
        c.record(&AuditEvent::DramConfig {
            channels: 1,
            banks_per_channel: 4,
            timing: TimingParams { t_rcd: 10, t_cl: 10, t_rp: 10, t_wr: 8, burst: 4 },
        });
        c.record(&AuditEvent::CtrlConfig {
            cores: 2,
            policy,
            read_first: true,
            buffer_entries: 64,
            drain_start: 32,
            drain_stop: 16,
            overhead: 0,
        });
        c.record(&AuditEvent::ProfileUpdate { me: vec![4.0, 2.0] });
    }

    fn grant(id: u64, core: u16, write: bool, at: Cycle, outcome: GrantOutcome) -> AuditEvent {
        AuditEvent::Grant(Grant {
            id,
            core,
            channel: 0,
            bank: 0,
            row: 1,
            write,
            at,
            keep_open: true,
            outcome,
            data_ready: at + 24,
        })
    }

    #[test]
    fn decision_then_grant_attributes_rule() {
        let mut c = Collector::new(64);
        base_config(&mut c, "HF-RF");
        c.record(&AuditEvent::Decision(Decision {
            channel: 0,
            at: 5,
            draining: false,
            chosen: 1,
            candidates: vec![
                CandidateInfo {
                    id: 1,
                    core: 0,
                    bank: 0,
                    row: 1,
                    write: false,
                    row_hit: true,
                    arrival: 0,
                },
                CandidateInfo {
                    id: 0,
                    core: 1,
                    bank: 1,
                    row: 2,
                    write: false,
                    row_hit: false,
                    arrival: 0,
                },
            ],
            pending_reads: vec![1, 1],
            why: (Rule::RowHitFirst, Some(0)),
        }));
        c.record(&grant(1, 0, false, 5, GrantOutcome::Hit));
        let (name, totals) = c.active_rule_totals().expect("totals");
        assert_eq!(name, "HF-RF");
        assert_eq!(totals.get(Rule::RowHitFirst), 1);
        let g = c.ring().iter().find_map(|e| match e {
            TraceEvent::Grant { rule, beat, .. } => Some((*rule, *beat)),
            _ => None,
        });
        assert_eq!(g, Some((Some(Rule::RowHitFirst), Some((0, 1)))));
    }

    #[test]
    fn policy_swap_opens_a_new_totals_bucket() {
        let mut c = Collector::new(DEFAULT_TRACE_CAPACITY);
        base_config(&mut c, "HF-RF");
        let one_decision = |c: &mut Collector| {
            c.record(&AuditEvent::Decision(Decision {
                channel: 0,
                at: 5,
                draining: false,
                chosen: 1,
                candidates: vec![CandidateInfo {
                    id: 1,
                    core: 0,
                    bank: 0,
                    row: 1,
                    write: false,
                    row_hit: false,
                    arrival: 0,
                }],
                pending_reads: vec![1, 0],
                why: (Rule::OnlyCandidate, None),
            }));
        };
        one_decision(&mut c);
        c.record(&AuditEvent::CtrlConfig {
            cores: 2,
            policy: "ME-LREQ",
            read_first: true,
            buffer_entries: 64,
            drain_start: 32,
            drain_stop: 16,
            overhead: 0,
        });
        one_decision(&mut c);
        assert_eq!(c.rule_totals().len(), 2);
        assert_eq!(c.rule_totals()[0].0, "HF-RF");
        assert_eq!(c.active_rule_totals().expect("active").0, "ME-LREQ");
    }

    #[test]
    fn a_full_default_ring_holds_what_its_doc_says() {
        let bytes = std::mem::size_of::<TraceEvent>();
        assert!(bytes <= 88, "DEFAULT_TRACE_CAPACITY's doc says 88 bytes an event, not {bytes}");
    }

    #[test]
    fn grant_synthesizes_commands_by_outcome() {
        let mut c = Collector::new(DEFAULT_TRACE_CAPACITY);
        base_config(&mut c, "HF-RF");
        c.record(&grant(0, 0, false, 100, GrantOutcome::Conflict));
        let kinds: Vec<CmdKind> = c
            .ring()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Command { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![CmdKind::Pre, CmdKind::Act, CmdKind::Read]);
    }

    #[test]
    fn epoch_sample_computes_rates_and_resets_accumulators() {
        let mut c = Collector::new(DEFAULT_TRACE_CAPACITY);
        base_config(&mut c, "HF-RF");
        c.record(&grant(0, 0, false, 50, GrantOutcome::Hit));
        c.record(&grant(1, 1, true, 60, GrantOutcome::ClosedMiss));
        c.sample_epoch(
            100,
            &[
                CoreSample { committed: 80, pending_reads: 2 },
                CoreSample { committed: 40, pending_reads: 0 },
            ],
            &[ChannelSample { queue_depth: 3, busy_cycles: 25 }],
        );
        let row = &c.series()[0];
        assert_eq!(row.cycle, 100);
        assert!((row.ipc[0] - 0.8).abs() < 1e-12);
        assert_eq!(row.pending_reads, vec![2, 0]);
        assert_eq!(row.queue_depth, vec![3]);
        assert!((row.bus_util[0] - 0.25).abs() < 1e-12);
        assert_eq!(row.reads, vec![1]);
        assert_eq!(row.writes, vec![1]);
        assert!((row.row_hit_rate[0] - 0.5).abs() < 1e-12);
        // Second epoch: deltas, not cumulative values.
        c.sample_epoch(
            200,
            &[
                CoreSample { committed: 100, pending_reads: 0 },
                CoreSample { committed: 60, pending_reads: 1 },
            ],
            &[ChannelSample { queue_depth: 0, busy_cycles: 35 }],
        );
        let row = &c.series()[1];
        assert!((row.ipc[0] - 0.2).abs() < 1e-12);
        assert!((row.bus_util[0] - 0.1).abs() < 1e-12);
        assert_eq!(row.reads, vec![0]);
        assert_eq!(row.row_hit_rate[0], 0.0);
    }

    #[test]
    fn core_wait_spans_open_and_close() {
        let mut c = Collector::new(DEFAULT_TRACE_CAPACITY);
        base_config(&mut c, "HF-RF");
        c.record(&AuditEvent::Submit(Submit {
            id: 0,
            core: 0,
            channel: 0,
            bank: 0,
            row: 1,
            write: false,
            at: 10,
        }));
        c.record(&grant(0, 0, false, 20, GrantOutcome::Hit)); // data_ready 44
        c.finish();
        let span = c.ring().iter().find_map(|e| match e {
            TraceEvent::CoreWait { core, from, to } => Some((*core, *from, *to)),
            _ => None,
        });
        assert_eq!(span, Some((0, 10, 44)));
    }

    #[test]
    fn fanout_feeds_all_sinks() {
        let a: Arc<Mutex<dyn AuditSink>> = Arc::new(Mutex::new(melreq_audit::Recorder::default()));
        let collector = Arc::new(Mutex::new(Collector::new(DEFAULT_TRACE_CAPACITY)));
        let c_dyn: Arc<Mutex<dyn AuditSink>> = collector.clone();
        let h = AuditHandle::from_shared(vec![a.clone(), c_dyn]);
        h.emit(|| {
            AuditEvent::Submit(Submit {
                id: 0,
                core: 0,
                channel: 0,
                bank: 0,
                row: 0,
                write: false,
                at: 7,
            })
        });
        assert!(format!("{:?}", a.lock().expect("recorder")).contains("Submit"));
        assert_eq!(collector.lock().expect("collector").ring().len(), 1);
    }
}
