//! Chrome/Perfetto `trace_event` JSON export.
//!
//! One process per channel (threads 1.. = banks; its queue-depth
//! counter carries no thread) plus one process for the cores. Timestamps are simulation
//! cycles (the viewer displays them as microseconds — read 1 µs as 1
//! cycle). Events are sorted by start time at export,
//! so the emitted array has monotonically non-decreasing `ts` over all
//! non-metadata entries — CI checks exactly this.

use std::fmt::Write as _;

use melreq_audit::{Grant, Submit};
use melreq_stats::types::{Cycle, RowOutcome};

use crate::collector::Collector;
use crate::event::TraceEvent;

/// pid of the synthetic "cores" process (channels take 1..=channels).
fn cores_pid(channels: usize) -> usize {
    channels + 1
}

fn outcome_name(o: RowOutcome) -> &'static str {
    match o {
        RowOutcome::Hit => "hit",
        RowOutcome::ClosedMiss => "closed-miss",
        RowOutcome::Conflict => "conflict",
    }
}

/// The `traceEvents` array of a Chrome trace being written, one record
/// a line.
pub(crate) struct Events {
    out: String,
    first: bool,
}

impl Events {
    /// Append one record, after a `",\n"` separator unless it is the first.
    pub(crate) fn push(&mut self, body: std::fmt::Arguments<'_>) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("    ");
        let _ = self.out.write_fmt(body);
    }
}

/// A whole Chrome `trace_event` JSON document, the one envelope of both
/// exporters (this sim-time one and [`crate::hostprof`]'s): the
/// `schema_version` and `displayTimeUnit` keys, each of `blocks` as a
/// further top-level `(key, json_value)`, then the `traceEvents` array
/// that `write` fills.
pub(crate) fn chrome_trace(blocks: &[(&str, String)], write: impl FnOnce(&mut Events)) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": {},\n  \"displayTimeUnit\": \"ms\",\n",
        melreq_snap::SCHEMA_VERSION
    );
    for (key, value) in blocks {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    out.push_str("  \"traceEvents\": [\n");
    let mut events = Events { out, first: true };
    write(&mut events);
    events.out.push_str("\n  ]\n}\n");
    events.out
}

/// Render the collector's trace (and epoch series, as counter tracks)
/// as a Chrome `trace_event` JSON object.
pub fn export_chrome_json(collector: &Collector) -> String {
    chrome_trace(&[], |events| write_events(collector, events))
}

fn write_events(collector: &Collector, ev: &mut Events) {
    let (channels, cores) = collector.geometry();

    // Track metadata first (ph "M" entries are exempt from the
    // monotonic-ts contract).
    for ch in 0..channels {
        ev.push(format_args!(
            "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"channel {ch}\"}}}}",
            pid = ch + 1
        ));
    }
    ev.push(format_args!(
        "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"cores\"}}}}",
        pid = cores_pid(channels)
    ));
    for core in 0..cores {
        ev.push(format_args!(
            "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"core {core}\"}}}}",
            pid = cores_pid(channels),
            tid = core + 1
        ));
    }

    // Sort by start cycle: the raw stream is in emission order, and a
    // memory-wait span is pushed when it closes, after the events inside
    // it.
    let mut events: Vec<&TraceEvent> = collector.ring().iter().collect();
    events.sort_by_key(|e| e.at());
    let counters = collector.series();
    let mut counter_i = 0usize;

    let mut flush_counters = |ev: &mut Events, up_to: Cycle| {
        while counter_i < counters.len() && counters[counter_i].cycle <= up_to {
            let row = &counters[counter_i];
            for (ch, depth) in row.queue_depth.iter().enumerate() {
                ev.push(format_args!(
                    "{{\"ph\": \"C\", \"pid\": {pid}, \"ts\": {ts}, \
                     \"name\": \"queue depth\", \"args\": {{\"requests\": {depth}}}}}",
                    pid = ch + 1,
                    ts = row.cycle
                ));
            }
            counter_i += 1;
        }
    };

    for event in events {
        flush_counters(ev, event.at());
        match event {
            TraceEvent::Arrival(Submit { id, core, channel, bank, row, write, at }) => {
                ev.push(format_args!(
                    "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \
                     \"s\": \"t\", \"name\": \"arrival\", \"cat\": \"request\", \
                     \"args\": {{\"id\": {id}, \"channel\": {channel}, \"bank\": {bank}, \
                     \"row\": {row}, \"write\": {write}}}}}",
                    pid = cores_pid(channels),
                    tid = *core as usize + 1
                ));
            }
            TraceEvent::Command { kind, grant, at, dur } => {
                ev.push(format_args!(
                    "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \
                     \"dur\": {dur}, \"name\": \"{name}\", \"cat\": \"dram\", \
                     \"args\": {{\"id\": {id}}}}}",
                    pid = grant.channel + 1,
                    tid = grant.bank + 1,
                    id = grant.id,
                    name = kind.name()
                ));
            }
            TraceEvent::Grant { grant, rule, beat } => {
                let Grant { id, core, channel, bank, row, write, at, outcome, data_ready, .. } =
                    grant;
                let rule_name = rule.map_or("untracked", |r| r.name());
                let mut extra = String::new();
                if let Some((beat_id, beat_core)) = beat {
                    let _ = write!(extra, ", \"beat_id\": {beat_id}, \"beat_core\": {beat_core}");
                }
                ev.push(format_args!(
                    "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \
                     \"s\": \"t\", \"name\": \"grant core{core}\", \"cat\": \"sched\", \
                     \"args\": {{\"id\": {id}, \"row\": {row}, \"write\": {write}, \
                     \"outcome\": \"{oc}\", \"rule\": \"{rule_name}\", \
                     \"data_ready\": {data_ready}{extra}}}}}",
                    pid = channel + 1,
                    tid = bank + 1,
                    oc = outcome_name(*outcome)
                ));
            }
            TraceEvent::CoreWait { core, from, to } => {
                ev.push(format_args!(
                    "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {from}, \
                     \"dur\": {dur}, \"name\": \"mem-wait\", \"cat\": \"core\", \
                     \"args\": {{}}}}",
                    pid = cores_pid(channels),
                    tid = *core as usize + 1,
                    dur = to.saturating_sub(*from).max(1)
                ));
            }
        }
    }
    flush_counters(ev, Cycle::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{ChannelSample, CoreSample, DEFAULT_TRACE_CAPACITY};
    use melreq_audit::{AuditEvent, AuditSink, TimingParams};

    fn collector_with_activity() -> Collector {
        let mut c = Collector::new(DEFAULT_TRACE_CAPACITY);
        c.record(&AuditEvent::DramConfig {
            channels: 2,
            banks_per_channel: 4,
            timing: TimingParams { t_rcd: 10, t_rp: 10, ..TimingParams::default() },
        });
        c.record(&AuditEvent::CtrlConfig {
            cores: 2,
            policy: "HF-RF",
            read_first: true,
            buffer_entries: 64,
            drain_start: 32,
            drain_stop: 16,
            overhead: 0,
        });
        c.record(&AuditEvent::Submit(Submit {
            id: 0,
            core: 1,
            channel: 0,
            bank: 2,
            row: 9,
            write: false,
            at: 5,
        }));
        c.record(&AuditEvent::Grant(Grant {
            id: 0,
            core: 1,
            channel: 0,
            bank: 2,
            row: 9,
            write: false,
            at: 12,
            keep_open: true,
            outcome: RowOutcome::ClosedMiss,
            data_ready: 40,
        }));
        // Core 1's memory-wait span (5 → 40) reaches the ring after the
        // grant inside it: export must re-sort.
        c.sample_epoch(
            50,
            &[CoreSample { committed: 10, pending_reads: 0 }; 2],
            &[ChannelSample { queue_depth: 1, busy_cycles: 4 }; 2],
        );
        c.finish();
        c
    }

    fn ts_values(json: &str) -> Vec<i64> {
        // Non-metadata events all carry "ts": N — extract in order.
        json.lines()
            .filter(|l| !l.contains("\"ph\": \"M\""))
            .filter_map(|l| {
                let i = l.find("\"ts\": ")?;
                let rest = &l[i + 6..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()
            })
            .collect()
    }

    #[test]
    fn export_is_time_sorted_and_structured() {
        let c = collector_with_activity();
        let json = export_chrome_json(&c);
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"channel 0\""));
        assert!(json.contains("\"name\": \"cores\""));
        assert!(json.contains("\"name\": \"ACT\""));
        assert!(json.contains("mem-wait"));
        assert!(json.contains("queue depth"));
        let ts = ts_values(&json);
        assert!(!ts.is_empty());
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts must be non-decreasing: {ts:?}");
    }

    #[test]
    fn export_balances_braces_and_brackets() {
        let json = export_chrome_json(&collector_with_activity());
        let depth_ok = |open: char, close: char| {
            let mut d = 0i64;
            for ch in json.chars() {
                if ch == open {
                    d += 1;
                } else if ch == close {
                    d -= 1;
                    assert!(d >= 0);
                }
            }
            d == 0
        };
        assert!(depth_ok('{', '}'));
        assert!(depth_ok('[', ']'));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }
}
