//! Chrome/Perfetto `trace_event` JSON export.
//!
//! One process per channel (threads = banks, thread 0 = channel-level
//! events such as refresh) plus one process for the cores. Timestamps
//! are simulation cycles (the viewer displays them as microseconds —
//! read 1 µs as 1 cycle). Events are sorted by start time at export,
//! so the emitted array has monotonically non-decreasing `ts` over all
//! non-metadata entries — CI checks exactly this.

use std::fmt::Write as _;

use melreq_audit::GrantOutcome;
use melreq_stats::types::Cycle;

use crate::collector::Collector;
use crate::event::TraceEvent;

/// pid of the synthetic "cores" process (channels take 1..=channels).
fn cores_pid(channels: usize) -> usize {
    channels + 1
}

fn outcome_name(o: GrantOutcome) -> &'static str {
    match o {
        GrantOutcome::Hit => "hit",
        GrantOutcome::ClosedMiss => "closed-miss",
        GrantOutcome::Conflict => "conflict",
    }
}

/// Append one `trace_event` record with the `",\n"` separator protocol
/// (shared with the host-profile exporter in [`crate::hostprof`]).
pub(crate) fn push_event(out: &mut String, first: &mut bool, body: std::fmt::Arguments<'_>) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("    ");
    let _ = out.write_fmt(body);
}

/// Render the collector's trace (and epoch series, as counter tracks)
/// as a Chrome `trace_event` JSON object.
pub fn export_chrome_json(collector: &Collector) -> String {
    let (channels, cores) = collector.geometry();
    let mut out = format!(
        "{{\n  \"schema_version\": {},\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n",
        melreq_snap::SCHEMA_VERSION
    );
    let mut first = true;

    // Track metadata first (ph "M" entries are exempt from the
    // monotonic-ts contract).
    for ch in 0..channels {
        push_event(
            &mut out,
            &mut first,
            format_args!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"channel {ch}\"}}}}",
                pid = ch + 1
            ),
        );
        push_event(
            &mut out,
            &mut first,
            format_args!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"channel\"}}}}",
                pid = ch + 1
            ),
        );
    }
    push_event(
        &mut out,
        &mut first,
        format_args!(
            "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"cores\"}}}}",
            pid = cores_pid(channels)
        ),
    );
    for core in 0..cores {
        push_event(
            &mut out,
            &mut first,
            format_args!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"core {core}\"}}}}",
                pid = cores_pid(channels),
                tid = core + 1
            ),
        );
    }

    // Sort by start cycle: the raw stream is in emission order, and a
    // lazily synced device may emit a refresh with an earlier timestamp
    // than the grant that triggered the sync.
    let mut events: Vec<&TraceEvent> = collector.ring().iter().collect();
    events.sort_by_key(|e| e.at());
    let counters = collector.series();
    let mut counter_i = 0usize;

    let mut flush_counters = |out: &mut String, first: &mut bool, up_to: Cycle| {
        while counter_i < counters.len() && counters[counter_i].cycle <= up_to {
            let row = &counters[counter_i];
            for (ch, depth) in row.queue_depth.iter().enumerate() {
                push_event(
                    out,
                    first,
                    format_args!(
                        "{{\"ph\": \"C\", \"pid\": {pid}, \"ts\": {ts}, \
                         \"name\": \"queue depth\", \"args\": {{\"requests\": {depth}}}}}",
                        pid = ch + 1,
                        ts = row.cycle
                    ),
                );
            }
            counter_i += 1;
        }
    };

    for ev in events {
        flush_counters(&mut out, &mut first, ev.at());
        match ev {
            TraceEvent::Arrival { id, core, channel, bank, row, write, at } => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \
                         \"s\": \"t\", \"name\": \"arrival\", \"cat\": \"request\", \
                         \"args\": {{\"id\": {id}, \"channel\": {channel}, \"bank\": {bank}, \
                         \"row\": {row}, \"write\": {write}}}}}",
                        pid = cores_pid(channels),
                        tid = *core as usize + 1
                    ),
                );
            }
            TraceEvent::Command { kind, channel, bank, id, at, dur } => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \
                         \"dur\": {dur}, \"name\": \"{name}\", \"cat\": \"dram\", \
                         \"args\": {{\"id\": {id}}}}}",
                        pid = channel + 1,
                        tid = bank + 1,
                        name = kind.name()
                    ),
                );
            }
            TraceEvent::Refresh { channel, at, dur } => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": 0, \"ts\": {at}, \
                         \"dur\": {dur}, \"name\": \"REFRESH\", \"cat\": \"dram\", \
                         \"args\": {{}}}}",
                        pid = channel + 1
                    ),
                );
            }
            TraceEvent::Grant {
                id,
                core,
                channel,
                bank,
                row,
                write,
                at,
                queued_for,
                outcome,
                data_ready,
                rule,
                runner_up,
            } => {
                let rule_name = rule.map_or("untracked", |r| r.name());
                let mut extra = String::new();
                if let Some(ru) = runner_up {
                    let _ = write!(extra, ", \"beat_id\": {}, \"beat_core\": {}", ru.id, ru.core);
                }
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \
                         \"s\": \"t\", \"name\": \"grant core{core}\", \"cat\": \"sched\", \
                         \"args\": {{\"id\": {id}, \"row\": {row}, \"write\": {write}, \
                         \"outcome\": \"{oc}\", \"rule\": \"{rule_name}\", \
                         \"queued_for\": {queued_for}, \"data_ready\": {data_ready}{extra}}}}}",
                        pid = channel + 1,
                        tid = bank + 1,
                        oc = outcome_name(*outcome)
                    ),
                );
            }
            TraceEvent::CoreWait { core, from, to } => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {from}, \
                         \"dur\": {dur}, \"name\": \"mem-wait\", \"cat\": \"core\", \
                         \"args\": {{}}}}",
                        pid = cores_pid(channels),
                        tid = *core as usize + 1,
                        dur = to.saturating_sub(*from).max(1)
                    ),
                );
            }
        }
    }
    flush_counters(&mut out, &mut first, Cycle::MAX);

    out.push_str("\n  ]\n}\n");
    out
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
            timing: TimingParams { t_rcd: 10, t_rp: 10, t_rfc: 60, ..TimingParams::default() },
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
        c.record(&AuditEvent::Submit {
            id: 0,
            core: 1,
            channel: 0,
            bank: 2,
            row: 9,
            write: false,
            at: 5,
        });
        c.record(&AuditEvent::Grant {
            id: 0,
            core: 1,
            channel: 0,
            bank: 2,
            row: 9,
            write: false,
            requested_at: 5,
            granted_at: 12,
            keep_open: true,
            outcome: melreq_audit::GrantOutcome::ClosedMiss,
            data_ready: 40,
        });
        // An out-of-order (late-synced) refresh: export must re-sort.
        c.record(&AuditEvent::Refresh { channel: 1, at: 2 });
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
        assert!(json.contains("REFRESH"));
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
