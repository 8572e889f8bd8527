//! Chrome/Perfetto `trace_event` export of a host-side span profile
//! (`melreq-prof`).
//!
//! This is the *wall-clock* clock domain: timestamps are microseconds
//! since the profiler epoch — a deliberately separate domain from the
//! sim-time traces [`crate::perfetto::export_chrome_json`] emits, where
//! 1 "µs" is one simulated DRAM cycle. The two exports share one
//! envelope (`perfetto::chrome_trace`) and the writer protocol (metadata
//! records first, `X` slices sorted by start so `ts` is monotonically
//! non-decreasing) but never share a file.
//!
//! Layout: one synthetic process (`pid` 1, named after the profiled
//! command) with one thread track per [`melreq_prof::TrackData`] —
//! `"worker 0"`..`"worker N"` for the sweep executor, `"main"` for the
//! driving thread. The aggregated summary and the buildinfo block are
//! embedded as extra top-level keys (Perfetto ignores unknown keys).

use crate::perfetto::{chrome_trace, Events};
use melreq_prof::{Profile, Span};
use melreq_snap::json_esc as esc;

/// The synthetic host process id.
const HOST_PID: usize = 1;

/// Render a drained host profile as Chrome `trace_event` JSON.
///
/// `process_name` labels the synthetic process (e.g. `"melreq
/// reproduce"`). `extra_blocks` are `(key, json_value)` pairs appended
/// as additional top-level keys — the aggregated summary
/// (`melreq_prof::Summary::render_json`) and the buildinfo block.
pub fn export_host_profile(
    profile: &Profile,
    process_name: &str,
    extra_blocks: &[(&str, String)],
) -> String {
    chrome_trace(extra_blocks, |events| write_events(profile, process_name, events))
}

fn write_events(profile: &Profile, process_name: &str, ev: &mut Events) {
    ev.push(format_args!(
        "{{\"ph\": \"M\", \"pid\": {HOST_PID}, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"{}\"}}}}",
        esc(process_name)
    ));
    for (tid0, track) in profile.tracks.iter().enumerate() {
        ev.push(format_args!(
            "{{\"ph\": \"M\", \"pid\": {HOST_PID}, \"tid\": {tid}, \
             \"name\": \"thread_name\", \"args\": {{\"name\": \"{}\"}}}}",
            esc(&track.label),
            tid = tid0 + 1
        ));
    }

    // One global start-sorted stream across tracks: the monotonic-ts
    // contract CI checks for sim traces holds here too.
    let mut events: Vec<(usize, &Span)> = Vec::with_capacity(profile.total_spans());
    for (tid0, track) in profile.tracks.iter().enumerate() {
        for span in &track.spans {
            events.push((tid0 + 1, span));
        }
    }
    events.sort_by_key(|(_, s)| s.start_ns);

    for (tid, span) in events {
        let mut args = String::new();
        for (k, v) in span.args() {
            if !args.is_empty() {
                args.push_str(", ");
            }
            args.push_str(&format!("\"{}\": {v}", esc(k)));
        }
        ev.push(format_args!(
            "{{\"ph\": \"X\", \"pid\": {HOST_PID}, \"tid\": {tid}, \"ts\": {ts}, \
             \"dur\": {dur}, \"name\": \"{name}\", \"cat\": \"{cat}\", \
             \"args\": {{{args}}}}}",
            ts = span.start_ns / 1_000,
            dur = (span.dur_ns / 1_000).max(1),
            name = esc(&span.name),
            cat = esc(span.cat)
        ));
    }
}

/// The end of a profiled command: stop recording, drain every thread's
/// spans and write them to `path` as the Perfetto trace of `process_name`,
/// with the aggregated summary and the caller's `buildinfo` block
/// embedded. Returns the summary for the caller to print.
pub fn finish_host_profile(
    path: &std::path::Path,
    process_name: &str,
    buildinfo: String,
) -> std::io::Result<melreq_prof::Summary> {
    melreq_prof::disable();
    let profile = melreq_prof::drain();
    let summary = melreq_prof::summarize(&profile, 10);
    let blocks = [("summary", summary.render_json()), ("buildinfo", buildinfo)];
    std::fs::write(path, export_host_profile(&profile, process_name, &blocks))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a profile without going through the global recorder (unit
    /// tests must not race other tests over the process-wide state).
    fn sample_profile() -> Profile {
        melreq_prof::disable();
        let _ = melreq_prof::drain();
        melreq_prof::enable();
        melreq_prof::set_thread_track(|| "worker 0".to_string());
        melreq_prof::record("exec.job", || "job 0".to_string(), 2_000, 9_000, &[("prio", 8)]);
        melreq_prof::record("warmup", || "4MEM-1".to_string(), 1_000, 5_000, &[]);
        melreq_prof::disable();
        melreq_prof::drain()
    }

    #[test]
    fn host_export_is_sorted_and_carries_tracks_and_blocks() {
        let profile = sample_profile();
        let json = export_host_profile(
            &profile,
            "melreq test",
            &[("summary", melreq_prof::summarize(&profile, 3).render_json())],
        );
        assert!(json.contains("\"summary\": {"));
        assert!(json.contains("\"name\": \"melreq test\""));
        assert!(json.contains("\"name\": \"worker 0\""));
        assert!(json.contains("\"cat\": \"exec.job\""));
        assert!(json.contains("\"prio\": 8"));
        // The warmup span starts earlier and must be emitted first.
        let warm = json.find("\"name\": \"4MEM-1\"").expect("warmup span present");
        let job = json.find("\"name\": \"job 0\"").expect("job span present");
        assert!(warm < job, "events sorted by start time");
        // Balanced structure, no trailing comma.
        assert!(!json.contains(",\n  ]"));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
