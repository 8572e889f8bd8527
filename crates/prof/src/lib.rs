//! # melreq-prof — host-side wall-clock span profiler
//!
//! A light instrumentation layer (its one dependency is the `melreq-snap`
//! leaf, for the shared JSON escaper) for attributing *host* time
//! (as opposed to the deterministic *simulated* time melreq-obs
//! traces): where the wall-clock goes inside the sweep executor, the
//! HTTP service event loop, and the experiment kernel.
//!
//! Design:
//!
//! * **Thread-local ring recorders** — each thread records spans
//!   (category + name + start/duration + up to four `u64` args) into a
//!   bounded [`Ring`]; when full the oldest span is dropped and a
//!   dropped counter incremented, so recording never blocks and never
//!   grows without bound.
//! * **Process-wide collector** — a thread's ring is flushed into a
//!   global collector when the thread exits (worker threads) or when
//!   [`drain`] runs (the calling thread); [`drain`] merges tracks by
//!   label into a [`Profile`].
//! * **Negligible overhead when disabled** — every entry point checks
//!   one relaxed atomic and returns; span names are built lazily
//!   (closures), so the disabled path allocates nothing.
//!
//! **Inertness contract**: profiling reads the wall clock and writes
//! thread-local memory — nothing else. It never touches simulation
//! state, RNG streams, or audit streams, so a profiled run is
//! bit-identical to an unprofiled one (pinned by the profiler-inertness
//! integration test). This crate is the *only* non-exempt home of
//! wall-clock reads; each carries an `#[expect(clippy::disallowed_methods)]`
//! with its justification.

use melreq_snap::json_esc;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum `u64` args carried per span (a kernel span carries all nine
/// of `melreq_core::KernelCounters`, and `taped` when it read op tapes).
pub const MAX_ARGS: usize = 10;

/// Default per-thread ring capacity in spans.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One recorded span: a closed `[start, start+dur)` interval on the
/// profiler clock (ns since the first [`enable`]).
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage category (`"exec.job"`, `"warmup"`, `"serve.request"`...).
    pub cat: &'static str,
    /// Instance label (mix/policy names, request ids...).
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    args: [(&'static str, u64); MAX_ARGS],
    nargs: u8,
}

impl Span {
    /// The span's key/value args, in recording order.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..usize::from(self.nargs)]
    }

    /// Value of arg `key`, if recorded.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args().iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Bounded drop-oldest buffer with an accurate dropped counter: once
/// full, each push discards the oldest item and counts it, so the ring
/// always holds the most recent window. It holds this crate's spans and
/// melreq-obs's simulated-time trace events.
#[derive(Debug)]
pub struct Ring<T> {
    cap: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `cap` items (0 is clamped to 1).
    pub fn new(cap: usize) -> Self {
        Ring { cap: cap.max(1), items: VecDeque::new(), dropped: 0 }
    }

    /// Append one item, evicting the oldest when at capacity.
    pub fn push(&mut self, item: T) {
        if self.items.len() >= self.cap {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items dropped to the capacity bound since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Remove and return all buffered items (dropped counter persists).
    pub fn take(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }

    /// Oldest-to-newest view of the buffered items.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// One thread's worth of drained spans.
#[derive(Debug)]
pub struct TrackData {
    /// Track label (`"main"`, `"worker 0"`, `"serve netio"`...).
    pub label: String,
    /// Spans sorted by `start_ns`.
    pub spans: Vec<Span>,
    /// Spans lost to ring overflow on this track.
    pub dropped: u64,
}

/// Everything recorded since the last [`drain`], merged by track label.
#[derive(Debug, Default)]
pub struct Profile {
    pub tracks: Vec<TrackData>,
}

impl Profile {
    pub fn total_spans(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// `[min start, max end]` over every span, or `None` when empty.
    pub fn window(&self) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for t in &self.tracks {
            for s in &t.spans {
                lo = lo.min(s.start_ns);
                hi = hi.max(s.end_ns());
            }
        }
        (lo != u64::MAX).then_some((lo, hi))
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTOR: Mutex<Vec<TrackData>> = Mutex::new(Vec::new());

struct Recorder {
    label: Option<String>,
    ring: Ring<Span>,
}

impl Recorder {
    fn flush_into_collector(&mut self) {
        if self.ring.is_empty() && self.ring.dropped() == 0 {
            return;
        }
        let track = TrackData {
            label: self.label.take().unwrap_or_else(|| "thread".to_string()),
            spans: self.ring.take(),
            dropped: self.ring.dropped(),
        };
        self.ring.dropped = 0;
        if let Ok(mut c) = COLLECTOR.lock() {
            c.push(track);
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Best-effort net for threads that never call [`flush_thread`].
        // Not sufficient on its own: scoped pools observe thread
        // completion when the closure returns, which can be *before*
        // TLS destructors run — instrumented worker loops must flush
        // explicitly on their way out.
        self.flush_into_collector();
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> =
        RefCell::new(Recorder { label: None, ring: Ring::new(DEFAULT_RING_CAPACITY) });
}

/// Turn span recording on. The first call fixes the profiler epoch; all
/// spans across enable/disable cycles share one monotonic clock.
pub fn enable() {
    #[expect(
        clippy::disallowed_methods,
        reason = "the profiler epoch is the reference point all host-time spans are measured from; no simulated state ever derives from it"
    )]
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Release);
}

/// Turn span recording off (already-buffered spans stay drainable).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Is recording currently on? One relaxed atomic load — the fast path
/// every instrumentation site bails out through when profiling is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the profiler epoch; `0` when profiling is off.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "host-time span stamp for the self-profile; simulation state never observes it"
)]
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    let Some(epoch) = EPOCH.get() else { return 0 };
    ns_since(*epoch, Instant::now())
}

/// Map an externally-taken [`Instant`] onto the profiler clock; `0`
/// when profiling is off. Lets already-instrumented code (the serve
/// event loop keeps wall stamps for its latency histograms regardless)
/// reuse its stamps for spans.
pub fn ns_of(t: Instant) -> u64 {
    if !enabled() {
        return 0;
    }
    let Some(epoch) = EPOCH.get() else { return 0 };
    ns_since(*epoch, t)
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.checked_duration_since(epoch).map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Label the current thread's track (`"worker 3"`...). Lazy: the label
/// closure only runs while profiling is on.
pub fn set_thread_track(label: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let label = label();
    RECORDER.with(|r| r.borrow_mut().label = Some(label));
}

/// Record a span from explicit profiler-clock stamps (for intervals
/// that start on one code path and end on another, e.g. queue waits).
/// No-op when profiling is off or the stamps predate it.
pub fn record(
    cat: &'static str,
    name: impl FnOnce() -> String,
    start_ns: u64,
    end_ns: u64,
    args: &[(&'static str, u64)],
) {
    if !enabled() || end_ns < start_ns || (start_ns == 0 && end_ns == 0) {
        return;
    }
    let mut packed = [("", 0u64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    let span = Span {
        cat,
        name: name(),
        start_ns,
        dur_ns: end_ns - start_ns,
        args: packed,
        nargs: u8::try_from(n).expect("MAX_ARGS fits in u8"),
    };
    RECORDER.with(|r| r.borrow_mut().ring.push(span));
}

/// RAII span: records `[creation, drop)` on the current thread's track.
/// Inert (and allocation-free) when profiling is off.
pub struct SpanGuard {
    cat: &'static str,
    name: Option<String>,
    start_ns: u64,
    args: [(&'static str, u64); MAX_ARGS],
    nargs: u8,
}

impl SpanGuard {
    /// Attach a `u64` arg (silently ignored past [`MAX_ARGS`]).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.name.is_none() {
            return;
        }
        let n = usize::from(self.nargs);
        if n < MAX_ARGS {
            self.args[n] = (key, value);
            self.nargs += 1;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else { return };
        let end = now_ns();
        if end < self.start_ns {
            return;
        }
        let span = Span {
            cat: self.cat,
            name,
            start_ns: self.start_ns,
            dur_ns: end - self.start_ns,
            args: self.args,
            nargs: self.nargs,
        };
        RECORDER.with(|r| r.borrow_mut().ring.push(span));
    }
}

/// Open a span that closes (and records) when the guard drops. The name
/// closure only runs while profiling is on.
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { cat, name: None, start_ns: 0, args: [("", 0); MAX_ARGS], nargs: 0 };
    }
    SpanGuard { cat, name: Some(name()), start_ns: now_ns(), args: [("", 0); MAX_ARGS], nargs: 0 }
}

/// Flush the calling thread's recorder into the process-wide
/// collector. Worker loops call this before returning: joining a
/// scoped thread does not wait for its TLS destructors, so the Drop
/// flush alone can lose a race against [`drain`].
pub fn flush_thread() {
    RECORDER.with(|r| r.borrow_mut().flush_into_collector());
}

/// Flush the calling thread's recorder and collect every track flushed
/// so far (threads that exited, plus this one) into a [`Profile`].
/// Tracks sharing a label — e.g. `"worker 0"` across two scoped pools —
/// are merged. The collector is left empty.
pub fn drain() -> Profile {
    flush_thread();
    let raw = {
        let mut c = COLLECTOR.lock().expect("prof collector poisoned");
        std::mem::take(&mut *c)
    };
    let mut tracks: Vec<TrackData> = Vec::new();
    for t in raw {
        match tracks.iter_mut().find(|have| have.label == t.label) {
            Some(have) => {
                have.spans.extend(t.spans);
                have.dropped += t.dropped;
            }
            None => tracks.push(t),
        }
    }
    for t in &mut tracks {
        t.spans.sort_by_key(|s| s.start_ns);
    }
    tracks.sort_by(|a, b| a.label.cmp(&b.label));
    Profile { tracks }
}

// ---------------------------------------------------------------------
// Aggregation: the self-profile summary.
// ---------------------------------------------------------------------

/// Per-track utilization over the profile window.
#[derive(Debug)]
pub struct TrackStat {
    pub label: String,
    pub spans: u64,
    /// Union of span intervals on this track (nested spans counted once).
    pub busy_ns: u64,
    /// `busy_ns` over the whole profile window, in percent.
    pub busy_pct: f64,
    pub dropped: u64,
}

/// Per-category (stage) aggregate.
#[derive(Debug)]
pub struct StageStat {
    pub cat: String,
    pub count: u64,
    /// Sum of span durations (total work attributed to the stage).
    pub busy_ns: u64,
    /// Stage critical path: `max(end) - min(start)` over its spans —
    /// the elapsed window the stage kept *some* thread occupied.
    pub critical_path_ns: u64,
}

/// One `(category, name)` total for the top-N table.
#[derive(Debug)]
pub struct TopSpan {
    pub cat: String,
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}

/// The aggregated self-profile: what `--profile` prints and embeds.
#[derive(Debug, Default)]
pub struct Summary {
    /// Whole profile window (first span start to last span end), ns.
    pub window_ns: u64,
    pub tracks: Vec<TrackStat>,
    pub stages: Vec<StageStat>,
    pub top: Vec<TopSpan>,
    pub total_spans: u64,
    pub total_dropped: u64,
}

/// Union length of a set of `[start, end)` intervals.
fn interval_union_ns(spans: &[Span]) -> u64 {
    // Spans arrive sorted by start (drain guarantees it).
    let mut busy = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for s in spans {
        let (a, b) = (s.start_ns, s.end_ns());
        match &mut cur {
            Some((_, end)) if a <= *end => *end = (*end).max(b),
            Some((start, end)) => {
                busy += *end - *start;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((start, end)) = cur {
        busy += end - start;
    }
    busy
}

/// Aggregate a drained [`Profile`] into the printable/embeddable
/// summary: per-track busy %, per-stage totals and critical paths, and
/// the `top_n` largest `(category, name)` time sinks.
pub fn summarize(profile: &Profile, top_n: usize) -> Summary {
    let Some((lo, hi)) = profile.window() else { return Summary::default() };
    let window_ns = hi - lo;
    let tracks = profile
        .tracks
        .iter()
        .map(|t| {
            let busy_ns = interval_union_ns(&t.spans);
            TrackStat {
                label: t.label.clone(),
                spans: t.spans.len() as u64,
                busy_ns,
                busy_pct: if window_ns == 0 {
                    0.0
                } else {
                    busy_ns as f64 / window_ns as f64 * 100.0
                },
                dropped: t.dropped,
            }
        })
        .collect();

    // Each stage beside its window: (min span start, max span end).
    let mut stages: Vec<(StageStat, (u64, u64))> = Vec::new();
    let mut totals: Vec<TopSpan> = Vec::new();
    for t in &profile.tracks {
        for s in &t.spans {
            match stages.iter_mut().find(|(g, _)| g.cat == s.cat) {
                Some((g, (start, end))) => {
                    g.count += 1;
                    g.busy_ns += s.dur_ns;
                    *start = (*start).min(s.start_ns);
                    *end = (*end).max(s.end_ns());
                }
                None => stages.push((
                    StageStat {
                        cat: s.cat.to_string(),
                        count: 1,
                        busy_ns: s.dur_ns,
                        critical_path_ns: 0,
                    },
                    (s.start_ns, s.end_ns()),
                )),
            }
            match totals.iter_mut().find(|g| g.cat == s.cat && g.name == s.name) {
                Some(g) => {
                    g.count += 1;
                    g.total_ns += s.dur_ns;
                }
                None => totals.push(TopSpan {
                    cat: s.cat.to_string(),
                    name: s.name.clone(),
                    count: 1,
                    total_ns: s.dur_ns,
                }),
            }
        }
    }
    let mut stages: Vec<StageStat> = stages
        .into_iter()
        .map(|(g, (start, end))| StageStat { critical_path_ns: end - start, ..g })
        .collect();
    stages.sort_by_key(|g| std::cmp::Reverse(g.busy_ns));
    totals.sort_by_key(|g| std::cmp::Reverse(g.total_ns));
    totals.truncate(top_n);

    Summary {
        window_ns,
        tracks,
        stages,
        top: totals,
        total_spans: profile.total_spans() as u64,
        total_dropped: profile.total_dropped(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Summary {
    /// Render the summary as one JSON object — the block embedded both
    /// in the Perfetto artifact (viewers ignore unknown top-level keys)
    /// and in `BENCH_sweep.json` under `"host_profile"`. Deliberately
    /// avoids the key names CI's deterministic artifact diff greps for.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write_kv(&mut out, "window_ms", &format!("{:.3}", ms(self.window_ns)));
        let _ = write_kv(&mut out, "spans", &self.total_spans.to_string());
        let _ = write_kv(&mut out, "dropped_spans", &self.total_dropped.to_string());
        out.push_str("\"workers\":[");
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"track\":\"{}\",\"spans\":{},\"busy_ms\":{:.3},\"busy_pct\":{:.2},\"dropped\":{}}}",
                json_esc(&t.label),
                t.spans,
                ms(t.busy_ns),
                t.busy_pct,
                t.dropped
            ));
        }
        out.push_str("],\"stages\":[");
        for (i, g) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"count\":{},\"busy_ms\":{:.3},\"critical_path_ms\":{:.3}}}",
                json_esc(&g.cat),
                g.count,
                ms(g.busy_ns),
                ms(g.critical_path_ns)
            ));
        }
        out.push_str("],\"top_spans\":[");
        for (i, t) in self.top.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"cat\":\"{}\",\"name\":\"{}\",\"count\":{},\"total_ms\":{:.3}}}",
                json_esc(&t.cat),
                json_esc(&t.name),
                t.count,
                ms(t.total_ns)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Human rendering: the tables `--profile` prints after a run.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "host profile: {:.1} ms window, {} spans ({} dropped)\n",
            ms(self.window_ns),
            self.total_spans,
            self.total_dropped
        );
        out.push_str("  track utilization:\n");
        for t in &self.tracks {
            out.push_str(&format!(
                "    {:<16} busy {:>8.1} ms ({:>5.1}%), {} spans\n",
                t.label,
                ms(t.busy_ns),
                t.busy_pct,
                t.spans
            ));
        }
        out.push_str("  stages (total work / critical path):\n");
        for g in &self.stages {
            out.push_str(&format!(
                "    {:<16} {:>8.1} ms / {:>8.1} ms over {} span(s)\n",
                g.cat,
                ms(g.busy_ns),
                ms(g.critical_path_ns),
                g.count
            ));
        }
        if !self.top.is_empty() {
            out.push_str("  top spans by total time:\n");
            for t in &self.top {
                out.push_str(&format!(
                    "    {:<16} {:<24} {:>8.1} ms over {} span(s)\n",
                    t.cat,
                    t.name,
                    ms(t.total_ns),
                    t.count
                ));
            }
        }
        out
    }
}

fn write_kv(out: &mut String, key: &str, raw_value: &str) -> std::fmt::Result {
    use std::fmt::Write as _;
    write!(out, "\"{key}\":{raw_value},")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enable/disable and the collector are process-global; tests that
    /// touch them serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn mk(cat: &'static str, name: &str, start: u64, dur: u64) -> Span {
        Span {
            cat,
            name: name.to_string(),
            start_ns: start,
            dur_ns: dur,
            args: [("", 0); MAX_ARGS],
            nargs: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_counts_and_clamps_zero_capacity() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2, "two oldest items evicted");
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3, 4], "newest kept");
        assert_eq!(ring.take(), [2, 3, 4]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "take() reports, not resets, the loss");

        let mut ring = Ring::new(0);
        ring.push("a");
        ring.push("b");
        assert_eq!((ring.len(), ring.dropped()), (1, 1), "capacity 0 is clamped to 1");
        assert_eq!(ring.take(), ["b"]);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let _g = locked();
        disable();
        let _ = drain(); // clear any residue from other tests
        assert_eq!(now_ns(), 0);
        {
            let mut s = span("test", || unreachable!("name closure must not run when disabled"));
            s.arg("k", 1);
        }
        record("test", || unreachable!("disabled record must not name"), 1, 2, &[]);
        set_thread_track(|| unreachable!("disabled track label must not build"));
        let p = drain();
        assert_eq!(p.total_spans(), 0, "nothing recorded while disabled");
    }

    #[test]
    fn enabled_spans_round_trip_through_drain() {
        let _g = locked();
        disable();
        let _ = drain();
        enable();
        set_thread_track(|| "unit".to_string());
        {
            let mut s = span("test.cat", || "outer".to_string());
            s.arg("k", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t0 = now_ns();
        record("test.cat", || "stamped".to_string(), t0, t0 + 500, &[("prio", 4)]);
        disable();
        let p = drain();
        let track = p.tracks.iter().find(|t| t.label == "unit").expect("unit track present");
        assert_eq!(track.spans.len(), 2);
        let outer = track.spans.iter().find(|s| s.name == "outer").expect("outer span");
        assert!(outer.dur_ns >= 1_000_000, "slept 2 ms, span must be >= 1 ms");
        assert_eq!(outer.arg("k"), Some(7));
        let stamped = track.spans.iter().find(|s| s.name == "stamped").expect("stamped span");
        assert_eq!(stamped.dur_ns, 500);
        assert_eq!(stamped.arg("prio"), Some(4));
        assert_eq!(drain().total_spans(), 0, "drain leaves the collector empty");
    }

    #[test]
    fn drain_merges_same_labeled_tracks_and_collects_dead_threads() {
        let _g = locked();
        disable();
        let _ = drain();
        enable();
        for round in 0..2u64 {
            std::thread::scope(|s| {
                s.spawn(move || {
                    set_thread_track(|| "pool worker".to_string());
                    record(
                        "test.merge",
                        || format!("round {round}"),
                        10 * round + 1,
                        10 * round + 5,
                        &[],
                    );
                    flush_thread();
                });
            });
        }
        disable();
        let p = drain();
        let track =
            p.tracks.iter().find(|t| t.label == "pool worker").expect("merged worker track");
        assert_eq!(track.spans.len(), 2, "both scoped-pool generations merged into one track");
        assert!(track.spans[0].start_ns <= track.spans[1].start_ns, "spans sorted by start");
    }

    #[test]
    fn summary_busy_uses_interval_union() {
        let profile = Profile {
            tracks: vec![
                TrackData {
                    label: "worker 0".to_string(),
                    // An outer 0..100 span with nested 10..50 and 5..15
                    // spans: busy must be 100, not 150.
                    spans: vec![
                        mk("exec.job", "outer", 0, 100),
                        mk("warmup", "inner", 10, 40),
                        mk("decode", "early", 5, 10),
                    ],
                    dropped: 3,
                },
                TrackData {
                    label: "worker 1".to_string(),
                    spans: vec![mk("decode", "late", 60, 30)],
                    dropped: 0,
                },
            ],
        };
        let s = summarize(&profile, 5);
        assert_eq!(s.window_ns, 100);
        assert_eq!(s.tracks.len(), 2);
        assert_eq!(s.tracks[0].busy_ns, 100, "nested spans are not double-counted");
        assert!((s.tracks[0].busy_pct - 100.0).abs() < 1e-9);
        assert_eq!(s.tracks[0].dropped, 3);
        assert_eq!(s.total_dropped, 3);
        let warm = s.stages.iter().find(|g| g.cat == "warmup").expect("warmup stage");
        assert_eq!(warm.busy_ns, 40);
        assert_eq!(warm.critical_path_ns, 40, "stage window is max end - min start");
        // One stage on two tracks: 5..15 on one, 60..90 on the other.
        let decode = s.stages.iter().find(|g| g.cat == "decode").expect("decode stage");
        assert_eq!((decode.count, decode.busy_ns), (2, 40));
        assert_eq!(decode.critical_path_ns, 85, "the window spans both tracks");
    }

    #[test]
    fn summary_ranks_top_spans() {
        let profile = Profile {
            tracks: vec![TrackData {
                label: "worker 1".to_string(),
                spans: vec![
                    mk("exec.job", "job 4", 0, 10),
                    mk("exec.job", "job 5", 20, 5),
                    mk("policy", "RR 2MEM-1", 30, 90),
                ],
                dropped: 0,
            }],
        };
        let s = summarize(&profile, 2);
        assert_eq!(s.tracks[0].spans, 3);
        assert_eq!(s.top.len(), 2);
        assert_eq!(s.top[0].name, "RR 2MEM-1", "largest total first");
        let json = s.render_json();
        assert!(json.contains("\"workers\":["));
        assert!(json.contains("\"busy_pct\":"));
        assert!(json.contains("\"critical_path_ms\":"));
        assert!(!json.contains("results_hash"), "must not collide with CI's determinism grep");
        assert!(!json.contains("sim_cycles"), "must not collide with CI's determinism grep");
        let text = s.render_text();
        assert!(text.contains("track utilization"));
        assert!(text.contains("worker 1"));
    }
}
