//! The benchmark's own spans, recorded around the public calls it makes.
//!
//! A span has a name, a start and an end on the `melreq_prof` clock (so the
//! spans the program records itself line up with these), the span that
//! caused it, and one id per pass or request. Spans stay in memory; the
//! traced pass writes them out, with the program's drained spans, when it
//! ends. A recorder that is off (every timed pass) reads no clock.

use melreq_core::api::json::esc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Rec {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Rec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span the program recorded itself, with the thread it ran on.
pub struct ProgSpan {
    pub track: String,
    pub span: melreq_prof::Span,
}

#[derive(Default)]
pub struct Spans {
    on: bool,
    pub recs: Vec<Rec>,
    open: Vec<usize>,
    /// Spans drained from `melreq_prof` so far.
    pub program: Vec<ProgSpan>,
    dropped: u64,
}

impl Spans {
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording tracer; turns the program's own span recording on too.
    pub fn on() -> Self {
        melreq_prof::enable();
        Spans { on: true, ..Self::default() }
    }

    /// Stop recording (here and in the program) until [`Spans::resume`].
    pub fn pause(&mut self) {
        melreq_prof::disable();
        self.on = false;
    }

    pub fn resume(&mut self) {
        melreq_prof::enable();
        self.on = true;
    }

    /// Run `f` inside a span named `name`, child of whichever span is open.
    pub fn scope<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.recs.len();
        let parent = self.open.last().copied();
        self.recs.push(Rec { name, id, parent, start_ns: melreq_prof::now_ns(), end_ns: 0 });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.recs[idx].end_ns = melreq_prof::now_ns();
        r
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.recs.iter().filter(|r| r.name == name).map(Rec::ms).collect()
    }

    /// Print, per span name: count, total ms, self ms (total minus the part
    /// its direct children cover).
    pub fn print_self_times(&self) {
        let mut child_ms = vec![0.0; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ms[p] += r.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(&child_ms) {
            let e = out.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.ms();
            e.2 += r.ms() - c;
        }
        println!("span                                  count     total_ms      self_ms");
        for (name, (count, total, own)) in out {
            println!("{name:<36} {count:>6} {total:>12.3} {own:>12.3}");
        }
    }

    /// Move what the program has recorded so far into `program`; returns
    /// the range the new spans occupy, so a phase can be read on its own.
    pub fn drain_program(&mut self) -> std::ops::Range<usize> {
        let from = self.program.len();
        let profile = melreq_prof::drain();
        self.dropped += profile.total_dropped();
        for t in profile.tracks {
            let track = t.label;
            self.program
                .extend(t.spans.into_iter().map(|span| ProgSpan { track: track.clone(), span }));
        }
        from..self.program.len()
    }

    /// Stop recording and write every span, the program's included, to `path`.
    pub fn finish(&mut self, path: &std::path::Path, header: &str) {
        melreq_prof::disable();
        self.on = false;
        self.drain_program();
        let mut s = String::with_capacity(256 + 128 * (self.recs.len() + self.program.len()));
        write!(s, "{{{header},\"dropped\":{},\"spans\":[", self.dropped).unwrap();
        let mut first = true;
        let mut sep = |s: &mut String| {
            if !std::mem::take(&mut first) {
                s.push(',');
            }
            s.push('\n');
        };
        for (i, r) in self.recs.iter().enumerate() {
            sep(&mut s);
            let parent = r.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                s,
                "{{\"src\":\"bench\",\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.id, r.start_ns, r.end_ns
            )
            .unwrap();
        }
        for p in &self.program {
            sep(&mut s);
            write!(
                s,
                "{{\"src\":\"program\",\"track\":\"{}\",\"cat\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                esc(&p.track),
                p.span.cat,
                esc(&p.span.name),
                p.span.start_ns,
                p.span.end_ns()
            )
            .unwrap();
            for (k, v) in p.span.args() {
                write!(s, ",\"{k}\":{v}").unwrap();
            }
            s.push('}');
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create trace directory");
        }
        std::fs::write(path, s).expect("write trace file");
    }
}

/// Durations (ms) of the program spans of category `cat` whose name
/// passes `keep`.
pub fn program_ms(spans: &[ProgSpan], cat: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|p| p.span.cat == cat && keep(&p.span.name))
        .map(|p| p.span.dur_ns as f64 / 1e6)
        .collect()
}
