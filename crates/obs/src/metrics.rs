//! Prometheus text-format metrics (`text/plain; version=0.0.4`),
//! dependency-free.
//!
//! A [`Registry`] holds named metric families; each family owns one or
//! more samples (name plus optional `{label="value"}` suffix) backed by
//! an atomic [`Counter`], a [`Gauge`], or a closure evaluated at scrape
//! time (for sources that already keep their own counters, e.g. the
//! checkpoint store's hit/miss statistics). [`Registry::render`] emits
//! the families in registration order with `# HELP`/`# TYPE` headers
//! once per family — the exact shape `promtool check metrics` accepts.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper bounds, rendered Prometheus-style as
/// cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
#[derive(Debug)]
pub struct Histogram {
    /// Bucket upper bounds, strictly increasing; the `+Inf` bucket is
    /// implicit (it always equals `_count`).
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if let Some(i) = self.bounds.iter().position(|b| v <= *b) {
            self.counts[i].fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper bound, cumulative count)` per declared bucket.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        self.bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| {
                acc += c.load(Ordering::Relaxed);
                (*b, acc)
            })
            .collect()
    }
}

/// What a metric family is, for the `# TYPE` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Source {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Func(Box<dyn Fn() -> f64 + Send>),
    Histogram(Arc<Histogram>),
}

struct Sample {
    /// Full sample name including any `{label="value"}` suffix.
    name: String,
    source: Source,
}

struct Family {
    /// Family name (sample name minus labels).
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// A set of metric families rendered to Prometheus text format.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().expect("metrics registry poisoned");
        let names: Vec<&str> = families.iter().map(|fam| fam.name.as_str()).collect();
        f.debug_struct("Registry").field("families", &names).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register and return a counter. `sample` is the full sample name
    /// (labels included); the family is everything before the first
    /// `{`. Repeat registrations under one family must agree on kind
    /// (checked) and reuse the first `help`.
    pub fn counter(&self, sample: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.attach(sample, help, MetricKind::Counter, Source::Counter(c.clone()));
        c
    }

    /// Register and return a gauge.
    pub fn gauge(&self, sample: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.attach(sample, help, MetricKind::Gauge, Source::Gauge(g.clone()));
        g
    }

    /// Register and return a histogram with the given bucket upper
    /// bounds (the `+Inf` bucket is implicit).
    pub fn histogram(&self, sample: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds));
        self.attach(sample, help, MetricKind::Histogram, Source::Histogram(h.clone()));
        h
    }

    /// Register a scrape-time closure (for externally owned counters).
    pub fn func(
        &self,
        sample: &str,
        help: &str,
        kind: MetricKind,
        f: impl Fn() -> f64 + Send + 'static,
    ) {
        self.attach(sample, help, kind, Source::Func(Box::new(f)));
    }

    fn attach(&self, sample: &str, help: &str, kind: MetricKind, source: Source) {
        let family_name = sample.split('{').next().unwrap_or(sample).to_string();
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.iter_mut().find(|f| f.name == family_name);
        let sample = Sample { name: sample.to_string(), source };
        match family {
            Some(f) => {
                assert_eq!(f.kind, kind, "metric family '{family_name}' kind mismatch");
                f.samples.push(sample);
            }
            None => families.push(Family {
                name: family_name,
                help: help.to_string(),
                kind,
                samples: vec![sample],
            }),
        }
    }

    /// Render every family in registration order as Prometheus text.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for f in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
            for s in &f.samples {
                match &s.source {
                    Source::Counter(c) => {
                        out.push_str(&format!("{} {}\n", s.name, format_value(c.get() as f64)));
                    }
                    Source::Gauge(g) => {
                        out.push_str(&format!("{} {}\n", s.name, format_value(g.get() as f64)));
                    }
                    Source::Func(func) => {
                        out.push_str(&format!("{} {}\n", s.name, format_value(func())));
                    }
                    Source::Histogram(h) => render_histogram(&mut out, &s.name, h),
                }
            }
        }
        out
    }
}

/// Expand one histogram sample into its cumulative `_bucket` series
/// (ending with `le="+Inf"`, which by construction equals `_count`)
/// plus `_sum` and `_count`, threading any existing labels through.
fn render_histogram(out: &mut String, sample: &str, h: &Histogram) {
    let (base, labels) = match sample.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}')),
        None => (sample, ""),
    };
    let with = |extra: &str| -> String {
        if labels.is_empty() {
            format!("{{{extra}}}")
        } else {
            format!("{{{labels},{extra}}}")
        }
    };
    for (bound, cum) in h.cumulative() {
        out.push_str(&format!(
            "{base}_bucket{} {cum}\n",
            with(&format!("le=\"{}\"", format_value(bound)))
        ));
    }
    let count = h.count();
    out.push_str(&format!("{base}_bucket{} {count}\n", with("le=\"+Inf\"")));
    let suffix = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    out.push_str(&format!("{base}_sum{suffix} {}\n", format_value(h.sum())));
    out.push_str(&format!("{base}_count{suffix} {count}\n"));
}

/// Integral values print without a fractional part (Prometheus accepts
/// both; the integral form keeps scrapes byte-stable for tests).
#[allow(clippy::cast_possible_truncation, reason = "only integral values below 9e15 are cast")]
fn format_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_with_headers_once() {
        let reg = Registry::new();
        let a = reg.counter("melreq_requests_total{endpoint=\"run\"}", "Requests accepted.");
        let b = reg.counter("melreq_requests_total{endpoint=\"compare\"}", "Requests accepted.");
        let depth = reg.gauge("melreq_queue_depth", "Jobs queued.");
        a.add(3);
        b.inc();
        depth.set(2);
        let text = reg.render();
        assert_eq!(text.matches("# HELP melreq_requests_total").count(), 1);
        assert_eq!(text.matches("# TYPE melreq_requests_total counter").count(), 1);
        assert!(text.contains("melreq_requests_total{endpoint=\"run\"} 3\n"));
        assert!(text.contains("melreq_requests_total{endpoint=\"compare\"} 1\n"));
        assert!(text.contains("# TYPE melreq_queue_depth gauge\n"));
        assert!(text.contains("melreq_queue_depth 2\n"));
    }

    #[test]
    fn func_sources_evaluate_at_scrape_time() {
        let reg = Registry::new();
        let shared = Arc::new(Counter::new());
        let probe = shared.clone();
        reg.func("melreq_store_hits_total", "Store hits.", MetricKind::Counter, move || {
            probe.get() as f64
        });
        assert!(reg.render().contains("melreq_store_hits_total 0\n"));
        shared.add(7);
        assert!(reg.render().contains("melreq_store_hits_total 7\n"));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn values_render_integral_or_float() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(0.5), "0.5");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let reg = Registry::new();
        let h = reg.histogram("req_seconds", "Latency.", &[0.1, 0.5, 1.0]);
        for v in [0.05, 0.05, 0.3, 0.7, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 6.1).abs() < 1e-9);
        assert_eq!(h.cumulative(), vec![(0.1, 2), (0.5, 3), (1.0, 4)]);
        let text = reg.render();
        assert!(text.contains("# TYPE req_seconds histogram\n"));
        assert!(text.contains("req_seconds_bucket{le=\"0.1\"} 2\n"));
        assert!(text.contains("req_seconds_bucket{le=\"0.5\"} 3\n"));
        assert!(text.contains("req_seconds_bucket{le=\"1\"} 4\n"));
        assert!(text.contains("req_seconds_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("req_seconds_sum 6.1"));
        assert!(text.contains("req_seconds_count 5\n"));
    }

    #[test]
    fn labeled_histogram_threads_labels_through_bucket_lines() {
        let reg = Registry::new();
        let parse =
            reg.histogram("stage_seconds{stage=\"parse\"}", "Per-stage latency.", &[0.01, 0.1]);
        let queue =
            reg.histogram("stage_seconds{stage=\"queue\"}", "Per-stage latency.", &[0.01, 0.1]);
        parse.observe(0.005);
        queue.observe(0.05);
        let text = reg.render();
        assert_eq!(text.matches("# TYPE stage_seconds histogram").count(), 1);
        assert!(text.contains("stage_seconds_bucket{stage=\"parse\",le=\"0.01\"} 1\n"));
        assert!(text.contains("stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("stage_seconds_bucket{stage=\"queue\",le=\"0.01\"} 0\n"));
        assert!(text.contains("stage_seconds_bucket{stage=\"queue\",le=\"0.1\"} 1\n"));
        assert!(text.contains("stage_seconds_sum{stage=\"parse\"} 0.005\n"));
        assert!(text.contains("stage_seconds_count{stage=\"queue\"} 1\n"));
    }
}
