//! Combined latency statistics: exact mean/min/max plus a log₂ histogram.

use crate::histogram::Histogram;
use crate::mean::{StreamingMean, StreamingMinMax};
use crate::types::Cycle;

/// Tracks the latency distribution of a class of events (e.g. memory read
/// requests from one core, as plotted in Figure 4 of the paper).
///
/// Records exact count/mean/min/max and an approximate distribution.
#[derive(Debug, Default, Clone)]
pub struct LatencyTracker {
    mean: StreamingMean,
    minmax: StreamingMinMax,
    histogram: Histogram,
}

impl LatencyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the latency of one completed event.
    ///
    /// `start` must not exceed `end`; in debug builds this is asserted.
    #[inline]
    pub fn record_span(&mut self, start: Cycle, end: Cycle) {
        debug_assert!(end >= start, "event completed before it started");
        self.record(end.saturating_sub(start));
    }

    /// Record a latency value directly.
    #[inline]
    pub fn record(&mut self, latency: Cycle) {
        self.mean.push(latency as f64);
        self.minmax.push(latency as f64);
        self.histogram.record(latency);
    }

    /// Number of events recorded.
    pub fn count(&self) -> u64 {
        self.mean.count()
    }

    /// Mean latency in cycles, or `None` if no events were recorded.
    pub fn mean(&self) -> Option<f64> {
        self.mean.mean()
    }

    /// Mean latency, 0.0 when empty (for report tables).
    pub fn mean_or_zero(&self) -> f64 {
        self.mean.mean_or_zero()
    }

    /// Minimum latency seen.
    pub fn min(&self) -> Option<f64> {
        self.minmax.min()
    }

    /// Maximum latency seen.
    pub fn max(&self) -> Option<f64> {
        self.minmax.max()
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Serialize into a checkpoint.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        let Self { mean, minmax, histogram } = self;
        mean.save_state(enc);
        minmax.save_state(enc);
        histogram.save_state(enc);
    }

    /// Restore from a checkpoint.
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { mean, minmax, histogram } = self;
        mean.load_state(dec)?;
        minmax.load_state(dec)?;
        histogram.load_state(dec)
    }

    /// Merge another tracker into this one.
    pub fn merge(&mut self, other: &LatencyTracker) {
        self.mean.merge(&other.mean);
        if let Some(m) = other.minmax.min() {
            self.minmax.push(m);
        }
        if let Some(m) = other.minmax.max() {
            self.minmax.push(m);
        }
        self.histogram.merge(&other.histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker() {
        let t = LatencyTracker::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), None);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn record_span_computes_difference() {
        let mut t = LatencyTracker::new();
        t.record_span(100, 150);
        t.record_span(200, 350);
        assert_eq!(t.count(), 2);
        assert!((t.mean().unwrap() - 100.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(50.0));
        assert_eq!(t.max(), Some(150.0));
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyTracker::new();
        let mut b = LatencyTracker::new();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean().unwrap() - 20.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(10.0));
        assert_eq!(a.max(), Some(30.0));
    }

    #[test]
    fn histogram_is_populated() {
        let mut t = LatencyTracker::new();
        t.record(100);
        assert_eq!(t.histogram().count(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "completed before it started")]
    fn record_span_rejects_backwards_time() {
        let mut t = LatencyTracker::new();
        t.record_span(10, 5);
    }
}
