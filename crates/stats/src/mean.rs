//! Streaming (single-pass, O(1)-memory) mean.

use melreq_snap::{Archive, SnapError};

/// Streaming arithmetic mean with count and sum.
///
/// Used for average read latency (Figure 4) and other per-run averages.
/// Sums are kept in `f64`; for the magnitudes this simulator produces
/// (≤ 2⁵³ total latency-cycles) the sum is exact.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamingMean {
    count: u64,
    sum: f64,
}

impl StreamingMean {
    /// An empty mean.
    pub const fn new() -> Self {
        StreamingMean { count: 0, sum: 0.0 }
    }

    /// Record one sample.
    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Arithmetic mean, or 0.0 if empty (for report tables).
    pub fn mean_or_zero(&self) -> f64 {
        self.mean().unwrap_or(0.0)
    }

    /// Walk the checkpoint state ([`Archive`]).
    pub fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { count, sum } = self;
        ar.u64(count)?;
        ar.f64(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mean_is_none() {
        let m = StreamingMean::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.mean_or_zero(), 0.0);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn mean_of_samples() {
        let mut m = StreamingMean::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 4);
        assert!((m.mean().unwrap() - 2.5).abs() < 1e-12);
        assert!((m.sum() - 10.0).abs() < 1e-12);
    }
}
