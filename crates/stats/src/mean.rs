//! Streaming (single-pass, O(1)-memory) mean and min/max trackers.

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

    /// Merge another mean into this one (for cross-core aggregation).
    pub fn merge(&mut self, other: &StreamingMean) {
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Serialize into a checkpoint.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        let Self { count, sum } = self;
        enc.u64(*count);
        enc.f64(*sum);
    }

    /// Restore from a checkpoint.
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { count, sum } = self;
        *count = dec.u64()?;
        *sum = dec.f64()?;
        Ok(())
    }
}

/// Streaming minimum and maximum.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamingMinMax {
    min: Option<f64>,
    max: Option<f64>,
}

impl StreamingMinMax {
    /// An empty tracker.
    pub const fn new() -> Self {
        StreamingMinMax { min: None, max: None }
    }

    /// Record one sample.
    pub fn push(&mut self, sample: f64) {
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Smallest sample seen, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample seen, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Serialize into a checkpoint.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        let Self { min, max } = self;
        enc.opt_f64(*min);
        enc.opt_f64(*max);
    }

    /// Restore from a checkpoint.
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { min, max } = self;
        *min = dec.opt_f64()?;
        *max = dec.opt_f64()?;
        Ok(())
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

    #[test]
    fn merge_combines_counts_and_sums() {
        let mut a = StreamingMean::new();
        a.push(1.0);
        a.push(3.0);
        let mut b = StreamingMean::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_tracks_extremes() {
        let mut mm = StreamingMinMax::new();
        assert_eq!(mm.min(), None);
        assert_eq!(mm.max(), None);
        for x in [3.0, -1.0, 7.5, 2.0] {
            mm.push(x);
        }
        assert_eq!(mm.min(), Some(-1.0));
        assert_eq!(mm.max(), Some(7.5));
    }

    #[test]
    fn minmax_single_sample() {
        let mut mm = StreamingMinMax::new();
        mm.push(4.0);
        assert_eq!(mm.min(), Some(4.0));
        assert_eq!(mm.max(), Some(4.0));
    }
}
