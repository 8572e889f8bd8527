//! Power-of-two bucketed histogram for latency distributions.

/// A histogram with logarithmic (power-of-two) buckets.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`, with bucket 0 counting
/// samples of 0 or 1. The last bucket is an overflow bucket. This gives a
/// compact, allocation-free view of heavy-tailed latency distributions
/// (the per-core read-latency spread of Figure 4 spans 289–1042 cycles
/// within a single workload).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

/// Default number of power-of-two buckets: covers samples up to 2^31.
pub const DEFAULT_BUCKETS: usize = 32;

impl Histogram {
    /// A histogram with [`DEFAULT_BUCKETS`] power-of-two buckets.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// A histogram with `n` power-of-two buckets (`n >= 1`); samples of
    /// `2^(n-1)` and above land in the final bucket.
    pub fn with_buckets(n: usize) -> Self {
        assert!(n >= 1, "histogram needs at least one bucket");
        Histogram { buckets: vec![0; n], count: 0, sum: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        let b = (64 - sample.leading_zeros()) as usize; // 0 for sample 0
        let idx = b.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += sample as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The raw bucket counts. Bucket `i` holds samples whose bit-length is
    /// `i` (i.e. value range `[2^(i-1), 2^i)` for `i >= 1`, and `{0}` for
    /// `i == 0`), except the last bucket which also holds all larger
    /// samples.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Merge another histogram (must have the same bucket count).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "bucket count mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Serialize into a checkpoint.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        let Self { buckets, count, sum } = self;
        enc.u64s(buckets);
        enc.u64(*count);
        enc.u128(*sum);
    }

    /// Restore from a checkpoint. The bucket count must match this
    /// histogram's configuration (it is structural, not state).
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { buckets, count, sum } = self;
        let loaded = dec.u64s()?;
        if loaded.len() != buckets.len() {
            return Err(melreq_snap::SnapError::Invalid("histogram bucket count mismatch"));
        }
        *buckets = loaded;
        *count = dec.u64()?;
        *sum = dec.u128()?;
        Ok(())
    }

    /// Reset all buckets.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn bucket_placement() {
        let mut h = Histogram::with_buckets(8);
        h.record(0); // bucket 0
        h.record(1); // bucket 1 (bit length 1)
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(4); // bucket 3
        h.record(1000); // overflow -> last bucket (7)
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[7], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn mean_matches_samples() {
        let mut h = Histogram::new();
        for s in [10u64, 20, 30] {
            h.record(s);
        }
        assert!((h.mean().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(7);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(12);
        h.reset();
        assert_eq!(h.count(), 0);
        assert!(h.buckets().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn merge_rejects_mismatched_buckets() {
        let mut a = Histogram::with_buckets(4);
        let b = Histogram::with_buckets(8);
        a.merge(&b);
    }
}
