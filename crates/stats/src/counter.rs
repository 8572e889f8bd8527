//! Simple event counters.

/// A monotonically increasing event counter.
///
/// Wraps a `u64` with a small API so call sites read as instrumentation
/// (`stats.row_hits.inc()`) rather than arithmetic, and so a counter can be
/// rendered uniformly in reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter { value: 0 }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Reset to zero (used when statistics gathering starts after warm-up).
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Serialize into a checkpoint.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        let Self { value } = self;
        enc.u64(*value);
    }

    /// Restore from a checkpoint.
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { value } = self;
        *value = dec.u64()?;
        Ok(())
    }

    /// This counter as a fraction of `denom` (0.0 when `denom` is zero).
    ///
    /// Convenience for hit-rate style reporting.
    pub fn ratio_of(&self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.value as f64 / denom as f64
        }
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

impl std::ops::AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Counter::new().get(), 0);
        assert_eq!(Counter::default().get(), 0);
    }

    #[test]
    fn inc_and_add() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        c += 5;
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = Counter::new();
        c.add(42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn ratio_of_handles_zero_denominator() {
        let mut c = Counter::new();
        c.add(3);
        assert_eq!(c.ratio_of(0), 0.0);
        assert!((c.ratio_of(6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_renders_value() {
        let mut c = Counter::new();
        c.add(7);
        assert_eq!(c.to_string(), "7");
    }
}
