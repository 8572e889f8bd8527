//! The paper's memory-efficiency metric (Equation 1): IPC divided by the
//! program's bandwidth usage *in GB/s*.

/// Compute the paper's memory-efficiency metric (Equation 1):
/// `ME = IPC_single / BW_single`, with bandwidth in GB/s.
///
/// Programs that touch essentially no memory have unboundedly large ME;
/// the paper caps nothing, reporting e.g. 16276 for `eon`. We saturate at
/// `f64::MAX / 2` to keep downstream arithmetic finite, and define the
/// ME of a zero-bandwidth program as that saturated maximum.
pub fn memory_efficiency(ipc: f64, bw_gbs: f64) -> f64 {
    assert!(ipc >= 0.0 && bw_gbs >= 0.0, "negative inputs to memory_efficiency");
    if bw_gbs <= f64::EPSILON {
        return f64::MAX / 2.0;
    }
    (ipc / bw_gbs).min(f64::MAX / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_efficiency_matches_equation_one() {
        // gzip-like: IPC 1.5 at 0.0078 GB/s -> ME ~192.
        let me = memory_efficiency(1.5, 0.0078125);
        assert!((me - 192.0).abs() < 1.0, "got {me}");
    }

    #[test]
    fn zero_bandwidth_saturates() {
        let me = memory_efficiency(2.0, 0.0);
        assert!(me.is_finite());
        assert!(me > 1e100);
    }
}
