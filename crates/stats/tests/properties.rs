//! Property-based tests of the statistics substrate.

use melreq_stats::fixedpoint::{auto_scale, quantize};
use melreq_stats::{smt_speedup, unfairness, StreamingMean};
use proptest::prelude::*;

proptest! {
    /// Quantization is monotone and saturating.
    #[test]
    fn quantize_monotone(a in 0.0f64..1e6, b in 0.0f64..1e6, scale in 0.001f64..1e3) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantize(lo, scale) <= quantize(hi, scale));
    }

    /// Auto-scale maps the maximum finite input to the top of the range.
    #[test]
    fn auto_scale_saturates_max(values in proptest::collection::vec(0.001f64..1e6, 1..20)) {
        let s = auto_scale(values.iter().copied());
        let max = values.iter().copied().fold(0.0, f64::max);
        prop_assert_eq!(quantize(max, s).raw(), 1023);
    }

    /// SMT speedup of identical multi/single IPCs equals the core count,
    /// and unfairness is then exactly 1.
    #[test]
    fn no_interference_metrics(ipc in proptest::collection::vec(0.01f64..4.0, 1..16)) {
        let s = smt_speedup(&ipc, &ipc);
        prop_assert!((s - ipc.len() as f64).abs() < 1e-9);
        prop_assert!((unfairness(&ipc, &ipc) - 1.0).abs() < 1e-9);
    }

    /// Unfairness is invariant under uniform scaling of the multi-core
    /// IPCs (it is a ratio of slowdowns).
    #[test]
    fn unfairness_scale_invariant(
        ipc in proptest::collection::vec(0.01f64..4.0, 2..8),
        k in 0.1f64..2.0
    ) {
        let single = vec![1.0; ipc.len()];
        let scaled: Vec<f64> = ipc.iter().map(|v| v * k).collect();
        let u1 = unfairness(&ipc, &single);
        let u2 = unfairness(&scaled, &single);
        prop_assert!((u1 - u2).abs() < 1e-9 * u1.max(1.0));
    }

    /// StreamingMean matches a direct computation.
    #[test]
    fn streaming_mean_exact(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut m = StreamingMean::new();
        for &s in &samples {
            m.push(s);
        }
        let expect = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((m.mean().unwrap() - expect).abs() < 1e-6);
    }
}
