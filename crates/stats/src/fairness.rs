//! The paper's two system-level evaluation metrics.
//!
//! * **SMT speedup** (Section 4.1, from Snavely & Tullsen): the sum over
//!   cores of `IPC_multi[i] / IPC_single[i]`. A value of `n` would mean no
//!   interference at all on an `n`-core system.
//! * **Unfairness** (Section 5.3, following Gabor et al. and Mutlu &
//!   Moscibroda): the ratio of the maximum per-program slowdown to the
//!   minimum per-program slowdown, where slowdown is
//!   `IPC_single[i] / IPC_multi[i]`. 1.0 is perfectly fair; larger is
//!   less fair.

/// SMT speedup: `Σ IPC_multi[i] / IPC_single[i]`.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or any single-core
/// IPC is non-positive (a program cannot have zero standalone IPC).
pub fn smt_speedup(ipc_multi: &[f64], ipc_single: &[f64]) -> f64 {
    assert_eq!(ipc_multi.len(), ipc_single.len(), "per-core IPC slices must align");
    assert!(!ipc_multi.is_empty(), "need at least one core");
    ipc_multi
        .iter()
        .zip(ipc_single)
        .map(|(&m, &s)| {
            assert!(s > 0.0, "single-core IPC must be positive");
            assert!(m >= 0.0, "multi-core IPC cannot be negative");
            m / s
        })
        .sum()
}

/// Per-program slowdowns: `IPC_single[i] / IPC_multi[i]`.
///
/// A program that made no progress at all (`IPC_multi == 0`) is reported
/// as `f64::INFINITY` slowdown — a starved core, which the unfairness
/// metric will surface as infinite unfairness.
pub fn slowdowns(ipc_multi: &[f64], ipc_single: &[f64]) -> Vec<f64> {
    assert_eq!(ipc_multi.len(), ipc_single.len(), "per-core IPC slices must align");
    ipc_multi
        .iter()
        .zip(ipc_single)
        .map(|(&m, &s)| {
            assert!(s > 0.0, "single-core IPC must be positive");
            if m <= 0.0 {
                f64::INFINITY
            } else {
                s / m
            }
        })
        .collect()
}

/// Unfairness: `max(slowdown) / min(slowdown)`; 1.0 is perfectly fair.
pub fn unfairness(ipc_multi: &[f64], ipc_single: &[f64]) -> f64 {
    let sd = slowdowns(ipc_multi, ipc_single);
    let max = sd.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = sd.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(min > 0.0, "slowdown cannot be non-positive");
    max / min
}

/// Harmonic mean of per-program speedups: `n / Σ slowdown[i]`
/// (Luo et al.) — balances throughput and fairness in one number.
///
/// A starved core (infinite slowdown) yields 0.0.
pub fn harmonic_speedup(ipc_multi: &[f64], ipc_single: &[f64]) -> f64 {
    let sd = slowdowns(ipc_multi, ipc_single);
    let total: f64 = sd.iter().sum();
    if total.is_infinite() {
        0.0
    } else {
        sd.len() as f64 / total
    }
}

/// The largest per-program slowdown — the worst-treated core's factor.
/// `f64::INFINITY` when some core starved entirely.
pub fn max_slowdown(ipc_multi: &[f64], ipc_single: &[f64]) -> f64 {
    slowdowns(ipc_multi, ipc_single).into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// A bundle of the fairness metrics, for reports.
#[derive(Debug, Clone)]
pub struct FairnessReport {
    /// SMT (weighted) speedup, `Σ IPC_multi[i] / IPC_single[i]` (higher
    /// is better; ideal = number of cores).
    pub smt_speedup: f64,
    /// Harmonic mean of speedups (higher is better; ideal = 1.0).
    pub harmonic_speedup: f64,
    /// Unfairness ratio (lower is better; ideal = 1.0).
    pub unfairness: f64,
    /// Largest per-core slowdown (lower is better; ideal = 1.0).
    pub max_slowdown: f64,
}

impl FairnessReport {
    /// Compute every metric from per-core multi-core and single-core IPCs.
    pub fn compute(ipc_multi: &[f64], ipc_single: &[f64]) -> Self {
        FairnessReport {
            smt_speedup: smt_speedup(ipc_multi, ipc_single),
            harmonic_speedup: harmonic_speedup(ipc_multi, ipc_single),
            unfairness: unfairness(ipc_multi, ipc_single),
            max_slowdown: max_slowdown(ipc_multi, ipc_single),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_interference_gives_n() {
        let single = [1.0, 2.0, 0.5, 1.5];
        let speedup = smt_speedup(&single, &single);
        assert!((speedup - 4.0).abs() < 1e-12);
        assert!((unfairness(&single, &single) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_weighted_not_raw() {
        // Core 0 halves, core 1 unchanged: speedup = 0.5 + 1.0.
        let multi = [0.5, 2.0];
        let single = [1.0, 2.0];
        assert!((smt_speedup(&multi, &single) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn unfairness_ratio() {
        // Slowdowns 2.0 and 1.25 -> unfairness 1.6.
        let multi = [0.5, 0.8];
        let single = [1.0, 1.0];
        assert!((unfairness(&multi, &single) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn starved_core_is_infinitely_unfair() {
        let multi = [0.0, 1.0];
        let single = [1.0, 1.0];
        assert!(unfairness(&multi, &single).is_infinite());
    }

    #[test]
    fn report_bundles_metrics() {
        let (multi, single) = ([0.5, 1.0], [1.0, 1.0]);
        let r = FairnessReport::compute(&multi, &single);
        assert_eq!(slowdowns(&multi, &single).len(), 2);
        assert!((r.smt_speedup - 1.5).abs() < 1e-12);
        assert!((r.unfairness - 2.0).abs() < 1e-12);
        // Slowdowns 2.0 and 1.0: harmonic speedup = 2 / 3, max slowdown 2.0.
        assert!((r.harmonic_speedup - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.max_slowdown - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_speedup_handles_starvation() {
        assert_eq!(harmonic_speedup(&[0.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((harmonic_speedup(&[1.0, 1.0], &[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(max_slowdown(&[0.0, 1.0], &[1.0, 1.0]).is_infinite());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = smt_speedup(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "single-core IPC must be positive")]
    fn zero_single_ipc_panics() {
        let _ = smt_speedup(&[1.0], &[0.0]);
    }
}
