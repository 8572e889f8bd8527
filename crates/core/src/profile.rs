//! Off-line memory-efficiency profiling (the paper's Equation 1 step).
//!
//! "We randomly select a single simpoint … for profiling and measure the
//! programs' memory efficiency" (Section 4.1). Here a profiling run
//! executes an application's *profiling slice* alone on a single-core
//! configuration of the paper machine and records IPC and DRAM bandwidth;
//! `ME = IPC / BW(GB/s)` then initializes the controller's priority
//! tables for the multiprogrammed runs.

use crate::experiment::{canonical_config, ExperimentOptions};
use crate::system::{CancelToken, System};
use melreq_stats::bandwidth::memory_efficiency;
use melreq_trace::InstrStream;
use melreq_workloads::{AppSpec, SliceKind};

/// The profile of one application on the single-core reference machine.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Table 2 code letter.
    pub code: char,
    /// Single-core IPC over the measured slice.
    pub ipc: f64,
    /// Single-core DRAM bandwidth in GB/s over the measured slice.
    pub bw_gbs: f64,
    /// Memory efficiency (Equation 1): `ipc / bw_gbs`.
    pub me: f64,
}

/// Profile one application: run `instructions` committed ops of the given
/// slice alone on the paper's single-core machine under the canonical
/// warm-up policy (HF-RF, the baseline controller, so profiles are
/// policy-independent).
pub fn profile_app(app: &AppSpec, slice: SliceKind, instructions: u64) -> AppProfile {
    profile_app_until(app, slice, instructions, None).expect("no token to cancel it")
}

/// [`profile_app`] polling `cancel` ([`System::set_cancel`]): `None` if
/// the token fired first.
pub fn profile_app_until(
    app: &AppSpec,
    slice: SliceKind,
    instructions: u64,
    cancel: Option<&CancelToken>,
) -> Option<AppProfile> {
    // The canonical single-core machine: the store keys profiles on this
    // same definition (`CheckpointStore::profile_key`).
    let cfg = canonical_config(1);
    let freq = cfg.freq_hz;
    let stream: Box<dyn InstrStream + Send> = Box::new(app.build_stream(0, slice));
    let mut sys = System::new(cfg, vec![stream], &[1.0]);
    if let Some(token) = cancel {
        sys.set_cancel(token.clone());
    }
    // Warm the caches over one slice length before measuring, so compulsory
    // misses do not pollute the short profile (the paper's 10 M-op slices
    // amortize warm-up implicitly). The safety net is a run's at the default
    // `max_cycles_factor`, whatever the requesting run's factor: one stored
    // profile serves requests of any factor, so none of them may shape it.
    let bound = ExperimentOptions { instructions, ..ExperimentOptions::default() }.max_cycles();
    let out = sys.run_measured(instructions, instructions, bound);
    if out.cancelled {
        return None;
    }
    assert!(!out.timed_out, "profiling of {} timed out", app.name);
    let ipc = out.ipc[0];
    let bw_gbs = out.total_bandwidth_gbs(freq);
    // Bandwidth below 1 MB/s is under the measurement resolution of a
    // short slice; flooring it keeps ME large-but-finite for programs that
    // never touch DRAM (the paper likewise reports finite ME = 16276 for
    // eon rather than infinity).
    let me = memory_efficiency(ipc, bw_gbs.max(1e-3));
    Some(AppProfile { name: app.name, code: app.code, ipc, bw_gbs, me })
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_workloads::app_by_code;

    // Long enough that warm-up covers the cache-resident working sets;
    // see EXPERIMENTS.md on slice-length effects.
    const N: u64 = 60_000;

    #[test]
    fn ilp_app_profiles_with_high_me() {
        let p = profile_app(&app_by_code('t'), SliceKind::Profiling, N); // eon
        assert!(p.ipc > 1.5, "eon IPC {}", p.ipc);
        assert!(p.me > 100.0, "eon ME should be large, got {}", p.me);
    }

    #[test]
    fn streaming_mem_app_profiles_with_low_me() {
        let p = profile_app(&app_by_code('c'), SliceKind::Profiling, N); // swim
        assert!(p.bw_gbs > 5.0, "swim must demand bandwidth, got {} GB/s", p.bw_gbs);
        assert!(p.me < 1.0, "swim ME should be tiny, got {}", p.me);
    }

    #[test]
    fn me_separates_classes_like_table_2() {
        let eon = profile_app(&app_by_code('t'), SliceKind::Profiling, N);
        let swim = profile_app(&app_by_code('c'), SliceKind::Profiling, N);
        let vpr = profile_app(&app_by_code('f'), SliceKind::Profiling, N);
        assert!(
            eon.me > vpr.me && vpr.me > swim.me,
            "ME order must be eon > vpr > swim: {} / {} / {}",
            eon.me,
            vpr.me,
            swim.me
        );
    }

    #[test]
    fn profiling_is_deterministic() {
        let a = profile_app(&app_by_code('k'), SliceKind::Profiling, 5_000);
        let b = profile_app(&app_by_code('k'), SliceKind::Profiling, 5_000);
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.me, b.me);
    }
}
