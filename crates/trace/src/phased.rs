//! Multi-phase program models.
//!
//! The paper's ME profile is a single number per program, measured once
//! off-line; its future-work section asks for "online methods that can
//! dynamically predict the memory efficiency of a program" precisely
//! because real programs change phases. [`PhasedStream`] provides the
//! test vehicle: it cycles through a list of [`SyntheticStream`]s, each
//! for a fixed number of ops, so a program can be compute-bound for one
//! phase and bandwidth-bound for the next. Offline profiling sees the
//! *average*; the online estimator can track the *current* phase.

use crate::op::{InstrStream, MicroOp, WarmHints};
use crate::synthetic::SyntheticStream;
use melreq_snap::{Archive, SnapError};

/// A program that cycles through phases of different behaviour.
#[derive(Debug, Clone)]
pub struct PhasedStream {
    label: String,
    phases: Vec<(SyntheticStream, u64)>,
    current: usize,
    remaining: u64,
}

impl PhasedStream {
    /// Build from `(stream, ops)` phases, cycled forever in order.
    ///
    /// # Panics
    /// Panics when `phases` is empty or any phase length is zero.
    pub fn new(label: impl Into<String>, phases: Vec<(SyntheticStream, u64)>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(phases.iter().all(|(_, n)| *n > 0), "phase lengths must be positive");
        let remaining = phases[0].1;
        PhasedStream { label: label.into(), phases, current: 0, remaining }
    }

    /// Index of the phase currently generating ops.
    pub fn current_phase(&self) -> usize {
        self.current
    }
}

impl InstrStream for PhasedStream {
    fn next_op(&mut self) -> MicroOp {
        if self.remaining == 0 {
            self.current = (self.current + 1) % self.phases.len();
            self.remaining = self.phases[self.current].1;
        }
        self.remaining -= 1;
        self.phases[self.current].0.next_op()
    }

    fn label(&self) -> &str {
        &self.label
    }

    /// Warm hints cover the most memory-demanding phase (the union of
    /// regions would exceed what pre-warming can usefully install).
    fn warm_hints(&self) -> Option<WarmHints> {
        self.phases.iter().filter_map(|(s, _)| s.warm_hints()).max_by_key(|h| h.data_len)
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `label`: construction-time config, identical across snapshot peers.
        let Self { label: _, phases, current, remaining } = self;
        ar.usize(current)?;
        ar.ensure(*current < phases.len(), SnapError::Invalid("phase index out of range"))?;
        ar.u64(remaining)?;
        phases.iter_mut().try_for_each(|(s, _)| s.state(ar))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrgen::AddressPattern;
    use crate::op::OpKind;
    use crate::synthetic::{OpMix, StreamParams};

    fn stream(mem_frac: f64, ws: u64, seed: u64) -> SyntheticStream {
        let params = StreamParams {
            mem_frac,
            load_frac: 0.7,
            pattern: AddressPattern::streaming(ws),
            mix: OpMix::integer(),
            mean_dep_dist: 3.0,
            chase_dep_frac: 0.0,
            mispredict_rate: 0.01,
            code_footprint: 8 * 1024,
        };
        SyntheticStream::new("phase", params, 0x1000_0000, 0x8000_0000, seed)
    }

    #[test]
    fn phases_alternate_at_the_configured_length() {
        let mut p = PhasedStream::new(
            "two-phase",
            vec![(stream(0.0, 1 << 20, 1), 100), (stream(1.0, 1 << 20, 2), 100)],
        );
        // Phase 0: no memory ops at all; phase 1: all memory ops.
        let first: Vec<MicroOp> = (0..100).map(|_| p.next_op()).collect();
        assert!(first.iter().all(|op| !op.kind.is_mem()));
        assert_eq!(p.current_phase(), 0);
        let second: Vec<MicroOp> = (0..100).map(|_| p.next_op()).collect();
        assert!(second.iter().all(|op| op.kind.is_mem()));
        assert_eq!(p.current_phase(), 1);
        // Cycles back.
        let third = p.next_op();
        assert!(!third.kind.is_mem());
        assert_eq!(p.current_phase(), 0);
    }

    #[test]
    fn memory_intensity_differs_across_phases() {
        let mut p = PhasedStream::new(
            "mixed",
            vec![(stream(0.05, 1 << 16, 3), 5000), (stream(0.5, 1 << 24, 4), 5000)],
        );
        let count_mem = |p: &mut PhasedStream, n: u64| {
            (0..n).filter(|_| matches!(p.next_op().kind, k if k.is_mem())).count()
        };
        let light = count_mem(&mut p, 5000);
        let heavy = count_mem(&mut p, 5000);
        assert!(heavy > 5 * light, "phases must differ: {light} vs {heavy}");
    }

    #[test]
    fn warm_hints_cover_the_biggest_phase() {
        let p = PhasedStream::new(
            "w",
            vec![(stream(0.1, 1 << 16, 5), 10), (stream(0.3, 1 << 24, 6), 10)],
        );
        assert_eq!(p.warm_hints().expect("hints").data_len, 1 << 24);
    }

    #[test]
    fn label_roundtrips() {
        let p = PhasedStream::new("zig-zag", vec![(stream(0.1, 1 << 16, 7), 10)]);
        assert_eq!(p.label(), "zig-zag");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = PhasedStream::new("none", vec![]);
    }

    #[test]
    #[should_panic(expected = "phase lengths must be positive")]
    fn zero_length_phase_rejected() {
        let _ = PhasedStream::new("zero", vec![(stream(0.1, 1 << 16, 8), 0)]);
    }

    #[test]
    fn deterministic_given_same_construction() {
        let mk = || {
            PhasedStream::new(
                "det",
                vec![(stream(0.2, 1 << 20, 9), 64), (stream(0.6, 1 << 22, 10), 64)],
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn ops_are_well_formed_across_boundaries() {
        let mut p = PhasedStream::new(
            "bounds",
            vec![(stream(0.3, 1 << 20, 11), 33), (stream(0.3, 1 << 20, 12), 17)],
        );
        for _ in 0..1000 {
            let op = p.next_op();
            if let OpKind::Load { addr } | OpKind::Store { addr } = op.kind {
                assert!(addr >= 0x1000_0000);
            }
        }
    }
}
