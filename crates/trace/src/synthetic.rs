//! The statistical program model.
//!
//! A [`SyntheticStream`] is an infinite micro-op sequence with a fixed
//! statistical profile: op mix, memory-instruction fraction, data-address
//! pattern, dependency structure and branch-misprediction rate. Tuning
//! these knobs reproduces the *aggregate* behaviour the scheduling study
//! depends on — IPC under a given memory latency, bandwidth demand, and
//! row-buffer friendliness — without the original SPEC binaries.

use crate::addrgen::{draw, rng_state, threshold, AddressPattern, AddressStream};
use crate::op::{InstrStream, MicroOp, OpKind, WarmHints};
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::Addr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Relative frequencies of non-memory op classes (normalized internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Integer ALU weight.
    pub int_alu: f64,
    /// Integer multiply weight.
    pub int_mult: f64,
    /// FP ALU weight.
    pub fp_alu: f64,
    /// FP multiply weight.
    pub fp_mult: f64,
    /// Branch weight.
    pub branch: f64,
}

impl OpMix {
    /// Integer-dominated mix (gzip/gcc-like).
    pub fn integer() -> Self {
        OpMix { int_alu: 0.70, int_mult: 0.05, fp_alu: 0.0, fp_mult: 0.0, branch: 0.25 }
    }

    /// Floating-point mix (swim/applu-like).
    pub fn floating() -> Self {
        OpMix { int_alu: 0.35, int_mult: 0.05, fp_alu: 0.35, fp_mult: 0.15, branch: 0.10 }
    }

    fn total(&self) -> f64 {
        self.int_alu + self.int_mult + self.fp_alu + self.fp_mult + self.branch
    }
}

/// Full parameterization of one synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParams {
    /// Fraction of ops that access the data cache (loads + stores).
    pub mem_frac: f64,
    /// Of the memory ops, the fraction that are loads.
    pub load_frac: f64,
    /// Data-address behaviour.
    pub pattern: AddressPattern,
    /// Non-memory op mix.
    pub mix: OpMix,
    /// Mean register-dependency distance for non-chase ops. Larger means
    /// more ILP. Sampled geometrically; 0 disables dependencies.
    pub mean_dep_dist: f64,
    /// Fraction of *load* ops that serialize on the previous load
    /// (pointer chasing) in addition to what the address pattern samples.
    pub chase_dep_frac: f64,
    /// Branch misprediction probability.
    pub mispredict_rate: f64,
    /// Bytes of code the program walks (drives L1I behaviour).
    pub code_footprint: u64,
}

impl StreamParams {
    fn validate(&self) {
        for (v, name) in [
            (self.mem_frac, "mem_frac"),
            (self.load_frac, "load_frac"),
            (self.chase_dep_frac, "chase_dep_frac"),
            (self.mispredict_rate, "mispredict_rate"),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} out of [0,1]: {v}");
        }
        assert!(self.mean_dep_dist >= 0.0, "mean_dep_dist must be non-negative");
        assert!(self.code_footprint >= 64, "code footprint below one line");
        assert!(self.mix.total() > 0.0, "op mix must have positive weight");
    }
}

/// Probability that a branch is a taken jump into the code footprint.
const TAKEN_JUMP_PROB: f64 = 0.3;

/// What every op would otherwise recompute from [`StreamParams`]: the
/// Bernoulli draws as integer [`threshold`]s and the op-mix partition as
/// cumulative bounds (the float additions `next_op` used to repeat).
#[derive(Debug, Clone)]
struct Draws {
    mem_below: u64,
    load_below: u64,
    chase_below: u64,
    mispredict_below: u64,
    taken_below: u64,
    /// Success threshold of the geometric dependency distance; `None`
    /// when dependencies are disabled (nothing is drawn then).
    dep_below: Option<u64>,
    mix_total: f64,
    /// Upper bounds of the IntAlu, IntMult, FpAlu and FpMult bands of
    /// `0.0..mix_total`; what lies above is a branch.
    mix_bounds: [f64; 4],
}

impl Draws {
    fn of(p: &StreamParams) -> Self {
        let m = &p.mix;
        Draws {
            mem_below: threshold(p.mem_frac),
            load_below: threshold(p.load_frac),
            chase_below: threshold(p.chase_dep_frac),
            mispredict_below: threshold(p.mispredict_rate),
            taken_below: threshold(TAKEN_JUMP_PROB),
            dep_below: (p.mean_dep_dist > 0.0).then(|| threshold(1.0 / (1.0 + p.mean_dep_dist))),
            mix_total: m.total(),
            mix_bounds: [
                m.int_alu,
                m.int_alu + m.int_mult,
                m.int_alu + m.int_mult + m.fp_alu,
                m.int_alu + m.int_mult + m.fp_alu + m.fp_mult,
            ],
        }
    }
}

/// The generator implementing [`InstrStream`].
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    label: String,
    params: StreamParams,
    draws: Draws,
    addrs: AddressStream,
    rng: SmallRng,
    pc: Addr,
    data_base: Addr,
    code_base: Addr,
    /// Distance (in ops) back to the most recent load, for chase deps.
    ops_since_load: u16,
}

impl SyntheticStream {
    /// Build a stream. `data_base`/`code_base` place the program's data
    /// and code regions (distinct per core); `seed` selects the "slice".
    pub fn new(
        label: impl Into<String>,
        params: StreamParams,
        data_base: Addr,
        code_base: Addr,
        seed: u64,
    ) -> Self {
        params.validate();
        // Derive decorrelated sub-seeds for the two RNG consumers.
        let addr_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        SyntheticStream {
            label: label.into(),
            addrs: AddressStream::new(params.pattern.clone(), data_base, addr_seed),
            draws: Draws::of(&params),
            params,
            rng: SmallRng::seed_from_u64(seed),
            pc: code_base,
            data_base,
            code_base,
            ops_since_load: 0,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    fn advance_pc(&mut self, branch_taken_jump: bool) -> Addr {
        let pc = self.pc;
        if branch_taken_jump {
            // Jump somewhere in the code footprint (taken branch).
            let lines = self.params.code_footprint / 64;
            let line = self.rng.gen_range(0..lines);
            self.pc = self.code_base + line * 64;
        } else {
            self.pc += 4;
            if self.pc >= self.code_base + self.params.code_footprint {
                self.pc = self.code_base;
            }
        }
        pc
    }

    fn sample_dep(&mut self) -> u16 {
        let Some(success_below) = self.draws.dep_below else {
            return 0;
        };
        // Geometric with the requested mean; clamp into the ROB-visible
        // window. Distance 0 means "independent".
        let mut d = 0u16;
        while d < 64 && !draw(&mut self.rng, success_below) {
            d += 1;
        }
        d
    }
}

impl InstrStream for SyntheticStream {
    fn next_op(&mut self) -> MicroOp {
        let is_mem = draw(&mut self.rng, self.draws.mem_below);
        if is_mem {
            let sample = self.addrs.next_sample();
            let is_load = draw(&mut self.rng, self.draws.load_below);
            let pc = self.advance_pc(false);
            let dep_dist = if is_load
                && (sample.chased || draw(&mut self.rng, self.draws.chase_below))
                && self.ops_since_load > 0
            {
                // Serialize on the previous load: pointer chasing. Clamp
                // to the same 64-op window as sampled dependencies — a
                // producer further back is effectively always resolved.
                self.ops_since_load.min(64)
            } else {
                self.sample_dep()
            };
            let kind = if is_load {
                self.ops_since_load = 0;
                OpKind::Load { addr: sample.addr }
            } else {
                OpKind::Store { addr: sample.addr }
            };
            self.ops_since_load = self.ops_since_load.saturating_add(1);
            MicroOp { pc, kind, dep_dist }
        } else {
            let x = self.rng.gen_range(0.0..self.draws.mix_total);
            let [int_alu, int_mult, fp_alu, fp_mult] = self.draws.mix_bounds;
            let kind = if x < int_alu {
                OpKind::IntAlu
            } else if x < int_mult {
                OpKind::IntMult
            } else if x < fp_alu {
                OpKind::FpAlu
            } else if x < fp_mult {
                OpKind::FpMult
            } else {
                OpKind::Branch { mispredict: draw(&mut self.rng, self.draws.mispredict_below) }
            };
            let taken_jump = matches!(kind, OpKind::Branch { .. })
                && draw(&mut self.rng, self.draws.taken_below);
            let pc = self.advance_pc(taken_jump);
            let dep_dist = self.sample_dep();
            self.ops_since_load = self.ops_since_load.saturating_add(1);
            MicroOp { pc, kind, dep_dist }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn warm_hints(&self) -> Option<WarmHints> {
        Some(WarmHints {
            data_base: self.data_base,
            data_len: self.params.pattern.working_set,
            code_base: self.code_base,
            code_len: self.params.code_footprint,
        })
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `label`, `params`, `data_base`, `code_base`: construction-time
        // config, identical across snapshot peers. `draws`: derived from
        // `params` at construction.
        let Self {
            label: _,
            params: _,
            draws: _,
            addrs,
            rng,
            pc,
            data_base: _,
            code_base: _,
            ops_since_load,
        } = self;
        addrs.state(ar)?;
        rng_state(rng, ar)?;
        ar.u64(pc)?;
        ar.u16(ops_since_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(mem_frac: f64) -> StreamParams {
        StreamParams {
            mem_frac,
            load_frac: 0.7,
            pattern: AddressPattern::streaming(1 << 22),
            mix: OpMix::integer(),
            mean_dep_dist: 4.0,
            chase_dep_frac: 0.0,
            mispredict_rate: 0.05,
            code_footprint: 16 * 1024,
        }
    }

    fn stream(mem_frac: f64, seed: u64) -> SyntheticStream {
        SyntheticStream::new("test", params(mem_frac), 0x1000_0000, 0x4000_0000, seed)
    }

    #[test]
    fn mem_fraction_is_respected() {
        let mut s = stream(0.3, 1);
        let n = 50_000;
        let mem = (0..n).filter(|_| s.next_op().kind.is_mem()).count();
        let frac = mem as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "mem frac {frac}");
    }

    #[test]
    fn load_store_split() {
        let mut s = stream(0.5, 2);
        let (mut loads, mut stores) = (0, 0);
        for _ in 0..50_000 {
            match s.next_op().kind {
                OpKind::Load { .. } => loads += 1,
                OpKind::Store { .. } => stores += 1,
                _ => {}
            }
        }
        let frac = loads as f64 / (loads + stores) as f64;
        assert!((frac - 0.7).abs() < 0.02, "load frac {frac}");
    }

    #[test]
    fn reproducible_and_seed_sensitive() {
        let mut a = stream(0.3, 42);
        let mut b = stream(0.3, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = stream(0.3, 43);
        let same = (0..1000).filter(|_| a.next_op() == c.next_op()).count();
        assert!(same < 100, "different seeds too correlated: {same}");
    }

    #[test]
    fn pcs_stay_in_code_footprint() {
        let mut s = stream(0.2, 3);
        for _ in 0..20_000 {
            let op = s.next_op();
            assert!(op.pc >= 0x4000_0000);
            assert!(op.pc < 0x4000_0000 + 16 * 1024);
        }
    }

    #[test]
    fn dep_distances_have_requested_scale() {
        let mut s = stream(0.0, 4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.next_op().dep_dist as f64).sum::<f64>() / n as f64;
        // Geometric mean_dep_dist = 4 clamped at 64: expect ~4.
        assert!((mean - 4.0).abs() < 0.5, "mean dep {mean}");
    }

    #[test]
    fn chase_serializes_on_previous_load() {
        let p = StreamParams {
            chase_dep_frac: 1.0,
            pattern: AddressPattern::irregular(1 << 22),
            ..params(0.5)
        };
        let mut s = SyntheticStream::new("chase", p, 0, 0x4000_0000, 5);
        let mut ops: Vec<MicroOp> = Vec::new();
        for _ in 0..5000 {
            ops.push(s.next_op());
        }
        // Every load (after the first) must depend on the previous load.
        let mut checked = 0;
        for (i, op) in ops.iter().enumerate() {
            if let OpKind::Load { .. } = op.kind {
                if op.dep_dist > 0 && op.dep_dist as usize <= i {
                    let producer = &ops[i - op.dep_dist as usize];
                    if matches!(producer.kind, OpKind::Load { .. }) {
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 500, "only {checked} chased loads found");
    }

    #[test]
    #[should_panic(expected = "mem_frac out of [0,1]")]
    fn invalid_params_rejected() {
        let mut p = params(0.3);
        p.mem_frac = 1.5;
        let _ = SyntheticStream::new("bad", p, 0, 0, 0);
    }

    #[test]
    fn mispredict_rate_sampled() {
        let mut p = params(0.0);
        p.mispredict_rate = 0.5;
        let mut s = SyntheticStream::new("b", p, 0, 0x4000_0000, 6);
        let (mut branches, mut miss) = (0, 0);
        for _ in 0..50_000 {
            if let OpKind::Branch { mispredict } = s.next_op().kind {
                branches += 1;
                if mispredict {
                    miss += 1;
                }
            }
        }
        assert!(branches > 5000);
        let rate = miss as f64 / branches as f64;
        assert!((rate - 0.5).abs() < 0.05, "mispredict rate {rate}");
    }
}
