//! Composable data-address generators.
//!
//! The locality structure of a program's address stream is what
//! determines its cache hit rates, its DRAM row-buffer behaviour and its
//! bandwidth demand — the three things the memory-efficiency metric
//! aggregates. [`AddressPattern`] describes a mixture of four archetypes;
//! [`AddressStream`] samples it reproducibly.

use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{Addr, CACHE_LINE_BYTES};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// `Rng::gen_bool(p)` with the float work done once: the stand-in's draw
/// is `(bits >> 11) as f64 * 2^-53 < p`, both sides scale by 2^53 exactly,
/// and an integer is below a real exactly when it is below its ceiling —
/// so [`draw`] against `threshold(p)` takes the same 64 bits from the
/// generator and returns the same answer, for every `p` in `[0, 1]`.
pub(crate) fn threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`threshold`].
#[inline]
pub(crate) fn draw(rng: &mut SmallRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// Walk a generator's four state words ([`Archive`]).
pub(crate) fn rng_state<A: Archive + ?Sized>(
    rng: &mut SmallRng,
    ar: &mut A,
) -> Result<(), SnapError> {
    let mut words = rng.state();
    words.iter_mut().try_for_each(|w| ar.u64(w))?;
    if ar.loading() {
        *rng = SmallRng::from_state(words);
    }
    Ok(())
}

/// Statistical description of a program's data-address behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressPattern {
    /// Size of the touched data region in bytes. Small working sets live
    /// in the caches; large ones stream from DRAM.
    pub working_set: u64,
    /// Probability that the next access continues a *sequential run*
    /// (next cache line) rather than jumping. High values give spatial
    /// locality — and DRAM row-buffer hits when misses reach memory.
    pub seq_prob: f64,
    /// Stride in bytes applied during a sequential run (usually one cache
    /// line; matrix codes use larger strides).
    pub stride: u64,
    /// Probability that a jump is a *pointer-chase* step (uniform within
    /// the working set but serialized by a data dependency — the CPU model
    /// reads `dep_dist` for that; the address itself is uniform).
    pub chase_prob: f64,
}

impl AddressPattern {
    /// A streaming pattern: long sequential runs over a large array
    /// (swim/applu-like).
    pub fn streaming(working_set: u64) -> Self {
        AddressPattern { working_set, seq_prob: 0.9, stride: CACHE_LINE_BYTES, chase_prob: 0.0 }
    }

    /// An irregular pattern: mostly uniform jumps in a large set
    /// (mcf-like).
    pub fn irregular(working_set: u64) -> Self {
        AddressPattern { working_set, seq_prob: 0.1, stride: CACHE_LINE_BYTES, chase_prob: 0.8 }
    }

    /// A cache-resident pattern: small working set (ILP apps).
    pub fn resident(working_set: u64) -> Self {
        AddressPattern { working_set, seq_prob: 0.5, stride: CACHE_LINE_BYTES, chase_prob: 0.0 }
    }

    fn validate(&self) {
        assert!(self.working_set >= CACHE_LINE_BYTES, "working set below one line");
        assert!((0.0..=1.0).contains(&self.seq_prob), "seq_prob out of range");
        assert!((0.0..=1.0).contains(&self.chase_prob), "chase_prob out of range");
        assert!(self.stride > 0, "stride must be positive");
    }
}

/// A reproducible sampler of an [`AddressPattern`] within a base region.
///
/// Each core's program gets a distinct `base` so programs never share
/// lines (the paper runs one independent program per core).
#[derive(Debug, Clone)]
pub struct AddressStream {
    pattern: AddressPattern,
    base: Addr,
    seq_below: u64,
    chase_below: u64,
    cursor: Addr,
    rng: SmallRng,
}

/// One sampled access: the address plus whether this step was a
/// pointer-chase (so the program model can attach a serializing
/// dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrSample {
    /// Byte address of the access.
    pub addr: Addr,
    /// True when the step was a dependent pointer-chase jump.
    pub chased: bool,
}

impl AddressStream {
    /// A stream over `[base, base + pattern.working_set)`.
    pub fn new(pattern: AddressPattern, base: Addr, seed: u64) -> Self {
        pattern.validate();
        AddressStream {
            seq_below: threshold(pattern.seq_prob),
            chase_below: threshold(pattern.chase_prob),
            pattern,
            base,
            cursor: base,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The pattern in use.
    pub fn pattern(&self) -> &AddressPattern {
        &self.pattern
    }

    /// Walk the sampler's mutable state, cursor then RNG ([`Archive`]).
    pub fn state<A: Archive + ?Sized>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        // `pattern`, `base`: construction-time config, identical across
        // snapshot peers. `seq_below`, `chase_below`:
        // threshold(pattern.seq_prob / chase_prob), fixed at construction.
        let Self { pattern: _, base: _, seq_below: _, chase_below: _, cursor, rng } = self;
        ar.u64(cursor)?;
        rng_state(rng, ar)
    }

    /// Sample the next data address.
    pub fn next_sample(&mut self) -> AddrSample {
        let ws = self.pattern.working_set;
        if draw(&mut self.rng, self.seq_below) {
            // Continue the sequential run.
            let next = self.cursor + self.pattern.stride;
            self.cursor = if next >= self.base + ws { self.base } else { next };
            AddrSample { addr: self.cursor, chased: false }
        } else {
            // Jump somewhere in the working set.
            let offset = self.rng.gen_range(0..ws / CACHE_LINE_BYTES) * CACHE_LINE_BYTES;
            self.cursor = self.base + offset;
            let chased = draw(&mut self.rng, self.chase_below);
            AddrSample { addr: self.cursor, chased }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBABILITIES: [f64; 7] =
        [0.0, 1.0, 0.3, 1.0 / 3.5, 0.02, 1e-12, 1.0 - 1.0 / (1u64 << 53) as f64];

    #[test]
    fn threshold_draws_what_gen_bool_draws() {
        for p in PROBABILITIES {
            let below = threshold(p);
            let mut ours = SmallRng::seed_from_u64(0x5eed);
            let mut theirs = ours.clone();
            for i in 0..1_000_000 {
                assert_eq!(draw(&mut ours, below), theirs.gen_bool(p), "p = {p}, draw {i}");
            }
            assert_eq!(ours.state(), theirs.state(), "p = {p}: same bits consumed");
        }
    }

    #[test]
    fn threshold_is_exact_at_the_boundary() {
        // Random draws never land on the one value where a rounding slip
        // would show; ask about it, and its neighbours, directly.
        let unit = 1.0 / (1u64 << 53) as f64;
        for p in PROBABILITIES {
            let below = threshold(p);
            for x in [below.saturating_sub(1), below, below + 1, 0, (1 << 53) - 1] {
                if x < 1 << 53 {
                    assert_eq!(x < below, (x as f64 * unit) < p, "p = {p}, x = {x}");
                }
            }
        }
    }

    #[test]
    fn threshold_rejects_what_gen_bool_rejects() {
        for p in [-f64::MIN_POSITIVE, 1.0 + f64::EPSILON, f64::NAN, f64::INFINITY] {
            assert!(std::panic::catch_unwind(|| threshold(p)).is_err(), "accepted {p}");
        }
    }

    #[test]
    fn stays_in_working_set() {
        let p = AddressPattern::streaming(1 << 20);
        let mut s = AddressStream::new(p, 0x1000_0000, 7);
        for _ in 0..10_000 {
            let a = s.next_sample().addr;
            assert!(a >= 0x1000_0000);
            assert!(a < 0x1000_0000 + (1 << 20));
        }
    }

    #[test]
    fn streaming_is_mostly_sequential() {
        let p = AddressPattern::streaming(1 << 22);
        let mut s = AddressStream::new(p, 0, 7);
        let mut prev = s.next_sample().addr;
        let mut seq = 0;
        let n = 10_000;
        for _ in 0..n {
            let a = s.next_sample().addr;
            if a == prev + CACHE_LINE_BYTES {
                seq += 1;
            }
            prev = a;
        }
        assert!(seq as f64 / n as f64 > 0.8, "only {seq}/{n} sequential");
    }

    #[test]
    fn irregular_rarely_sequential_and_chases() {
        let p = AddressPattern::irregular(1 << 22);
        let mut s = AddressStream::new(p, 0, 7);
        let mut prev = s.next_sample().addr;
        let (mut seq, mut chase) = (0, 0);
        let n = 10_000;
        for _ in 0..n {
            let smp = s.next_sample();
            if smp.addr == prev + CACHE_LINE_BYTES {
                seq += 1;
            }
            if smp.chased {
                chase += 1;
            }
            prev = smp.addr;
        }
        assert!((seq as f64) / (n as f64) < 0.25, "{seq} sequential");
        assert!((chase as f64) / (n as f64) > 0.5, "{chase} chased");
    }

    #[test]
    fn reproducible_with_same_seed() {
        let p = AddressPattern::irregular(1 << 20);
        let mut a = AddressStream::new(p.clone(), 0, 42);
        let mut b = AddressStream::new(p, 0, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_sample(), b.next_sample());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let p = AddressPattern::irregular(1 << 20);
        let mut a = AddressStream::new(p.clone(), 0, 1);
        let mut b = AddressStream::new(p, 0, 2);
        let same = (0..1000).filter(|_| a.next_sample() == b.next_sample()).count();
        assert!(same < 500, "streams too correlated: {same}");
    }

    #[test]
    #[should_panic(expected = "working set below one line")]
    fn tiny_working_set_rejected() {
        let p = AddressPattern { working_set: 32, seq_prob: 0.5, stride: 64, chase_prob: 0.0 };
        let _ = AddressStream::new(p, 0, 0);
    }

    #[test]
    fn wraps_at_region_end() {
        let p = AddressPattern { working_set: 256, seq_prob: 1.0, stride: 64, chase_prob: 0.0 };
        let mut s = AddressStream::new(p, 0x1000, 0);
        let addrs: Vec<Addr> = (0..8).map(|_| s.next_sample().addr).collect();
        assert_eq!(addrs, vec![0x1040, 0x1080, 0x10c0, 0x1000, 0x1040, 0x1080, 0x10c0, 0x1000]);
    }
}
