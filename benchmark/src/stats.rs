//! Order statistics over the samples one run collects.

/// The `q` quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The noise-robust clock for repeated identical work.
///
/// A round (a pass, a set-up, a window of requests) is a fixed list of
/// parts, each timed separately and each doing the same deterministic work
/// in every round. Host noise (steal, a neighbour thrashing the shared
/// cache) only ever adds time and comes in bursts of seconds, so whole
/// rounds are rarely clean but every part is, in some round. The estimate
/// of a round on a quiet host is the sum of each part's fastest time.
#[derive(Default)]
pub struct Fastest {
    parts: Vec<f64>,
    pub rounds: u64,
}

impl Fastest {
    pub fn round(&mut self, parts: &[f64]) {
        if self.rounds == 0 {
            self.parts = parts.to_vec();
        }
        assert_eq!(parts.len(), self.parts.len(), "every round has the same parts");
        for (best, p) in self.parts.iter_mut().zip(parts) {
            *best = best.min(*p);
        }
        self.rounds += 1;
    }

    pub fn sum(&self) -> f64 {
        self.parts.iter().sum()
    }
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// splitmix64: the benchmark's only randomness, all of it from `--seed`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
