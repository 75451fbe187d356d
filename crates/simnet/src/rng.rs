//! Deterministic random number generation for simulations.
//!
//! Every stochastic component (loss models, workload generators, jitter) draws
//! from a [`SimRng`] derived from the experiment's master seed, so a run is
//! exactly reproducible given its seed. Independent components should use
//! [`SimRng::fork`] with distinct labels so that adding randomness consumption
//! in one component does not perturb another.

/// A deterministic, seedable random number generator for simulation use.
///
/// Implemented as xoshiro256++ seeded via SplitMix64 — self-contained (the
/// build is offline, so no `rand` dependency) and stable across platforms and
/// releases, which is what makes simulation runs bit-reproducible.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state, per the
        // generator authors' recommendation.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
            seed,
        }
    }

    /// Next 64 uniformly random bits (xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for a named sub-component.
    ///
    /// The derived stream depends only on the parent seed and the label, not
    /// on how much randomness the parent has consumed.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::new(h)
    }

    /// Uniform floating-point sample in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 uniformly random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[low, high)`. Panics if the range is empty.
    fn gen_range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range");
        let span = high - low;
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return low + v % span;
            }
        }
    }

    /// Uniform integer in `[low, high)` as usize.
    pub fn gen_range_usize(&mut self, low: usize, high: usize) -> usize {
        self.gen_range_u64(low as u64, high as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// A sample from a bounded Pareto distribution, used for heavy-tailed
    /// object sizes in the synthetic web workload.
    pub fn bounded_pareto(&mut self, alpha: f64, low: f64, high: f64) -> f64 {
        assert!(alpha > 0.0 && low > 0.0 && high > low);
        let u = self.next_f64();
        let la = low.powf(alpha);
        let ha = high.powf(alpha);
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
        x.clamp(low, high)
    }

    /// Fill a byte buffer with uniform random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.gen_range_u64(0, 1_000_000)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen_range_u64(0, 1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_label_dependent_and_stable() {
        let parent = SimRng::new(7);
        let mut f1 = parent.fork("loss");
        let mut f2 = parent.fork("loss");
        let f3 = parent.fork("workload");
        assert_eq!(f1.next_f64().to_bits(), f2.next_f64().to_bits());
        assert_ne!(f1.seed(), f3.seed());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Statistical sanity: p=0.5 should be within a loose band.
        let hits = (0..10_000).filter(|_| r.chance(0.5)).count();
        assert!(hits > 4_500 && hits < 5_500, "hits={hits}");
    }

    #[test]
    fn bounded_pareto_in_bounds() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let x = r.bounded_pareto(1.2, 100.0, 1_000_000.0);
            assert!((100.0..=1_000_000.0).contains(&x));
        }
    }

    #[test]
    fn random_bytes_len() {
        // 33 bytes: four whole words and a one-byte tail from the fifth.
        let mut buf = [0u8; 33];
        SimRng::new(5).fill_bytes(&mut buf);
        let mut words = SimRng::new(5);
        for chunk in buf.chunks(8) {
            assert_eq!(chunk, &words.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}
