//! Seeded zipfian popularity generator (no external deps).
//!
//! YCSB-style skewed key popularity: rank `0` is the hottest item and
//! rank probabilities fall off as `1/i^θ`. The sampler is the rejection-
//! free closed form of Gray et al., *Quickly Generating Billion-Record
//! Synthetic Databases* (SIGMOD '94) — the same algorithm YCSB's
//! `ZipfianGenerator` uses — driven by a [`SplitMix64`] stream so every
//! draw is a pure function of the seed.
//!
//! [`Zipfian::sample`] returns *ranks* (0 = most popular); use
//! [`Zipfian::sample_scrambled`] to spread the hot ranks over the whole
//! item space like YCSB's `ScrambledZipfianGenerator`, so popularity is
//! decoupled from insertion order.

/// SplitMix64: the 64-bit mixing PRNG from Steele et al. (OOPSLA '14).
/// One u64 of state, full period, and cheap enough to seed per-stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 finalizer: a bijective avalanche mix of one u64.
/// Also used standalone as a seeded hash (key scrambling, value
/// derivation) wherever a full PRNG stream is not needed.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A stream seeded with `seed`; equal seeds give equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian rank distribution over `n` items with skew `θ ∈ (0, 1)`.
///
/// Construction is `O(n)` (the harmonic normalizer `ζ(n, θ)`); each
/// sample is `O(1)`. The YCSB default is `θ = 0.99`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// Salt for the scrambled variant, derived from the constructor seed.
    salt: u64,
}

impl Zipfian {
    /// A distribution over ranks `0..n`; `seed` only affects the
    /// scrambled rank→item mapping, not the rank probabilities.
    pub fn new(n: u64, theta: f64, seed: u64) -> Zipfian {
        assert!(n > 0, "zipfian needs at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            salt: mix64(seed ^ 0x59C5_2A5C_8A5C_5A5C),
        }
    }

    /// `ζ(n, θ) = Σ_{i=1..n} 1/i^θ`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of the hottest rank (`1/ζ(n, θ)`).
    pub fn top_mass(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Draw a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draw an *item* in `0..n` with zipfian popularity but the hot
    /// items scattered over the space (YCSB's scrambled zipfian): the
    /// rank is passed through a seeded bijective mix before the modulo,
    /// so which items are hot depends on the seed, not on item order.
    pub fn sample_scrambled(&self, rng: &mut SplitMix64) -> u64 {
        mix64(self.sample(rng) ^ self.salt) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output of SplitMix64 seeded with 1234567
        // (Vigna's splitmix64.c test vector).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn zipfian_is_deterministic_per_seed() {
        let z = Zipfian::new(1000, 0.99, 7);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let sa: Vec<u64> = (0..200).map(|_| z.sample_scrambled(&mut a)).collect();
        let sb: Vec<u64> = (0..200).map(|_| z.sample_scrambled(&mut b)).collect();
        let sc: Vec<u64> = (0..200).map(|_| z.sample_scrambled(&mut c)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        // Different scramble seeds relocate the hot items.
        let z2 = Zipfian::new(1000, 0.99, 8);
        let mut d = SplitMix64::new(42);
        let sd: Vec<u64> = (0..200).map(|_| z2.sample_scrambled(&mut d)).collect();
        assert_ne!(sa, sd);
    }

    #[test]
    fn ranks_stay_in_range() {
        for n in [1u64, 2, 3, 10, 1000] {
            let z = Zipfian::new(n, 0.99, 1);
            let mut rng = SplitMix64::new(9);
            for _ in 0..2000 {
                assert!(z.sample(&mut rng) < n);
                assert!(z.sample_scrambled(&mut rng) < n);
            }
        }
    }

    #[test]
    fn tail_mass_matches_the_closed_form() {
        // With n = 1000 and θ = 0.99 the top-10 ranks carry
        // ζ(10)/ζ(1000) ≈ 39% of the mass — far above the 1% a uniform
        // distribution would give them.
        let n = 1000u64;
        let theta = 0.99;
        let z = Zipfian::new(n, theta, 3);
        let expected: f64 = Zipfian::zeta(10, theta) / Zipfian::zeta(n, theta);
        let mut rng = SplitMix64::new(1);
        let draws = 200_000;
        let hot = (0..draws).filter(|_| z.sample(&mut rng) < 10).count();
        let mass = hot as f64 / draws as f64;
        assert!(
            (mass - expected).abs() < 0.02,
            "top-10 mass {mass:.3} vs closed-form {expected:.3}"
        );
        assert!(mass > 0.30 && mass < 0.50, "tail mass off: {mass:.3}");
    }

    #[test]
    fn scramble_preserves_total_skew() {
        // Scrambling relocates hot items but the *histogram* sorted by
        // frequency must still be zipf-shaped: the hottest item keeps
        // ≈ 1/ζ(n,θ) of the mass.
        let n = 200u64;
        let z = Zipfian::new(n, 0.99, 5);
        let mut rng = SplitMix64::new(2);
        let mut counts = vec![0u64; n as usize];
        let draws = 100_000u64;
        for _ in 0..draws {
            counts[z.sample_scrambled(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top = counts[0] as f64 / draws as f64;
        let expect = z.top_mass();
        assert!(
            (top - expect).abs() < 0.05,
            "hottest item mass {top:.3} vs {expect:.3}"
        );
    }
}
