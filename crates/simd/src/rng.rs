//! A tiny deterministic PRNG (xorshift64* seeded through splitmix64).
//!
//! The workspace builds with zero external crates, so the handful of
//! places that need randomness — the sinogram noise model, randomized
//! tests, benchmark input generation — share this generator instead of
//! `rand`. It is deliberately small: reproducible streams, uniform and
//! Gaussian doubles, bounded integers. Not cryptographic.

/// Xorshift64* generator with splitmix64 seed conditioning (so seeds
/// 0, 1, 2, … produce uncorrelated streams).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator from any seed (including 0).
    pub fn new(seed: u64) -> Self {
        // splitmix64 step: spreads low-entropy seeds over the state space
        // and guarantees a nonzero xorshift state.
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        XorShift64 { state: z | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, bound)`; `bound` must be positive. The
    /// modulo bias is < 2⁻⁵³ for any bound the suite uses.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below `bound`, which is a usize"
    )]
    pub fn next_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Standard normal deviate via Box-Muller (one value per call; the
    /// second root is discarded to keep the stream position simple).
    pub fn normal(&mut self) -> f64 {
        // u1 in (0, 1] so the log is finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = XorShift64::new(0);
        let v: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn uniform_doubles_in_range_and_spread() {
        let mut r = XorShift64::new(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_and_bounded_int() {
        let mut r = XorShift64::new(3);
        for _ in 0..1000 {
            let v = r.range_f64(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
            assert!(r.next_usize(17) < 17);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = XorShift64::new(11);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = r.normal();
            assert!(z.is_finite());
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
