//! A deterministic, in-workspace PRNG for fault injection.
//!
//! The fault simulator must be reproducible run-to-run and offline (no
//! `rand` crate in the build image), so drops and duplications are drawn
//! from this xorshift64* generator seeded explicitly by the
//! [`crate::FaultPlan`]. The same seed always yields the same fault
//! sequence, which is what makes `faultsweep` curves and the CI smoke
//! step deterministic.

/// xorshift64* — tiny, fast, and good enough for fault sampling.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seed the generator. The raw seed is scrambled through one
    /// splitmix64 step so that small consecutive seeds (0, 1, 2, …) do
    /// not produce correlated early outputs; a zero state is remapped
    /// (xorshift has a fixed point at 0).
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        XorShift64 {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)` (53 mantissa bits).
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`. `p <= 0` is a
    /// guaranteed `false` and `p >= 1` a guaranteed `true`; both still
    /// consume one draw so fault sequences stay aligned across sweeps
    /// that vary only the probability.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let u = self.next_f64();
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            u < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = XorShift64::new(43);
        assert_ne!(xs[0], c.next_u64(), "different seeds must diverge");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = XorShift64::new(9);
        for _ in 0..64 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
        // A fair-ish coin lands on both sides over 1000 draws.
        let heads = (0..1000).filter(|_| r.chance(0.5)).count();
        assert!((200..800).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = XorShift64::new(11);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
