//! A deterministic, in-workspace PRNG for fault injection.
//!
//! The fault simulator must be reproducible run-to-run and offline (no
//! `rand` crate in the build image), so drops and duplications are drawn
//! from this xorshift64* generator seeded explicitly by the
//! [`crate::FaultPlan`]. The same seed always yields the same fault
//! sequence, which is what makes `faultsweep` curves and the committed
//! `BENCH_*.json` artifacts that `--check` compares deterministic.

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

    /// Resume a generator from a raw state read with
    /// [`XorShift64::state`].
    #[inline(always)]
    pub(crate) fn from_state(state: u64) -> Self {
        XorShift64 { state }
    }

    /// The raw state: the lane path keeps many generators' states side
    /// by side and advances them with [`advance`] and [`hits`].
    #[inline(always)]
    pub(crate) fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = advance(self.state);
        scramble(self.state)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)` (53 mantissa bits): the draw that
    /// [`threshold`] is proven against.
    #[cfg(test)]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`. `p <= 0` (or NaN) is
    /// a guaranteed `false` and `p >= 1` a guaranteed `true`; both still
    /// consume one draw so fault sequences stay aligned across sweeps
    /// that vary only the probability.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.state = advance(self.state);
        hits(self.state, threshold(p))
    }
}

/// One xorshift step of a raw state.
#[inline(always)]
pub(crate) fn advance(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The output of a freshly advanced state (the `*` of xorshift64*).
#[inline(always)]
fn scramble(x: u64) -> u64 {
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Does the draw from the freshly advanced state `x` land below
/// `threshold` (a [`threshold`] value)? This is the one Bernoulli rule:
/// [`XorShift64::chance`] and the lane path both use it.
#[inline(always)]
pub(crate) fn hits(x: u64, threshold: u64) -> bool {
    (scramble(x) >> 11) < threshold
}

/// The integer form of a Bernoulli(`p`) draw over 53-bit draws `m`:
/// `m < threshold(p)` exactly when `m · 2⁻⁵³ < p`. It is `0` for
/// `!(p > 0)` (NaN included), `2⁵³` for `p >= 1`, and `⌈p · 2⁵³⌉`
/// otherwise: scaling by a power of two is exact, and `m < x` holds for
/// an integer `m` exactly when `m < ⌈x⌉`.
#[inline]
pub(crate) fn threshold(p: f64) -> u64 {
    const ONE: u64 = 1 << 53;
    if p >= 1.0 {
        ONE
    } else if p > 0.0 {
        // `⌈x⌉` for `0 < x < 2⁵³`, where the truncation and its
        // conversion back are exact (the baseline x86-64 target has no
        // rounding instruction, so `f64::ceil` would be a libm call).
        let x = p * ONE as f64;
        let t = x as u64;
        t + ((t as f64) < x) as u64
    } else {
        0
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

    /// The Bernoulli rule before [`threshold`]: the f64 draw `u`
    /// against `p`, with its `p <= 0` and `p >= 1` arms.
    fn f64_rule(u: f64, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            u < p
        }
    }

    /// `x` and its neighbours one ulp away (sign-aware at zero).
    fn with_neighbours(x: f64) -> [f64; 3] {
        let b = x.to_bits();
        if x == 0.0 {
            [x, f64::from_bits(1), -f64::from_bits(1)]
        } else {
            [x, f64::from_bits(b - 1), f64::from_bits(b + 1)]
        }
    }

    proptest::proptest! {
        /// `m < threshold(p)` decides every 53-bit draw `m` exactly as the
        /// f64 rule does, on random bit patterns, special values, the
        /// grid `k·2⁻⁵³` and its ulp neighbours, with `m` at the threshold,
        /// one below it and the extremes; and `chance` agrees with the f64
        /// rule draw for draw.
        #[test]
        fn threshold_matches_the_f64_rule(
            bits in proptest::prelude::any::<u64>(),
            k in 0u64..(1 << 53) + 1,
            raw in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            const ONE: u64 = 1 << 53;
            let scale = 1.0 / ONE as f64;
            let mut ps = vec![
                f64::from_bits(bits),
                f64::from_bits(bits & 0x000f_ffff_ffff_ffff), // subnormal or 0
                f64::from_bits(bits >> 2), // mostly in (0, 1)
                (raw >> 11) as f64 * scale,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                1.0 - scale,
                -1.0,
            ];
            ps.extend(with_neighbours(k as f64 * scale));
            ps.extend(with_neighbours(0.0));
            ps.extend(with_neighbours(1.0));
            ps.extend(with_neighbours(scale));
            for p in ps {
                let t = threshold(p);
                proptest::prop_assert!(t <= ONE);
                let ms = [0, 1, t.saturating_sub(1), t, t + 1, ONE - 2, ONE - 1, raw >> 11];
                for m in ms.into_iter().filter(|&m| m < ONE) {
                    proptest::prop_assert_eq!(
                        m < t,
                        f64_rule(m as f64 * scale, p),
                        "p {:e} ({:#x}) m {}", p, p.to_bits(), m
                    );
                }
                let (mut a, mut b) = (XorShift64::new(seed), XorShift64::new(seed));
                for _ in 0..8 {
                    proptest::prop_assert_eq!(a.chance(p), f64_rule(b.next_f64(), p), "p {:e}", p);
                }
            }
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = XorShift64::new(11);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
