//! A small, self-contained deterministic PRNG.
//!
//! The repo's randomized suites only need *reproducible* pseudo-random
//! streams — cryptographic quality is irrelevant, and an external
//! dependency is an offline-build liability. [`DetRng`] is a
//! xoshiro256\*\* generator (Blackman & Vigna) whose 256-bit state is
//! expanded from a single `u64` seed with splitmix64, the combination
//! the xoshiro authors themselves recommend for seeding.
//!
//! The API mirrors the subset of `rand` the repo used: seeding from a
//! `u64`, uniform ranges, Bernoulli draws, unit-interval floats, and
//! Fisher–Yates shuffles.
//!
//! ```
//! use locality_graph::rng::DetRng;
//!
//! let mut rng = DetRng::seed_from_u64(42);
//! let die = rng.gen_range(1..=6u32);
//! assert!((1..=6).contains(&die));
//!
//! // Same seed, same stream — always.
//! let mut a = DetRng::seed_from_u64(7);
//! let mut b = DetRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// Deterministic xoshiro256\*\* generator seeded via splitmix64.
///
/// Every randomized test, generator, and experiment in the workspace
/// draws from this type, so a given seed reproduces the exact same
/// graphs and routes on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Builds a generator whose full 256-bit state is derived from
    /// `seed` by four rounds of splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The next raw 64-bit output (xoshiro256\*\* scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = (*s1).wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform draw from a half-open or inclusive integer range.
    ///
    /// Panics when the range is empty, matching `rand`'s contract.
    ///
    /// ```
    /// use locality_graph::rng::DetRng;
    /// let mut rng = DetRng::seed_from_u64(0);
    /// let x = rng.gen_range(10..20usize);
    /// assert!((10..20).contains(&x));
    /// ```
    #[inline]
    pub fn gen_range<T, R: RangeSample<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        self.gen_f64() < p
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[0, bound)` without modulo bias
    /// (Lemire's multiply-shift reduction).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// In-place Fisher–Yates shuffle.
    ///
    /// ```
    /// use locality_graph::rng::DetRng;
    /// let mut rng = DetRng::seed_from_u64(3);
    /// let mut v: Vec<u32> = (0..10).collect();
    /// rng.shuffle(&mut v);
    /// let mut sorted = v.clone();
    /// sorted.sort_unstable();
    /// assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    /// ```
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Integer ranges [`DetRng::gen_range`] can sample from. The type
/// parameter `T` is the sampled value's type, so inference can flow
/// from how the result is used back to the range's element type.
pub trait RangeSample<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut DetRng) -> T;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl RangeSample<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut DetRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, usize);

impl RangeSample<u64> for std::ops::Range<u64> {
    #[inline]
    fn sample(self, rng: &mut DetRng) -> u64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + rng.below(self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(123);
        let mut b = DetRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reference_vector_xoshiro256starstar() {
        // State {1,2,3,4} must produce the published xoshiro256** outputs.
        let mut rng = DetRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = DetRng::seed_from_u64(99);
        for _ in 0..1000 {
            let x = rng.gen_range(3..16usize);
            assert!((3..16).contains(&x));
            let y = rng.gen_range(0..=6u32);
            assert!(y <= 6);
            let z = rng.gen_range(5..6u8);
            assert_eq!(z, 5);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = DetRng::seed_from_u64(11);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(21);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // And with 50! arrangements, a fixed shuffle is all but surely nontrivial.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = DetRng::seed_from_u64(0);
        rng.gen_range(5..5usize);
    }
}
