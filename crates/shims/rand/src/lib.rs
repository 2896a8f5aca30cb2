//! Offline stand-in for the `rand` crate (0.9 API subset).
//!
//! Provides [`Rng`] with `random`, `random_bool` and `random_range`, the
//! [`SeedableRng`] trait, and [`rngs::StdRng`] backed by xoshiro256** seeded
//! through SplitMix64 — deterministic across runs for reproducible
//! workload generation.

#![forbid(unsafe_code)]

/// Core random-number-generator trait (rand 0.9 method names).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly random value of a [`Standard`]-distributed type.
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }

    /// A uniform sample from `range` (half-open or inclusive).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        T: SampleUniform,
        R: std::ops::RangeBounds<T>,
    {
        T::sample_range(self, &range)
    }
}

/// Types generable uniformly from raw bits.
pub trait Standard: Sized {
    /// Draw one value.
    fn from_rng<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: Rng>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: Rng>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for i64 {
    fn from_rng<R: Rng>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl Standard for i32 {
    fn from_rng<R: Rng>(rng: &mut R) -> i32 {
        (rng.next_u64() >> 32) as i32
    }
}

impl Standard for usize {
    fn from_rng<R: Rng>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn from_rng<R: Rng>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_rng<R: Rng>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types uniformly sampleable from a range.
pub trait SampleUniform: Sized {
    /// Sample uniformly from `range`; panics on an empty range.
    fn sample_range<R: Rng, B: std::ops::RangeBounds<Self>>(rng: &mut R, range: &B) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng, B: std::ops::RangeBounds<Self>>(rng: &mut R, range: &B) -> Self {
                use std::ops::Bound;
                let lo: $t = match range.start_bound() {
                    Bound::Included(&x) => x,
                    Bound::Excluded(&x) => x + 1,
                    Bound::Unbounded => <$t>::MIN,
                };
                let hi: $t = match range.end_bound() {
                    Bound::Included(&x) => x,
                    Bound::Excluded(&x) => x.checked_sub(1).expect("empty range"),
                    Bound::Unbounded => <$t>::MAX,
                };
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                // Widening multiply maps 64 random bits onto the span with
                // negligible bias for the sub-2^64 spans used here.
                let r = rng.next_u64() as u128;
                let off = (r * span) >> 64;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: Rng, B: std::ops::RangeBounds<Self>>(rng: &mut R, range: &B) -> Self {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&x) | Bound::Excluded(&x) => x,
            Bound::Unbounded => 0.0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) | Bound::Excluded(&x) => x,
            Bound::Unbounded => 1.0,
        };
        lo + f64::from_rng(rng) * (hi - lo)
    }
}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The standard deterministic generator: xoshiro256** seeded via
    /// SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // SplitMix64 expansion of the seed into the full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** step.
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_range(3..17usize);
            assert!((3..17).contains(&v));
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            let neg = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&neg));
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.2)).count();
        assert!((1_500..2_500).contains(&hits), "hits={hits}");
    }
}
