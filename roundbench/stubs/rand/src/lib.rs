//! Offline stand-in for the subset of `rand` 0.8 that the FedSU workspace
//! calls. The benchmark container has no crate registry, so `roundbench`
//! patches `crates-io` with this crate (see `../README.md`). The generator is
//! xoshiro256** seeded through splitmix64: deterministic per seed, but *not*
//! the stream of the real `StdRng` (ChaCha12), so absolute accuracies differ
//! from a registry build while every round does the same work.

use core::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// One value of `T` from the [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// One value uniformly drawn from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0, 1]");
        unit_f64(self) < p
    }

    /// One value drawn from `distr`.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform `f64` in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform `f32` in `[0, 1)` from the top 24 bits.
fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Ranges `gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer in `[0, span)` (`span > 0`) by widening multiply with
/// rejection (Lemire).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let zone = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                loop {
                    let v = self.start + (self.end - self.start) * $unit(rng);
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                lo + (hi - lo) * $unit(rng)
            }
        }
    )*};
}
float_ranges!(f32 => unit_f32, f64 => unit_f64);

/// Distributions over values.
pub mod distributions {
    use super::{unit_f32, unit_f64, Rng};

    /// A probability distribution over `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }

    /// The default distribution: `[0, 1)` for floats, all values for
    /// integers, a fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            unit_f32(rng)
        }
    }
    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_f64(rng)
        }
    }
    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u32() >> 31 == 1
        }
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's one generator: xoshiro256**.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *w = x ^ (x >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}
