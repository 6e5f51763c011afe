//! Offline shim implementing the subset of the `rand` 0.8 API this
//! workspace uses.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal, dependency-free stand-in instead of the real
//! crate. Only what the repo actually calls is provided:
//!
//! * [`RngCore`] / [`Rng`] with `gen_range` (half-open and inclusive integer
//!   and float ranges), `gen_bool`, and `fill_bytes`;
//! * [`SeedableRng`] with `from_seed` and `seed_from_u64`;
//! * [`rngs::StdRng`] — here a xoshiro256** generator seeded via SplitMix64
//!   (deterministic, high-quality, but **not** the ChaCha12 stream of the
//!   real `StdRng`; seeds are only meaningful within this workspace);
//! * [`seq::SliceRandom`] with `shuffle` and `choose`.
//!
//! The statistical quality (equidistribution, period 2^256 − 1) is more than
//! sufficient for the sampling algorithms and tests in this repository.

#![forbid(unsafe_code)]

/// The core abstraction: a source of random `u32`/`u64` words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// Ranges that can produce a uniform sample of `T`.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types uniformly sampleable from a range (drives `gen_range` inference:
/// one generic [`SampleRange`] impl per range shape, like real rand).
pub trait SampleUniform: PartialOrd + Sized {
    /// Uniform sample from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift with rejection
/// (exactly unbiased).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(bound);
        let lo = m as u64;
        // A word is rejected when `lo` is below the threshold `2^64 mod
        // bound`. The threshold is always `< bound`, so `lo >= bound`
        // accepts without evaluating it: the 64-bit division runs with
        // probability `bound / 2^64`, not on every call.
        if lo >= bound || lo >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
        // Reject to remove modulo bias (rare: p < bound / 2^64).
    }
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                let v = uniform_u64(rng, span);
                (lo as i128 + v as i128) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Full u64/i64 domain: a raw word is already uniform.
                    return rng.next_u64() as $t;
                }
                let v = uniform_u64(rng, span as u64);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_uniform {
    ($($t:ty, $mantissa:expr);*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let unit = (rng.next_u64() >> (64 - $mantissa)) as $t
                    / (1u64 << $mantissa) as $t;
                let v = lo + unit * (hi - lo);
                // Guard against rounding up to the exclusive bound.
                if v < hi { v } else { lo }
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let unit = (rng.next_u64() >> (64 - $mantissa)) as $t
                    / ((1u64 << $mantissa) - 1) as $t;
                lo + unit * (hi - lo)
            }
        }
    )*};
}

impl_float_uniform!(f64, 53; f32, 24);

/// Ergonomic extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        let bytes = seed.as_mut();
        let mut i = 0;
        while i < bytes.len() {
            let word = sm.next().to_le_bytes();
            let take = (bytes.len() - i).min(8);
            bytes[i..i + take].copy_from_slice(&word[..take]);
            i += take;
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 — used only for seed expansion.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic RNG: xoshiro256**.
    ///
    /// NOT the ChaCha12 generator of the real `rand::rngs::StdRng`; streams
    /// are deterministic per seed but only comparable within this workspace.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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

    impl StdRng {
        /// The raw xoshiro256** state words. Together with
        /// [`StdRng::from_state`] this makes the generator checkpointable:
        /// a restored generator continues the exact stream the saved one
        /// would have produced.
        #[must_use]
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from previously captured
        /// [`state`](StdRng::state) words. An all-zero state (a xoshiro
        /// fixed point, never produced by a seeded generator) is nudged to
        /// the same canonical constants `from_seed` uses.
        #[must_use]
        pub fn from_state(mut s: [u64; 4]) -> Self {
            if s == [0, 0, 0, 0] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
            Self { s }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point; nudge it.
            if s == [0, 0, 0, 0] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
            Self { s }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffle / choose over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniformly shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&w));
            let x: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&x));
            let y: i64 = rng.gen_range(1..=5);
            assert!((1..=5).contains(&y));
        }
    }

    #[test]
    fn uniform_u64_fast_path_matches_the_always_divide_formula() {
        // The reference evaluates the threshold on every word, as the shim
        // did before the `lo >= bound` short cut. Same accept set, so the
        // outputs and the number of words consumed must be equal.
        fn reference(rng: &mut Counted, bound: u64) -> u64 {
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(bound);
                if m as u64 >= bound.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }
        struct Counted {
            rng: StdRng,
            words: u64,
        }
        impl RngCore for Counted {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.words += 1;
                self.rng.next_u64()
            }
        }
        // (bound, whether it rejects in practice): the thresholds of 3·2^62
        // and 2^63 + 1 are 2^62 and 2^63 − 1, a quarter and a half of all
        // words; every other threshold here is 0 or a few parts in 2^64.
        let bounds = [
            (1, false),
            (2, false),
            (3, false),
            (10, false),
            (1 << 32, false),
            (1 << 63, false),
            (3 << 62, true),
            ((1 << 63) + 1, true),
            (u64::MAX, false),
        ];
        const DRAWS: u64 = 20_000;
        for (seed, (bound, rejects)) in (0u64..).zip(bounds) {
            let counted = || Counted {
                rng: StdRng::seed_from_u64(seed),
                words: 0,
            };
            let (mut fast, mut slow) = (counted(), counted());
            for _ in 0..DRAWS {
                assert_eq!(
                    super::uniform_u64(&mut fast, bound),
                    reference(&mut slow, bound),
                    "bound {bound}"
                );
            }
            assert_eq!(fast.words, slow.words, "words consumed, bound {bound}");
            assert_eq!(fast.words > DRAWS, rejects, "bound {bound}");
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn dyn_rng_core_usable() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dyn_rng: &mut dyn RngCore = &mut rng;
        let v = dyn_rng.gen_range(0..100u64);
        assert!(v < 100);
        assert!(dyn_rng.choose_helper());
    }

    trait ChooseHelper {
        fn choose_helper(&mut self) -> bool;
    }

    impl ChooseHelper for &mut dyn RngCore {
        fn choose_helper(&mut self) -> bool {
            let v: u8 = self.gen_range(0..2);
            v < 2
        }
    }

    #[test]
    fn state_roundtrip_continues_the_stream() {
        let mut a = StdRng::seed_from_u64(7);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn from_state_nudges_all_zero() {
        let mut z = StdRng::from_state([0; 4]);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
