//! # dams-prng
//!
//! Deterministic, dependency-free pseudo-randomness for the whole
//! workspace: a splitmix64 seed expander feeding an xoshiro256++ stream,
//! wrapped in the subset of the `rand` crate's API this repository uses
//! (`Rng`, `SeedableRng`, `rngs::StdRng`, `seq::SliceRandom`).
//!
//! The workspace aliases this crate as `rand`, which keeps every caller
//! hermetic: no crates-io download, and every stream replays exactly from
//! a `u64` seed — the property the fault-injection harness
//! (`dams-node::faults`) builds its replayable failure schedules on.
//!
//! Neither generator is cryptographic. The crypto crate's demonstration
//! Schnorr group is itself toy-sized, so a statistical PRNG is the right
//! fidelity; a production deployment would swap in an OS CSPRNG behind
//! the same `RngCore` seam.

/// The raw entropy source: one 64-bit output per call.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction from a 64-bit seed (the only seeding mode the repo uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// splitmix64 — Sebastiano Vigna's seed expander. One multiply-xorshift
/// pipeline per output; passes BigCrush despite its size. Used both as a
/// standalone stream and to key xoshiro256++ (its own state would be a
/// poor direct key: nearby seeds are correlated without expansion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

/// xoshiro256++ — the workspace's general-purpose generator (Blackman &
/// Vigna). 256 bits of state, period 2^256 − 1, and the `++` output
/// scrambler that clears the low-linear-complexity artifacts of the
/// plain xoshiro output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl RngCore for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // All-zero state is the one forbidden point; splitmix64 maps no
        // seed to four zero outputs, so this cannot produce it.
        Xoshiro256PlusPlus {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

pub mod rngs {
    //! Named generators, mirroring `rand::rngs`.

    /// The workspace's standard generator (xoshiro256++ behind the
    /// `rand`-compatible name every call site already uses).
    pub type StdRng = super::Xoshiro256PlusPlus;
}

/// A type a generator can produce uniformly over its whole domain
/// (the `rand::distributions::Standard` role).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 explicit mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// A range `gen_range` accepts (half-open and inclusive integer ranges,
/// half-open float ranges).
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Lemire's multiply-shift: the bias is < 2^-64 relative for the
    // bounds this repo draws (all far below 2^64), which is beyond
    // anything the statistical tests can resolve.
    ((u128::from(rng.next_u64()) * u128::from(bound)) >> 64) as u64
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain u64 range: every output is in range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

/// The ergonomic extension trait every call site imports (`rand::Rng`).
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    #[inline]
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Slice helpers, mirroring `rand::seq`.

    use super::{uniform_below, RngCore};

    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle, deterministic per generator state.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly chosen element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(uniform_below(rng, self.len() as u64) as usize)
            }
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `rand::prelude`.
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from Vigna's C sources.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn streams_replay_from_seed() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(3usize..=5);
            assert!((3..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = rngs::StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = rngs::StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rngs::StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_uniform_and_empty() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let v = [1u8, 2, 3];
        for _ in 0..100 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
    }

    #[test]
    fn works_through_mut_references() {
        fn takes_generic<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut rng = rngs::StdRng::seed_from_u64(1);
        let r = &mut rng;
        assert!(takes_generic(r) < 100);
        assert!(takes_generic(&mut rngs::StdRng::seed_from_u64(2)) < 100);
    }

    #[test]
    fn standard_f64_in_unit_interval() {
        let mut rng = rngs::StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
