//! Offline shim for the subset of `rand` 0.8 this workspace uses.
//!
//! See the root `Cargo.toml` (`[workspace.dependencies]`) for why these
//! exist. Everything in this repo seeds explicitly
//! (`StdRng::seed_from_u64`) and draws via `gen`/`gen_range`, so the shim
//! is a seeded splitmix64/xoshiro-style generator with those two entry
//! points. The bit streams differ from upstream rand — all consumers are
//! generators/tests that only need determinism for a fixed seed, not
//! upstream-identical streams.

use std::ops::{Range, RangeInclusive};

/// Construction from a seed. Only `seed_from_u64` is used here.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Types drawable via `rng.gen()`.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u16 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with `rng.gen_range(lo..hi)`.
pub trait UniformInt: Copy + PartialOrd {
    fn from_u64_mod(v: u64, lo: Self, hi_exclusive: Self) -> Self;
    fn succ(self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn from_u64_mod(v: u64, lo: Self, hi_exclusive: Self) -> Self {
                debug_assert!(lo < hi_exclusive, "gen_range on empty range");
                let span = (hi_exclusive as i128 - lo as i128) as u128;
                // Modulo bias is negligible for the small spans the
                // generators use and irrelevant to correctness.
                lo.wrapping_add((v as u128 % span) as $t)
            }
            fn succ(self) -> Self { self.wrapping_add(1) }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing drawing trait, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let v = self.next_u64();
        T::from_u64_mod(v, range.start, range.end)
    }

    fn gen_range_inclusive<T: UniformInt>(&mut self, range: RangeInclusive<T>) -> T {
        let v = self.next_u64();
        T::from_u64_mod(v, *range.start(), range.end().succ())
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as Standard>::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Raw 64-bit source, mirroring `rand_core::RngCore` loosely.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Seeded xoshiro256** generator (statistics far beyond what the
    /// R-MAT generator and tests need).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in s.iter_mut() {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state is the one degenerate case; splitmix64 of
            // any seed cannot produce four zeros, but belt and braces.
            if s == [0; 4] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// The workspace requests the `small_rng` feature; alias it to the
    /// same generator.
    pub type SmallRng = StdRng;
}

pub mod prelude {
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_in_bounds_and_f64_unit() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
        // Spot-check rough uniformity: both halves of a range hit.
        let (mut lo, mut hi) = (0, 0);
        for _ in 0..200 {
            if r.gen_range(0u32..2) == 0 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 50 && hi > 50);
    }
}
