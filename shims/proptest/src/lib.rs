//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! See the root `Cargo.toml` (`[workspace.dependencies]`) for why these
//! exist. This is a seeded-random property runner, not a port: each
//! `proptest!` test runs `cases` iterations with a deterministic per-case
//! RNG (seed = fixed golden-ratio mix of the case index), generating
//! inputs through the same `Strategy` combinator surface the tests
//! already use (integer ranges, tuples, `collection::vec`, `any::<T>()`,
//! `prop_map`, `prop_flat_map`, `sample::Index`). There is **no
//! shrinking**: a failing case panics with the case number, and
//! determinism makes it reproducible. That trades minimal counterexamples
//! for a zero-dependency build; the property coverage itself is
//! unchanged.

pub mod test_runner {
    /// Per-test configuration. Only `cases` is consulted; the other
    /// fields exist so `..ProptestConfig::default()` updates written
    /// against real proptest keep compiling (and stay meaningful).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
        pub max_shrink_iters: u32,
        pub max_global_rejects: u32,
        pub fork: bool,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_shrink_iters: 0,
                max_global_rejects: 1024,
                fork: false,
            }
        }
    }

    /// Deterministic xoshiro256** source for input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        pub fn for_case(case: u64) -> Self {
            let mut sm = case.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bf0_3635_16f5_311d;
            let mut s = [0u64; 4];
            for slot in s.iter_mut() {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *slot = z ^ (z >> 31);
            }
            TestRng { s }
        }

        pub fn next_u64(&mut self) -> u64 {
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

        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Value generator. `gen_value` replaces proptest's tree-based
    /// `new_tree`; combinators keep their upstream names so call sites
    /// compile unchanged.
    pub trait Strategy {
        type Value;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, f }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.gen_value(rng)).gen_value(rng)
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.gen_value(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 consecutive candidates");
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = ((rng.next_u64() as u128) % span) as i128;
                    (self.start as i128 + v) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                    let v = ((rng.next_u64() as u128) % span) as i128;
                    (*self.start() as i128 + v) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident / $v:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.gen_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy!((A / a)(A / a, B / b)(A / a, B / b, C / c)(
        A / a,
        B / b,
        C / c,
        D / d
    )(A / a, B / b, C / c, D / d, E / e)(
        A / a,
        B / b,
        C / c,
        D / d,
        E / e,
        F / f
    ));
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical strategy, reachable via `any::<T>()`.
    pub trait Arbitrary: Sized {
        fn generate(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn generate(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn generate(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn generate(rng: &mut TestRng) -> Self {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Arbitrary for f32 {
        fn generate(rng: &mut TestRng) -> Self {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn generate(rng: &mut TestRng) -> Self {
            crate::sample::Index::from_raw(rng.next_u64())
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::generate(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Acceptable size arguments for `collection::vec`.
    pub trait SizeRange {
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start() <= self.end(), "empty vec size range");
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample_len(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod sample {
    /// An index into a collection whose length is only known at use
    /// time: `idx.index(len)` maps the raw draw uniformly into
    /// `0..len`.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        pub(crate) fn from_raw(raw: u64) -> Self {
            Index(raw)
        }

        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Runs each `fn` in the block `cases` times with deterministic seeded
/// inputs. The `#[test]` attribute written inside the block is passed
/// through, so the functions register as ordinary tests.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__case as u64);
                $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pairs() -> impl Strategy<Value = Vec<(u32, u32)>> {
        (1usize..10).prop_flat_map(|n| prop::collection::vec((0..n as u32, 0..n as u32), 0..=20))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn generated_pairs_respect_bounds(pairs in arb_pairs(), flip in any::<bool>()) {
            for (a, b) in &pairs {
                prop_assert!(*a < 10 && *b < 10);
            }
            let _ = flip;
        }

        #[test]
        fn index_maps_into_range(idx in any::<prop::sample::Index>(), len in 1usize..50) {
            prop_assert!(idx.index(len) < len);
        }
    }

    #[test]
    fn deterministic_per_case() {
        use crate::strategy::Strategy;
        let s = (0u32..1000, 0u32..1000);
        let a = s.gen_value(&mut crate::test_runner::TestRng::for_case(3));
        let b = s.gen_value(&mut crate::test_runner::TestRng::for_case(3));
        assert_eq!(a, b);
    }
}
