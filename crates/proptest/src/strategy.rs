//! The [`Strategy`] trait and its core combinators.

use crate::test_runner::TestRng;

/// A recipe for generating values, mirroring `proptest::strategy::Strategy`.
///
/// Unlike real proptest there is no value tree and no shrinking: a
/// strategy simply produces a value from the case RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Blanket impl so `&S` works where a strategy is expected.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies (built by [`crate::prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// A union over `options`; must be non-empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for ::std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for ::std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                (lo + rng.range_inclusive(0, span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Regex-like string strategies: `"[a-z][a-z0-9_]{0,8}"` etc.
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        crate::regex::generate(self, rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a canonical "any value" strategy, mirroring
/// `proptest::arbitrary::Arbitrary` at the depth this workspace needs.
pub trait Arbitrary: Sized {
    /// The strategy returned by [`any`].
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// A strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-domain strategy for primitives (used via [`any`]).
pub struct AnyPrim<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrim<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrim<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrim(std::marker::PhantomData)
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyPrim<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrim<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyPrim(std::marker::PhantomData)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("", 1);
        for _ in 0..500 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let s = (0i32..=5).generate(&mut rng);
            assert!((0..=5).contains(&s));
        }
    }

    #[test]
    fn map_and_just_compose() {
        let mut rng = TestRng::for_case("", 2);
        let s = Just(21u64).prop_map(|v| v * 2);
        assert_eq!(s.generate(&mut rng), 42);
    }

    #[test]
    fn union_picks_every_option_eventually() {
        let mut rng = TestRng::for_case("", 3);
        let u = crate::prop_oneof![Just('a'), Just('b'), Just('c')];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(u.generate(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn tuples_generate_componentwise() {
        let mut rng = TestRng::for_case("", 4);
        let (a, b) = (0u32..4, any::<bool>()).generate(&mut rng);
        assert!(a < 4);
        let _: bool = b;
    }
}
