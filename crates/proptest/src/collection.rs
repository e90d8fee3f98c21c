//! Collection strategies, mirroring `proptest::collection`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length range for generated collections.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    /// Minimum length, inclusive.
    pub min: usize,
    /// Maximum length, inclusive.
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange { min: r.start, max: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange { min: *r.start(), max: *r.end() }
    }
}

/// Generates `Vec`s of values from `element`, with a length drawn from
/// `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.range_inclusive(self.size.min as u64, self.size.max as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn length_bounds_respected() {
        let mut rng = TestRng::for_case("", 5);
        let s = vec(Just(7u8), 1..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((1..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 7));
        }
    }

    #[test]
    fn exact_length() {
        let mut rng = TestRng::for_case("", 6);
        let s = vec(Just('x'), 8usize);
        assert_eq!(s.generate(&mut rng).len(), 8);
    }
}
