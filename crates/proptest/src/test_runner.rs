//! Deterministic test runner support: RNG, config, and case errors.

use std::fmt;

/// Per-test configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 256 }
    }
}

impl Config {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }

    /// The case count actually run: `PROPTEST_CASES=<n>` in the
    /// environment overrides the configured value, so CI can raise the
    /// budget (scheduled fuzz runs) without touching test sources.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(self.cases)
    }
}

/// The seed named by `PROPTEST_SEED=<n>` in the environment, if any.
/// When set, each property test runs exactly that one case — the
/// replay path for a seed printed by an earlier failure.
pub fn env_seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok()?.parse().ok()
}

/// A failed property case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wraps a failure message.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A small, fast, deterministic RNG (xorshift64*). Seeding is a pure
/// function of the property's path and the case index, so failures
/// reproduce across runs.
pub struct TestRng {
    state: u64,
}

const SEED_BASE: u64 = 0x9E37_79B9_7F4A_7C15;
const SEED_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

impl TestRng {
    /// The RNG for an explicit seed (the replay path): `from_seed(
    /// seed_for_case(p, n))` generates exactly the inputs of case `n`
    /// of property `p`.
    pub fn from_seed(seed: u64) -> Self {
        // SplitMix64 scramble keeps neighbouring seeds decorrelated.
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TestRng { state: (z ^ (z >> 31)) | 1 }
    }

    /// The replayable seed of case number `case` of the property at
    /// path `property` (its `module_path!()` and name) — printed on
    /// failure so `PROPTEST_SEED=<seed>` reproduces the exact inputs.
    /// An FNV-1a hash of the path offsets the seeds, so properties with
    /// the same strategies draw different inputs.
    pub fn seed_for_case(property: &str, case: u32) -> u64 {
        let path = property.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        SEED_BASE.wrapping_add(path).wrapping_add(u64::from(case).wrapping_mul(SEED_MUL))
    }

    /// The RNG for case number `case` of the property at `property`.
    pub fn for_case(property: &str, case: u32) -> Self {
        Self::from_seed(Self::seed_for_case(property, case))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return lo;
        }
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.below(span),
            // Full 64-bit domain: every value is in range.
            None => self.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let a: Vec<u64> = {
            let mut r = TestRng::for_case("p", 7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::for_case("p", 7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = TestRng::for_case("p", 8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn full_domain_range_does_not_overflow() {
        let mut r = TestRng::for_case("p", 9);
        // Spans covering the whole u64 domain must not panic.
        let _ = r.range_inclusive(0, u64::MAX);
        let _ = r.range_inclusive(1, u64::MAX);
    }

    #[test]
    fn seed_replays_exact_case() {
        // The seed printed for a failing case regenerates that case's
        // RNG stream bit-for-bit.
        for case in [0u32, 1, 7, 255] {
            let seed = TestRng::seed_for_case("m::p", case);
            let a: Vec<u64> = {
                let mut r = TestRng::for_case("m::p", case);
                (0..8).map(|_| r.next_u64()).collect()
            };
            let b: Vec<u64> = {
                let mut r = TestRng::from_seed(seed);
                (0..8).map(|_| r.next_u64()).collect()
            };
            assert_eq!(a, b, "case {case}");
        }
    }

    #[test]
    fn properties_draw_different_cases() {
        for case in [0u32, 1, 255] {
            let seed = |property| TestRng::seed_for_case(property, case);
            assert_ne!(seed("m::a"), seed("m::b"), "case {case}");
            assert_ne!(seed("m::a"), seed("n::a"), "case {case}");
        }
    }

    #[test]
    fn effective_cases_defaults_to_config() {
        // Without PROPTEST_CASES in the environment the configured
        // value wins. (CI sets the variable only in the scheduled
        // fuzz job.)
        if std::env::var("PROPTEST_CASES").is_err() {
            assert_eq!(Config::with_cases(17).effective_cases(), 17);
        }
    }

    #[test]
    fn bounds_respected() {
        let mut r = TestRng::for_case("p", 0);
        for _ in 0..1000 {
            let v = r.range_inclusive(3, 9);
            assert!((3..=9).contains(&v));
            assert!(r.below(5) < 5);
        }
    }
}
