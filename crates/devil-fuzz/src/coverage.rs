//! The coverage corpus over the compiled plan surface.
//!
//! The runtime counts every dispatch in one hit table, one entry per
//! compiled plan variant of the spec ([`DeviceInstance::hits`], indexed
//! by [`DeviceIr::points`]). That is the whole coverage signal this
//! module feeds on: a stream's coverage is the set of non-zero entries
//! of a fresh instance's table after replaying it, and a [`Coverage`]
//! map merges tables element-wise. [`corpus`] draws uniform random
//! streams from a fixed seed and keeps exactly those that reach a point
//! nothing before them reached, until every point is hit.
//!
//! Streams stay raw `Vec<u64>` words: the same pure, total
//! [`crate::decode`] / [`crate::superfuzz::decode_super`] pair turns
//! them into ops, so every corpus entry replays through
//! [`crate::compare`] against the reference interpreter and the
//! compiled C and Rust stubs.

use crate::rooted::splitmix64;
use crate::superfuzz::decode_super;
use crate::{decode, run_op, Engine};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};

/// The dispatch points of one spec that have been hit: hit tables
/// merged by element-wise addition.
#[derive(Clone)]
pub struct Coverage {
    hits: Vec<u64>,
    covered: usize,
}

impl Coverage {
    /// An empty map over every dispatch point of `ir`.
    pub fn new(ir: &DeviceIr) -> Coverage {
        Coverage { hits: vec![0; ir.dispatch_points()], covered: 0 }
    }

    /// Adds one hit table in. Returns `true` when it reached a point
    /// not hit before.
    pub fn merge(&mut self, hits: &[u64]) -> bool {
        let before = self.covered;
        for (total, &n) in self.hits.iter_mut().zip(hits) {
            if *total == 0 && n > 0 {
                self.covered += 1;
            }
            *total += n;
        }
        self.covered > before
    }

    /// Dispatch points hit so far.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Whether every dispatch point has been hit.
    pub fn complete(&self) -> bool {
        self.covered == self.hits.len()
    }

    /// Names of the points not yet reached, for assertion messages.
    pub fn unreached(&self, ir: &DeviceIr) -> Vec<String> {
        let mut names = Vec::new();
        for (access, plan) in ir.accesses() {
            for (idx, point) in plan.points().enumerate() {
                if self.hits[point] == 0 {
                    let n = plan.variants.len();
                    names.push(format!("{} variant {idx}/{n}", ir.access_name(access)));
                }
            }
        }
        names
    }
}

/// Replays one raw word stream — variable/struct ops first, then the
/// fused-sequence decoding of the same words — through a fresh
/// plan-runtime instance and returns its hit table. This is the (pure)
/// stream → coverage signal map.
pub fn stream_hits(ir: &DeviceIr, words: &[u64]) -> Vec<u64> {
    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    let mut obs = Vec::new();
    for op in decode(ir, words).iter().chain(&decode_super(ir, words)) {
        run_op(&mut Engine::Plans(&mut inst), &mut dev, op, &mut obs);
        obs.clear();
    }
    inst.hits().to_vec()
}

/// The corpus seed: the corpus is a pure function of it, the decoder
/// and the spec.
const SEED: u64 = 0x5eed_c0ff_ee00_0009;

/// Words per candidate stream: long enough to reach guarded variants
/// behind multi-op setup.
const STREAM_LEN: usize = 48;

/// Candidates drawn per spec at most. Every library spec completes
/// within 8; a spec that needs more than this has a point the decoder
/// cannot reach, which [`Coverage::unreached`] then names.
const MAX_CANDIDATES: usize = 256;

/// The coverage corpus of `ir`: `splitmix64` streams of
/// `STREAM_LEN` words drawn from `SEED`, each kept when it reaches
/// a dispatch point no earlier stream reached, until the corpus covers
/// every point or `MAX_CANDIDATES` streams have been drawn.
pub fn corpus(ir: &DeviceIr) -> Vec<Vec<u64>> {
    let mut cov = Coverage::new(ir);
    let mut rng = SEED;
    let mut kept = Vec::new();
    for _ in 0..MAX_CANDIDATES {
        if cov.complete() {
            break;
        }
        let words: Vec<u64> = (0..STREAM_LEN).map(|_| splitmix64(&mut rng)).collect();
        if cov.merge(&stream_hits(ir, &words)) {
            kept.push(words);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir(src: &str) -> DeviceIr {
        devil_ir::lower(&devil_sema::check_source(src, &[]).expect("spec checks"))
    }

    const SPEC: &str = r#"device d (base : bit[8] port @ {0..2}) {
        register r = base @ 2 : bit[8];
        variable lo = r[3..0] : int(4);
        variable hi = r[7..4] : int(4);
        register f(i : int{0..1}) = base @ i : bit[8];
        variable fv(i : int{0..1}) = f(i), volatile : int(8);
    }"#;

    #[test]
    fn space_enumerates_every_plan_variant() {
        let ir = ir(SPEC);
        // Every variable with a plan appears; names are human-readable.
        let names = Coverage::new(&ir).unreached(&ir);
        assert!(!names.is_empty());
        assert_eq!(names.len(), ir.dispatch_points());
        assert!(names.iter().any(|n| n.contains("read lo")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("write hi")), "{names:?}");
    }

    #[test]
    fn corpus_saturates_simple_specs() {
        let ir = ir(SPEC);
        let corpus = corpus(&ir);
        let mut cov = Coverage::new(&ir);
        for s in &corpus {
            assert!(cov.merge(&stream_hits(&ir, s)), "every kept stream reaches a new point");
        }
        assert!(cov.complete(), "unreached: {:?}", cov.unreached(&ir));
    }
}
