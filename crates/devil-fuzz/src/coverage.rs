//! Coverage-guided corpus growth over the compiled plan surface.
//!
//! The runtime's opt-in dispatch trace names, for every access, exactly
//! which straight-line plan variant executed
//! ([`devil_runtime::DispatchRecord`]). That is the whole coverage
//! signal this module feeds on: a [`CoverageSpace`]
//! enumerates every compiled plan variant (plus memory-cell serves and
//! fused superplan variants) of a spec up front, a [`Coverage`] map
//! marks which of them a word stream lit up, and [`grow_corpus`]
//! mutates *from the corpus* — splice, truncate, arg-domain nudge,
//! guard-field hammer — keeping exactly the streams that reach
//! something new. [`minimize`] then shrinks the corpus to a fixpoint
//! (idempotent by construction) that still covers the full union.
//!
//! Streams stay raw `Vec<u64>` words: the same pure, total
//! [`crate::decode`] / [`crate::superfuzz::decode_super`] pair turns
//! them into ops, so every corpus entry replays through
//! [`crate::compare`] against the reference interpreter and the
//! compiled C and Rust stubs.

use crate::superfuzz::decode_super;
use crate::{decode, run_op, Engine};
use devil_ir::DeviceIr;
use devil_runtime::{AccessRef, DeviceInstance, DispatchOutcome, DispatchRecord, FakeAccess};
use devil_sema::model::{StructId, VarId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The enumerated compiled plan surface of one spec: every reachable
/// dispatch point a guided corpus must light up.
pub struct CoverageSpace {
    /// Dense point table, in a fixed enumeration order (variables,
    /// structures, superplans; reads before writes; variant index
    /// ascending).
    points: Vec<DispatchRecord>,
    /// Reverse lookup from a trace record to its dense index.
    index: BTreeMap<DispatchRecord, usize>,
    /// Human names for failure listings, parallel to `points`.
    names: Vec<String>,
}

impl CoverageSpace {
    /// Enumerates the plan surface of `ir`: per access (variable
    /// read/write, structure read/write, superplan) one point per
    /// compiled plan variant (a memory-cell serve is its read plan's
    /// one variant).
    pub fn of(ir: &DeviceIr) -> CoverageSpace {
        let mut points = Vec::new();
        let mut names = Vec::new();
        let mut push = |access: AccessRef, plan: Option<&devil_ir::AccessPlan>, what: &str| {
            let n = plan.map_or(0, |p| p.variants.len());
            for idx in 0..n {
                points
                    .push(DispatchRecord { access, outcome: DispatchOutcome::Variant(idx as u32) });
                names.push(format!("{what} variant {idx}/{n}"));
            }
        };
        for (vi, var) in ir.vars.iter().enumerate() {
            let vid = VarId(vi as u32);
            push(AccessRef::ReadVar(vid), var.read_plan.as_deref(), &format!("read {}", var.name));
            push(
                AccessRef::WriteVar(vid),
                var.write_plan.as_deref(),
                &format!("write {}", var.name),
            );
        }
        for (si, st) in ir.structs.iter().enumerate() {
            let sid = StructId(si as u32);
            let (read, write) = (st.read_plan.as_deref(), st.write_plan.as_deref());
            push(AccessRef::ReadStruct(sid), read, &format!("read_struct {}", st.name));
            push(AccessRef::WriteStruct(sid), write, &format!("write_struct {}", st.name));
        }
        for (si, sp) in ir.superplans().iter().enumerate() {
            push(AccessRef::Superplan(si), Some(&sp.plan), &format!("superplan {}", sp.name));
        }
        let index = points.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        CoverageSpace { points, index, names }
    }

    /// Number of enumerated points (the completeness denominator).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the spec compiles no plans at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The human name of point `i`, for failure listings.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }
}

/// A coverage map over one [`CoverageSpace`]: which plan-surface points
/// have been hit.
#[derive(Clone)]
pub struct Coverage {
    hits: Vec<bool>,
    hit_count: usize,
}

impl Coverage {
    /// An empty map over `space`.
    pub fn new(space: &CoverageSpace) -> Coverage {
        Coverage { hits: vec![false; space.len()], hit_count: 0 }
    }

    /// Folds one trace record in. Returns `true` when it reached a
    /// plan-surface point not seen before.
    pub fn observe(&mut self, space: &CoverageSpace, rec: DispatchRecord) -> bool {
        // A record the space does not know cannot happen for a trace
        // over the same IR; treat it as non-novel.
        let Some(&i) = space.index.get(&rec) else { return false };
        let new = !self.hits[i];
        if new {
            self.hits[i] = true;
            self.hit_count += 1;
        }
        new
    }

    /// Plan-surface points hit so far.
    pub fn covered(&self) -> usize {
        self.hit_count
    }

    /// Whether every plan-surface point has been hit.
    pub fn complete(&self, space: &CoverageSpace) -> bool {
        self.hit_count == space.len()
    }

    /// Names of the points not yet reached, for assertion messages.
    pub fn unreached<'s>(&self, space: &'s CoverageSpace) -> Vec<&'s str> {
        (0..space.len()).filter(|&i| !self.hits[i]).map(|i| space.name(i)).collect()
    }
}

/// Replays one raw word stream — variable/struct ops first, then the
/// fused-sequence decoding of the same words — through a fresh
/// plan-runtime instance with the dispatch trace on, and returns every
/// recorded dispatch. This is the (pure) stream → coverage signal map.
pub fn covered_records(ir: &DeviceIr, words: &[u64]) -> Vec<DispatchRecord> {
    let mut inst = DeviceInstance::new(ir.clone());
    inst.set_dispatch_trace(true);
    let mut dev = FakeAccess::new();
    let mut obs = Vec::new();
    for op in decode(ir, words).iter().chain(&decode_super(ir, words)) {
        run_op(&mut Engine::Plans(&mut inst), &mut dev, op, &mut obs);
        obs.clear();
    }
    inst.take_dispatch_trace()
}

/// Folds a stream's trace into `cov`; returns `true` when the stream
/// contributed anything new.
pub fn cover_stream(
    ir: &DeviceIr,
    space: &CoverageSpace,
    cov: &mut Coverage,
    words: &[u64],
) -> bool {
    let mut new = false;
    for rec in covered_records(ir, words) {
        new |= cov.observe(space, rec);
    }
    new
}

/// Words per freshly generated candidate stream. Long enough to reach
/// guarded variants behind multi-op setup, short enough that minimized
/// entries stay readable.
const STREAM_LEN: usize = 48;

fn random_stream(rng: &mut u64, len: usize) -> Vec<u64> {
    (0..len).map(|_| superfuzz_rng(rng)).collect()
}

fn superfuzz_rng(rng: &mut u64) -> u64 {
    crate::rooted::splitmix64(rng)
}

/// One corpus-seeded mutation. The four operators the growth loop
/// cycles through:
///
/// * **splice** — prefix of one corpus entry + suffix of another,
/// * **truncate** — a proper prefix (shorter setup, different decode
///   alignment for the superplan pass),
/// * **arg-domain nudge** — one word's argument-steering bits moved a
///   small step (including across the in/out-of-domain boundary),
/// * **guard-field hammer** — one word forced into a struct-write or
///   variable-write opcode with a small payload, the shape that flips
///   guard fields and memory cells between selector values.
fn mutate(corpus: &[Vec<u64>], rng: &mut u64) -> Vec<u64> {
    let pick = |rng: &mut u64| {
        let i = (superfuzz_rng(rng) % corpus.len() as u64) as usize;
        &corpus[i]
    };
    let mut out = pick(rng).clone();
    match superfuzz_rng(rng) % 4 {
        0 => {
            // Splice.
            let other = pick(rng).clone();
            let cut_a = (superfuzz_rng(rng) % (out.len() as u64 + 1)) as usize;
            let cut_b = (superfuzz_rng(rng) % (other.len() as u64 + 1)) as usize;
            out.truncate(cut_a);
            out.extend_from_slice(&other[cut_b.min(other.len())..]);
        }
        1 => {
            // Truncate.
            let keep = 1 + (superfuzz_rng(rng) % out.len().max(1) as u64) as usize;
            out.truncate(keep);
        }
        2 => {
            // Arg-domain nudge: perturb the bits `args_for` consumes
            // (selection at bits 0..8, value at 8.., the deliberate
            // out-of-domain trigger at 57..60).
            if !out.is_empty() {
                let i = (superfuzz_rng(rng) % out.len() as u64) as usize;
                let r = superfuzz_rng(rng);
                out[i] = match r % 3 {
                    0 => out[i].wrapping_add(1 << 8),
                    1 => out[i] ^ (0x7 << 57) ^ (r & (0x3 << 60)),
                    _ => out[i] >> 1,
                };
            }
        }
        _ => {
            // Guard-field hammer: small payloads through write opcodes
            // are what move 1–2 bit tested fields and memory cells
            // between selector values.
            if !out.is_empty() {
                let i = (superfuzz_rng(rng) % out.len() as u64) as usize;
                let r = superfuzz_rng(rng);
                let opcode = if r & 1 == 0 { 9 + (r >> 1) % 3 } else { 4 + (r >> 1) % 5 };
                out[i] = (out[i] & !0xfu64) | opcode;
                // The following words decode as field values / the
                // written value: pin one to a tiny guard-flipping
                // payload.
                if i + 1 < out.len() {
                    out[i + 1] = (r >> 8) % 4;
                }
            }
        }
    }
    if out.is_empty() {
        out.push(superfuzz_rng(rng));
    }
    out
}

/// Grows a corpus until the plan surface is saturated or `budget`
/// candidate streams have been tried. Deterministic in `seed`. Every
/// fourth candidate is fresh-random (exploration); the rest mutate from
/// the corpus (exploitation). A candidate is kept exactly when it
/// reaches a plan-surface point nothing before it reached.
pub fn grow_corpus(ir: &DeviceIr, seed: u64, budget: usize) -> Vec<Vec<u64>> {
    let space = CoverageSpace::of(ir);
    let mut cov = Coverage::new(&space);
    let mut corpus: Vec<Vec<u64>> = Vec::new();
    let mut rng = seed;
    for round in 0..budget {
        if cov.complete(&space) && round >= budget / 4 {
            break;
        }
        let cand = if corpus.is_empty() || round % 4 == 0 {
            random_stream(&mut rng, STREAM_LEN)
        } else {
            mutate(&corpus, &mut rng)
        };
        if cover_stream(ir, &space, &mut cov, &cand) {
            corpus.push(cand);
        }
    }
    corpus
}

/// Coverage of a pure uniform-random word budget — the baseline the
/// guided corpus must beat. Uses the same generator discipline and the
/// same per-stream length as [`grow_corpus`]'s exploration rounds, and
/// the same total candidate budget. Returns `(points hit, points
/// total)`.
pub fn uniform_coverage(ir: &DeviceIr, seed: u64, budget: usize) -> (usize, usize) {
    let space = CoverageSpace::of(ir);
    let mut cov = Coverage::new(&space);
    let mut rng = seed;
    for _ in 0..budget {
        let cand = random_stream(&mut rng, STREAM_LEN);
        cover_stream(ir, &space, &mut cov, &cand);
    }
    (cov.covered(), space.len())
}

/// Plan-surface point indices a stream reaches, as a comparable set.
fn contribution(ir: &DeviceIr, space: &CoverageSpace, words: &[u64]) -> BTreeSet<usize> {
    covered_records(ir, words).iter().filter_map(|rec| space.index.get(rec).copied()).collect()
}

/// Minimizes a corpus: greedy marginal-contribution selection in corpus
/// order, then a per-entry prefix shrink that must preserve the whole
/// corpus's plan-surface union, iterated to a fixpoint. Deterministic,
/// and idempotent by construction — the result *is* a fixpoint of the
/// reduction step, so minimizing it again changes nothing.
pub fn minimize(ir: &DeviceIr, corpus: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let space = CoverageSpace::of(ir);
    let mut cur: Vec<Vec<u64>> = corpus.to_vec();
    loop {
        let next = minimize_step(ir, &space, &cur);
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

fn minimize_step(ir: &DeviceIr, space: &CoverageSpace, corpus: &[Vec<u64>]) -> Vec<Vec<u64>> {
    // Greedy keep-if-marginal, in order.
    let mut union: BTreeSet<usize> = BTreeSet::new();
    let mut kept: Vec<Vec<u64>> = Vec::new();
    for entry in corpus {
        let pts = contribution(ir, space, entry);
        if !pts.is_subset(&union) {
            union.extend(&pts);
            kept.push(entry.clone());
        }
    }
    // Prefix shrink: each entry to the shortest prefix that keeps the
    // corpus-wide union intact (halving descent, then single steps).
    for i in 0..kept.len() {
        let full_union = union.clone();
        let others_union = |kept: &[Vec<u64>], skip: usize| -> BTreeSet<usize> {
            let mut u = BTreeSet::new();
            for (j, e) in kept.iter().enumerate() {
                if j != skip {
                    u.extend(contribution(ir, space, e));
                }
            }
            u
        };
        let others = others_union(&kept, i);
        let keeps_union = |prefix: &[u64]| -> bool {
            let mut u = others.clone();
            u.extend(contribution(ir, space, prefix));
            u == full_union
        };
        let mut len = kept[i].len();
        while len > 1 && keeps_union(&kept[i][..len / 2]) {
            len /= 2;
        }
        while len > 1 && keeps_union(&kept[i][..len - 1]) {
            len -= 1;
        }
        kept[i].truncate(len);
    }
    kept
}

/// Directory holding the shipped per-spec corpora.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The shipped corpus file for `name`.
pub fn corpus_path(name: &str) -> PathBuf {
    corpus_dir().join(format!("{name}.corpus"))
}

/// Serializes a corpus: one stream per line, whitespace-separated hex
/// words, `#` comments.
pub fn format_corpus(name: &str, corpus: &[Vec<u64>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Coverage-guided corpus for `{name}`.");
    let _ = writeln!(out, "# One op stream per line (hex words, decoded by devil_fuzz::decode");
    let _ = writeln!(out, "# and decode_super). Regenerate with UPDATE_CORPUS=1 cargo test");
    let _ = writeln!(out, "# -p devil-fuzz --test coverage_corpus.");
    for stream in corpus {
        let line: Vec<String> = stream.iter().map(|w| format!("{w:x}")).collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
    out
}

/// Parses [`format_corpus`] output.
pub fn parse_corpus(text: &str) -> Vec<Vec<u64>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_ascii_whitespace()
                .map(|t| u64::from_str_radix(t, 16).expect("corpus words are hex"))
                .collect()
        })
        .collect()
}

/// Loads the shipped corpus for `name`, panicking with the regeneration
/// recipe when the file is missing (the golden-file convention).
pub fn shipped_corpus(name: &str) -> Vec<Vec<u64>> {
    let path = corpus_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing shipped corpus {} ({e}); regenerate with \
             UPDATE_CORPUS=1 cargo test -p devil-fuzz --test coverage_corpus",
            path.display()
        )
    });
    parse_corpus(&text)
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
        let space = CoverageSpace::of(&ir);
        assert!(!space.is_empty());
        // Every variable with a plan appears; names are human-readable.
        let names: Vec<&str> = (0..space.len()).map(|i| space.name(i)).collect();
        assert!(names.iter().any(|n| n.contains("read lo")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("write hi")), "{names:?}");
    }

    #[test]
    fn guided_growth_saturates_simple_specs() {
        let ir = ir(SPEC);
        let space = CoverageSpace::of(&ir);
        let corpus = grow_corpus(&ir, 0xdead_beef, 400);
        let mut cov = Coverage::new(&space);
        for s in &corpus {
            cover_stream(&ir, &space, &mut cov, s);
        }
        assert!(cov.complete(&space), "unreached: {:?}", cov.unreached(&space));
    }

    #[test]
    fn minimize_preserves_coverage_and_is_idempotent() {
        let ir = ir(SPEC);
        let space = CoverageSpace::of(&ir);
        let corpus = grow_corpus(&ir, 7, 400);
        let min = minimize(&ir, &corpus);
        assert!(min.len() <= corpus.len());
        let union = |c: &[Vec<u64>]| {
            let mut cov = Coverage::new(&space);
            for s in c {
                cover_stream(&ir, &space, &mut cov, s);
            }
            cov.covered()
        };
        assert_eq!(union(&min), union(&corpus), "minimization lost coverage");
        assert_eq!(minimize(&ir, &min), min, "minimize must be a fixpoint");
    }

    #[test]
    fn corpus_round_trips_through_text() {
        let corpus = vec![vec![0x1234, 0xffff_ffff_ffff_ffff], vec![0]];
        let text = format_corpus("demo", &corpus);
        assert_eq!(parse_corpus(&text), corpus);
    }
}
