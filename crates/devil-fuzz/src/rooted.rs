//! The one differential comparator: two [`Rig`]s replay the same op
//! stream, each folds what it observes into an MMR trace, and the
//! verdict is one 32-byte root compare.
//!
//! Every rig folds the same *leaves*: one per op, its observation lines
//! ([`crate::drive`]: the bus operations, results and errors of its
//! calls), so the leaf index *is* the op index; then one final leaf,
//! the cache dump ([`crate::cache_leaf`]). Every rig ([`InProcess`]:
//! the plan runtime and the reference interpreter, and
//! [`crate::compiled::CompiledIn`]: the emitted C or Rust stubs)
//! renders them through [`crate::drive`].
//!
//! Both rigs stream in O(peaks) memory, so replay length is a knob, not
//! a memory bound. On a root mismatch [`compare`] re-replays both rigs
//! retained — replays are pure functions of the op source, so this only
//! costs the failing case — and [`bisect_divergence`] names the first
//! divergent leaf in O(log N) hash compares; a third, windowed replay
//! recovers the lines around it for the report.
//!
//! Replay length for the long-run tests comes from the `DIFF_OPS` env
//! knob (mirroring `PROPTEST_CASES`), so CI nightlies push millions of
//! ops while PR runs stay fast.

use crate::{cache_leaf, drive, Op, Surface};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess, ReferenceInstance, RtError};
use hwsim::mmr::{bisect_divergence, Divergence, Hash, MmrLog};
use std::fmt::Write as _;
use std::ops::Range;

/// Replay length for long-run differential tests: `DIFF_OPS` from the
/// environment, or `default`.
pub fn diff_ops(default: u64) -> u64 {
    match std::env::var("DIFF_OPS") {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("DIFF_OPS must be an integer, got {v:?}")),
        Err(_) => default,
    }
}

/// The splitmix64 generator behind [`OpStream`] and the coverage corpus: one
/// well-mixed word per call, pure in the running `state`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An unbounded deterministic op stream: 128-word chunks from a
/// splitmix64 generator run through [`crate::decode`] on demand, so a
/// million-op replay never materializes a million-`Op` vector. Pure in
/// `(ir, seed)`, like the proptest word streams.
pub struct OpStream<'ir> {
    ir: &'ir DeviceIr,
    state: u64,
    remaining: u64,
    chunk: std::vec::IntoIter<Op>,
}

impl<'ir> OpStream<'ir> {
    /// A stream of exactly `ops` operations derived from `seed`.
    pub fn new(ir: &'ir DeviceIr, seed: u64, ops: u64) -> Self {
        let remaining = if ir.vars.is_empty() { 0 } else { ops };
        OpStream { ir, state: seed, remaining, chunk: Vec::new().into_iter() }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(op) = self.chunk.next() {
                self.remaining -= 1;
                return Some(op);
            }
            let words: Vec<u64> = (0..128).map(|_| splitmix64(&mut self.state)).collect();
            self.chunk = crate::decode(self.ir, &words).into_iter();
        }
    }
}

/// Where a rig's replay goes: the MMR log of its leaves, plus what
/// [`compare`] reads back for its verdict and report.
pub struct Trace {
    log: MmrLog,
    /// Leaves whose lines are kept for the mismatch report.
    window: Range<u64>,
    captured: Vec<(u64, String)>,
    /// Stream ops the rig replayed.
    pub(crate) ops: u64,
    /// Leaves of ops a debug write check rejected.
    pub(crate) write_rejects: Vec<u64>,
    /// The leaf of every read a debug read check rejected.
    pub(crate) read_rejects: Vec<u64>,
}

impl Trace {
    pub(crate) fn new(retain: bool, window: Range<u64>) -> Trace {
        let mut log = MmrLog::new(retain);
        log.reserve(1024, 96);
        Trace {
            log,
            window,
            captured: Vec::new(),
            ops: 0,
            write_rejects: Vec::new(),
            read_rejects: Vec::new(),
        }
    }

    /// Folds one leaf: its observation lines, each ending in `\n`.
    pub(crate) fn leaf(&mut self, lines: &str) {
        let idx = self.log.len();
        self.log.push(lines.as_bytes());
        if self.window.contains(&idx) {
            self.captured.push((idx, lines.to_string()));
        }
    }

    /// The result lines (`O`) of captured leaf `idx`.
    fn results(&self, idx: u64) -> Vec<&str> {
        let leaf = self.captured.iter().find(|c| c.0 == idx).map_or("", |c| &c.1[..]);
        leaf.lines().filter(|l| l.starts_with("O ")).collect()
    }

    /// The outcome of this trace's rig, counting rejects up to leaf
    /// `last` inclusive.
    fn outcome(&mut self, ops: u64, last: u64, retained_bytes: usize) -> Outcome {
        let upto = |leaves: &[u64]| leaves.iter().filter(|&&l| l <= last).count();
        Outcome {
            root: self.log.root(),
            ops,
            leaves: self.log.len(),
            retained_bytes,
            write_rejects: upto(&self.write_rejects),
            read_rejects: upto(&self.read_rejects),
        }
    }
}

/// One side of a differential replay.
pub trait Rig {
    /// A label for mismatch reports.
    fn name(&self) -> String;

    /// Replays `ops` from a fresh state, folding what it observes into
    /// `trace`. An `Err` is a failure of the rig itself: a check that
    /// fired.
    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String>;
}

/// The in-process rigs: the plan runtime or the reference interpreter,
/// fresh per replay, over a logging [`FakeAccess`].
#[derive(Clone, Copy)]
pub struct InProcess<'ir> {
    ir: &'ir DeviceIr,
    plans: bool,
    checks: bool,
}

impl<'ir> InProcess<'ir> {
    /// The plan runtime ([`DeviceInstance`]).
    pub fn plans(ir: &'ir DeviceIr) -> Self {
        InProcess { ir, plans: true, checks: false }
    }

    /// The reference interpreter ([`ReferenceInstance`]).
    pub fn reference(ir: &'ir DeviceIr) -> Self {
        InProcess { ir, plans: false, checks: false }
    }

    /// Turns the paper's debug checks on or off. A checked rig counts
    /// the accesses its checks reject, and a checked plan rig fails the
    /// replay if a rejected write reached the device.
    #[must_use]
    pub fn checks(self, checks: bool) -> Self {
        InProcess { checks, ..self }
    }
}

impl Rig for InProcess<'_> {
    fn name(&self) -> String {
        let engine = if self.plans { "plans" } else { "reference" };
        if self.checks {
            format!("checked {engine}")
        } else {
            engine.to_string()
        }
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        let mut inst: Box<dyn Surface> = if self.plans {
            let mut plans = DeviceInstance::new(self.ir.clone());
            plans.set_debug_checks(self.checks);
            Box::new(plans)
        } else {
            let mut reference = ReferenceInstance::new(self.ir.clone());
            reference.set_debug_checks(self.checks);
            Box::new(reference)
        };
        fold(self.ir, &mut *inst, ops, trace, self.plans && self.checks)
    }
}

/// Replays `ops` through `s` over a fresh [`FakeAccess`], folding one
/// leaf per op ([`drive`]) and then the final cache leaf. Records the
/// leaves of the ops debug checks rejected; `strict` fails the replay
/// when a rejected write reached the device.
pub(crate) fn fold(
    ir: &DeviceIr,
    s: &mut dyn Surface,
    ops: &mut dyn Iterator<Item = Op>,
    trace: &mut Trace,
    strict: bool,
) -> Result<(), String> {
    let (mut dev, mut leaf) = (FakeAccess::new(), String::new());
    for op in ops {
        leaf.clear();
        let verdict = drive(ir, s, &mut dev, &op, &mut leaf);
        let at = trace.log.len();
        if let Err(RtError::ValueRange { .. }) = verdict {
            if strict && leaf.lines().any(|l| l.starts_with("B ")) {
                let n = trace.ops;
                return Err(format!("op {n}: a rejected write reached the device: {op:?}"));
            }
            trace.write_rejects.push(at);
        }
        trace.read_rejects.extend(leaf.matches("ERR BadPattern").map(|_| at));
        trace.leaf(&leaf);
        trace.ops += 1;
    }
    leaf.clear();
    cache_leaf(ir, s, &mut leaf);
    trace.leaf(&leaf);
    Ok(())
}

/// A successful compare.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// The agreed 32-byte root (rig `a`'s root when the replay stopped
    /// early; see `ops`).
    pub root: Hash,
    /// Stream ops compared. Fewer than the stream when a debug write
    /// check fired after the reference had already touched the device
    /// (a value written by a nested action, or a later op of a fused
    /// call): both rigs reject the access, their states part by
    /// design, and the compare stops at that op.
    pub ops: u64,
    /// Leaves under rig `a`'s root.
    pub leaves: u64,
    /// Peak bytes retained by the larger of the two streaming traces —
    /// the O(peaks) memory bound the streaming mode exists for.
    pub retained_bytes: usize,
    /// Accesses a debug write check rejected (`ValueRange`).
    pub write_rejects: usize,
    /// Reads a debug read check rejected (`BadPattern`).
    pub read_rejects: usize,
}

/// A failed compare.
#[derive(Debug)]
pub struct Mismatch {
    /// The first divergent leaf and the hash compares spent finding it;
    /// `None` when a rig failed to replay.
    pub divergence: Option<Divergence>,
    /// Leaves in the longer of the two traces.
    pub leaves: u64,
    /// The human-readable report.
    pub report: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.report)
    }
}

fn replay<I: Iterator<Item = Op>>(
    rig: &dyn Rig,
    mut ops: I,
    retain: bool,
    window: Range<u64>,
) -> Result<Trace, Mismatch> {
    let mut trace = Trace::new(retain, window);
    match rig.replay(&mut ops, &mut trace) {
        Ok(()) => Ok(trace),
        Err(e) => {
            Err(Mismatch { divergence: None, leaves: 0, report: format!("{}: {e}", rig.name()) })
        }
    }
}

/// Replays the stream `source()` yields through rigs `a` and `b` in
/// O(peaks) memory and compares their two 32-byte roots. On a mismatch,
/// re-replays both retained, bisects to the first divergent leaf, and
/// reports the lines around it.
///
/// One divergence is not a failure: when both checked rigs reject the
/// same op with the same results (`O` lines) and only its bus operations
/// part (the reference touched the device before its check fired), the
/// compare stops there with `Ok` and [`Outcome::ops`] set to that op.
pub fn compare<I: Iterator<Item = Op>>(
    a: &dyn Rig,
    b: &dyn Rig,
    mut source: impl FnMut() -> I,
) -> Result<Outcome, Mismatch> {
    let mut ta = replay(a, source(), false, 0..0)?;
    let mut tb = replay(b, source(), false, 0..0)?;
    let retained = ta.log.retained_bytes().max(tb.log.retained_bytes());
    let (root, other) = (ta.log.root(), tb.log.root());
    if root == other {
        return Ok(ta.outcome(ta.ops, u64::MAX, retained));
    }

    let mut ra = replay(a, source(), true, 0..0)?;
    let mut rb = replay(b, source(), true, 0..0)?;
    let leaves = ra.log.len().max(rb.log.len());
    let d = bisect_divergence(ra.log.mmr(), rb.log.mmr())
        .expect("roots differ, so the retained traces do");
    let k = d.leaf;
    let window = k.saturating_sub(2)..k + 3;
    let wa = replay(a, source(), false, window.clone())?;
    let wb = replay(b, source(), false, window)?;
    if ra.write_rejects.contains(&k) && wa.results(k) == wb.results(k) {
        return Ok(ra.outcome(k, k, retained));
    }
    let mut report = format!(
        "trace roots diverge ({root:?} vs {other:?}): bisection names leaf {k} of {leaves} \
         in {} hash compares",
        d.compares
    );
    for (rig, t) in [(a, &wa), (b, &wb)] {
        let _ = write!(report, "\n  {}:", rig.name());
        for (i, leaf) in &t.captured {
            for line in leaf.lines() {
                let _ = write!(report, "\n    [{i}] {line}");
            }
        }
    }
    Err(Mismatch { divergence: Some(d), leaves, report })
}

/// Every leaf `rig` folds over `ops`, as text: the replay's transcript.
pub fn render<I: Iterator<Item = Op>>(rig: &dyn Rig, ops: I) -> Result<Vec<String>, Mismatch> {
    let trace = replay(rig, ops, false, 0..u64::MAX)?;
    Ok(trace.captured.into_iter().map(|(_, leaf)| leaf).collect())
}

/// [`compare`] of the plan runtime against the reference interpreter
/// over `ops`, with the debug checks on or off in both.
pub fn compare_runtimes(ir: &DeviceIr, checks: bool, ops: &[Op]) -> Result<Outcome, Mismatch> {
    let (plans, reference) = (InProcess::plans(ir), InProcess::reference(ir));
    compare(&plans.checks(checks), &reference.checks(checks), || ops.iter().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Skewed;
    use hwsim::mmr::linear_divergence;

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

    /// `inner` replaying op `k` of the stream as a preset no decoded
    /// stream issues, so exactly its leaf (and what follows) diverges.
    fn corrupt(inner: &dyn Rig, k: u64) -> Skewed<'_, impl Fn(u64, Op) -> Option<Op>> {
        let marker = Op::Preset { port: 0xDEAD, offset: k, value: 0xA5 };
        Skewed::new(inner, move |i, op| Some(if i == k { marker.clone() } else { op }))
    }

    #[test]
    fn op_stream_is_deterministic_and_exact() {
        let ir = ir(SPEC);
        let a: Vec<Op> = OpStream::new(&ir, 42, 1000).collect();
        let b: Vec<Op> = OpStream::new(&ir, 42, 1000).collect();
        assert_eq!(a.len(), 1000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c: Vec<Op> = OpStream::new(&ir, 43, 10).collect();
        assert_ne!(format!("{:?}", &a[..10]), format!("{c:?}"));
    }

    #[test]
    fn rooted_and_linear_agree_on_equivalent_rigs() {
        let ir = ir(SPEC);
        let (plans, reference) = (InProcess::plans(&ir), InProcess::reference(&ir));
        let ops: Vec<Op> = OpStream::new(&ir, 7, 500).collect();
        let out = compare_runtimes(&ir, false, &ops).unwrap();
        assert_eq!(out.ops, 500);
        assert_eq!(out.leaves, 501, "the final cache leaf follows the ops");
        let streamed = compare(&plans, &reference, || OpStream::new(&ir, 7, 500)).unwrap();
        assert_eq!(streamed.root, out.root, "slice and stream replays agree");
        // A linear scan of the retained traces finds no divergent leaf.
        let mut a = replay(&plans, ops.iter().cloned(), true, 0..0).unwrap();
        let mut b = replay(&reference, ops.iter().cloned(), true, 0..0).unwrap();
        assert_eq!(linear_divergence(a.log.mmr(), b.log.mmr()), None);
    }

    #[test]
    fn streaming_replay_memory_is_flat() {
        let ir = ir(SPEC);
        let (plans, reference) = (InProcess::plans(&ir), InProcess::reference(&ir));
        let short = compare(&plans, &reference, || OpStream::new(&ir, 3, 200)).unwrap();
        let long = compare(&plans, &reference, || OpStream::new(&ir, 3, 20_000)).unwrap();
        assert_eq!(long.ops, 20_000);
        // O(peaks) + constant arenas: 100× the ops must not even
        // double the retained bytes.
        assert!(
            long.retained_bytes < short.retained_bytes * 2,
            "retained {} vs {}",
            long.retained_bytes,
            short.retained_bytes
        );
    }

    #[test]
    fn injected_divergence_bisects_to_the_op_the_linear_scan_names() {
        let ir = ir(SPEC);
        let n = 800u64;
        let plans = InProcess::plans(&ir);
        for k in [0u64, 1, 17, 399, 799] {
            let corrupted = corrupt(&plans, k);
            let m = compare(&plans, &corrupted, || OpStream::new(&ir, 11, n)).unwrap_err();
            let d = m.divergence.expect("corrupted leaf");
            assert_eq!(d.leaf, k, "bisection names the injected op");
            let mut clean = replay(&plans, OpStream::new(&ir, 11, n), true, 0..0).unwrap();
            let mut bad = replay(&corrupted, OpStream::new(&ir, 11, n), true, 0..0).unwrap();
            assert_eq!(linear_divergence(clean.log.mmr(), bad.log.mmr()), Some(k));
            let bound = 2 * (64 - m.leaves.leading_zeros() as u64) + 2;
            assert!(d.compares <= bound, "{} compares > {bound}", d.compares);
        }
    }

    #[test]
    fn mismatch_report_names_the_first_divergent_op() {
        let ir = ir(SPEC);
        let plans = InProcess::plans(&ir);
        let reference = InProcess::reference(&ir);
        let corrupted = corrupt(&reference, 123);
        let m = compare(&plans, &corrupted, || OpStream::new(&ir, 5, 300)).unwrap_err();
        assert_eq!(m.divergence.map(|d| d.leaf), Some(123));
        assert!(m.report.contains("leaf 123 of"), "{m}");
        assert!(m.report.contains("skewed reference:\n"), "{m}");
        assert!(m.report.contains("[123] P 57005 123 165"), "{m}");
    }

    #[test]
    fn diff_ops_reads_the_env_knob() {
        // Serial with nothing: the var is unset in the test env.
        assert_eq!(diff_ops(777), 777);
    }
}
