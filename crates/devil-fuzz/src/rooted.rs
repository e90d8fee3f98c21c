//! Root-compare equivalence: the plans-vs-reference differential over
//! an MMR-authenticated trace instead of retained observation logs.
//!
//! The linear comparator ([`crate::check_equivalence`]) keeps every
//! observation string and every device-log tuple from both rigs alive
//! until the end — memory grows with replay length, which is what
//! capped differential runs at tens of thousands of ops. Here each op
//! folds to one MMR leaf (its observation lines plus its device-op log
//! delta, so the leaf index *is* the op index), both rigs stream in
//! O(peaks) memory, and "bit-identical over N million ops" is one
//! 32-byte root compare.
//!
//! On a root mismatch the harness re-replays in retained mode —
//! replays are pure functions of the op source, so this only costs the
//! failing case — and [`bisect_divergence`] names the first divergent
//! op in O(log N) hash compares; a third, windowed replay then
//! recovers the human-readable lines around that op for the report.
//!
//! Replay length for the long-run tests comes from the `DIFF_OPS` env
//! knob (mirroring `PROPTEST_CASES`), so CI nightlies push millions of
//! ops while PR runs stay fast.

use crate::{probe_ops, run_op, Engine, Op};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess, ReferenceInstance};
use hwsim::mmr::{bisect_divergence, Hash, MmrLog};

/// Replay length for long-run differential tests: `DIFF_OPS` from the
/// environment, or `default`.
pub fn diff_ops(default: u64) -> u64 {
    match std::env::var("DIFF_OPS") {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("DIFF_OPS must be an integer, got {v:?}")),
        Err(_) => default,
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
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

/// Encodes one op's observable behavior — its observation lines and
/// its device-op log delta — into `scratch` as raw leaf bytes.
pub(crate) fn encode_leaf(
    scratch: &mut Vec<u8>,
    obs: &[String],
    dev_log: &[(bool, usize, u64, u64)],
) {
    scratch.clear();
    for line in obs {
        scratch.extend_from_slice(line.as_bytes());
        scratch.push(b'\n');
    }
    for &(is_write, port, offset, value) in dev_log {
        scratch.push(is_write as u8);
        scratch.extend_from_slice(&(port as u64).to_le_bytes());
        scratch.extend_from_slice(&offset.to_le_bytes());
        scratch.extend_from_slice(&value.to_le_bytes());
    }
}

/// One rig's replay result.
struct Replay {
    log: MmrLog,
    /// `(op index, observation line)` pairs captured inside the
    /// requested window (reporting only).
    window: Vec<(u64, String)>,
    /// Op-stream length (leaves beyond it are the coherence probe and
    /// the final-state digest).
    ops: u64,
}

/// Replays an op source through one rig, folding each op into a leaf.
/// The leaf stream is: one leaf per op, then one leaf per coherence
/// probe read, then one final leaf over the sorted device register
/// file — everything the linear comparator checks, in the same order.
///
/// `fast` picks the plans, else the reference interpreter. `corrupt`
/// appends a byte to that op's leaf — the injection hook the bisection
/// sensitivity tests use to fake a single-op divergence.
fn replay<I: Iterator<Item = Op>>(
    ir: &DeviceIr,
    fast: bool,
    ops: I,
    retain: bool,
    corrupt: Option<u64>,
    window: Option<(u64, u64)>,
) -> Replay {
    let (mut plans, mut reference) =
        (DeviceInstance::new(ir.clone()), ReferenceInstance::new(ir.clone()));
    let inst = if fast { Engine::Plans(&mut plans) } else { Engine::Reference(&mut reference) };
    replay_on(inst, ir, ops, retain, corrupt, window)
}

fn replay_on<I: Iterator<Item = Op>>(
    mut inst: Engine<'_>,
    ir: &DeviceIr,
    ops: I,
    retain: bool,
    corrupt: Option<u64>,
    window: Option<(u64, u64)>,
) -> Replay {
    let mut dev = FakeAccess::new();
    dev.log.reserve(64);
    let mut log = MmrLog::new(retain);
    log.reserve(1024, 96);
    let mut obs: Vec<String> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    let mut captured = Vec::new();
    let mut idx = 0u64;
    let mut nops = 0u64;

    let mut fold =
        |op: &Op, inst: &mut Engine, dev: &mut FakeAccess, idx: u64, log: &mut MmrLog| {
            obs.clear();
            run_op(inst, dev, op, &mut obs);
            encode_leaf(&mut scratch, &obs, &dev.log);
            // The delta is folded; drop it so memory stays O(1) per op.
            dev.log.clear();
            if corrupt == Some(idx) {
                scratch.push(0xA5);
            }
            log.push(&scratch);
            if let Some((lo, hi)) = window {
                if idx >= lo && idx < hi {
                    captured.extend(obs.iter().map(|l| (idx, l.clone())));
                }
            }
        };

    for op in ops {
        fold(&op, &mut inst, &mut dev, idx, &mut log);
        idx += 1;
        nops += 1;
    }
    for op in probe_ops(ir) {
        fold(&op, &mut inst, &mut dev, idx, &mut log);
        idx += 1;
    }
    // Final device state, order-normalized: the rooted analogue of the
    // linear comparator's `fast_dev.regs != slow_dev.regs`.
    encode_final_state(&mut scratch, &dev);
    log.push(&scratch);

    Replay { log, window: captured, ops: nops }
}

/// Encodes the final device register file, order-normalized, as the
/// last leaf of every rooted replay.
pub(crate) fn encode_final_state(scratch: &mut Vec<u8>, dev: &FakeAccess) {
    let mut regs: Vec<(usize, u64, u64)> = dev.regs.iter().map(|(&(p, o), &v)| (p, o, v)).collect();
    regs.sort_unstable();
    scratch.clear();
    for (p, o, v) in regs {
        scratch.extend_from_slice(&(p as u64).to_le_bytes());
        scratch.extend_from_slice(&o.to_le_bytes());
        scratch.extend_from_slice(&v.to_le_bytes());
    }
}

/// The replay's MMR log alone — the building block the sensitivity
/// tests and benches drive directly.
pub fn replay_mmr(
    ir: &DeviceIr,
    fast: bool,
    seed: u64,
    ops: u64,
    retain: bool,
    corrupt: Option<u64>,
) -> MmrLog {
    replay(ir, fast, OpStream::new(ir, seed, ops), retain, corrupt, None).log
}

/// A successful root compare.
#[derive(Clone, Copy, Debug)]
pub struct RootedOutcome {
    /// The agreed 32-byte root.
    pub root: Hash,
    /// Ops replayed (excluding probe and final-state leaves).
    pub ops: u64,
    /// Total leaves under the root.
    pub leaves: u64,
    /// Peak bytes retained by the larger of the two streaming rigs —
    /// the O(peaks) memory bound the streaming mode exists for.
    pub retained_bytes: usize,
}

fn check_rooted<I, F>(ir: &DeviceIr, mut source: F) -> Result<RootedOutcome, String>
where
    I: Iterator<Item = Op>,
    F: FnMut() -> I,
{
    let mut fast = replay(ir, true, source(), false, None, None);
    let mut slow = replay(ir, false, source(), false, None, None);
    let (fast_root, slow_root) = (fast.log.root(), slow.log.root());
    if fast_root == slow_root {
        return Ok(RootedOutcome {
            root: fast_root,
            ops: fast.ops,
            leaves: fast.log.len(),
            retained_bytes: fast.log.retained_bytes().max(slow.log.retained_bytes()),
        });
    }

    // Mismatch: re-replay retained (replays are pure, so this only
    // costs the failing case), bisect to the first divergent leaf,
    // then re-replay once more capturing the lines around it.
    let mut fast_r = replay(ir, true, source(), true, None, None);
    let mut slow_r = replay(ir, false, source(), true, None, None);
    let d = bisect_divergence(fast_r.log.mmr(), slow_r.log.mmr())
        .expect("roots differ but retained replay bisects to nothing");
    let nops = fast_r.ops;
    let what = if d.leaf < nops {
        format!("op {}", d.leaf)
    } else {
        "the cache-coherence probe / final device state".to_string()
    };
    let window = (d.leaf.saturating_sub(2), d.leaf + 3);
    let wf = replay(ir, true, source(), false, None, Some(window));
    let ws = replay(ir, false, source(), false, None, Some(window));
    let lines = |w: &Replay| {
        w.window.iter().map(|(i, l)| format!("    [{i}] {l}")).collect::<Vec<_>>().join("\n")
    };
    Err(format!(
        "trace roots diverge ({fast_root:?} vs {slow_root:?}): bisection names {what} \
         (leaf {} of {}) in {} hash compares\n  plans:\n{}\n  reference:\n{}",
        d.leaf,
        fast_r.log.len().max(slow_r.log.len()),
        d.compares,
        lines(&wf),
        lines(&ws),
    ))
}

/// [`crate::check_equivalence`], root-compared: replays `ops` through
/// both rigs in O(peaks) memory and compares one 32-byte root; on
/// mismatch, bisects to the first divergent op and reports the
/// surrounding lines.
pub fn check_equivalence_rooted(ir: &DeviceIr, ops: &[Op]) -> Result<RootedOutcome, String> {
    check_rooted(ir, || ops.iter().cloned())
}

/// Root-compared equivalence over a generated stream of exactly `ops`
/// operations — the long-run entry point: nothing is ever
/// materialized, so `DIFF_OPS=1000000` replays run flat in memory.
pub fn check_equivalence_rooted_stream(
    ir: &DeviceIr,
    seed: u64,
    ops: u64,
) -> Result<RootedOutcome, String> {
    check_rooted(ir, || OpStream::new(ir, seed, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let ops: Vec<Op> = OpStream::new(&ir, 7, 500).collect();
        crate::check_equivalence(&ir, &ops).unwrap();
        let out = check_equivalence_rooted(&ir, &ops).unwrap();
        assert_eq!(out.ops, 500);
        assert!(out.leaves > 500, "probe and final-state leaves follow the ops");
        let streamed = check_equivalence_rooted_stream(&ir, 7, 500).unwrap();
        assert_eq!(streamed.root, out.root, "slice and stream replays agree");
    }

    #[test]
    fn streaming_replay_memory_is_flat() {
        let ir = ir(SPEC);
        let short = check_equivalence_rooted_stream(&ir, 3, 200).unwrap();
        let long = check_equivalence_rooted_stream(&ir, 3, 20_000).unwrap();
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
        let reference = replay_mmr(&ir, true, 11, n, true, None);
        for k in [0u64, 1, 17, 399, 799] {
            let mut mutated = replay_mmr(&ir, true, 11, n, true, Some(k));
            let mut clean = reference.clone();
            let d = bisect_divergence(clean.mmr(), mutated.mmr()).expect("corrupted leaf");
            assert_eq!(d.leaf, k, "bisection names the injected op");
            assert_eq!(linear_divergence(clean.mmr(), mutated.mmr()), Some(k));
            let bound = 2 * (64 - n.leading_zeros() as u64) + 2;
            assert!(d.compares <= bound, "{} compares > {bound}", d.compares);
        }
    }

    #[test]
    fn mismatch_report_names_the_first_divergent_op() {
        // Two *different* seeds replayed against each other via the
        // public checker would both be internally equivalent, so fake
        // a divergence through the corrupt hook at the replay level
        // and check the reporting path end to end.
        let ir = ir(SPEC);
        let mut a = replay_mmr(&ir, true, 5, 300, true, None);
        let mut b = replay_mmr(&ir, false, 5, 300, true, Some(123));
        assert_ne!(a.root(), b.root());
        let d = bisect_divergence(a.mmr(), b.mmr()).unwrap();
        assert_eq!(d.leaf, 123);
    }

    #[test]
    fn diff_ops_reads_the_env_knob() {
        // Serial with nothing: the var is unset in the test env.
        assert_eq!(diff_ops(777), 777);
    }
}
