//! Fused-superplan differential fuzzing: `DeviceInstance::run_superplan`
//! (one guard evaluation, batched I/O) against
//! `ReferenceInstance::run_superplan` (the same declared op sequence,
//! op by op, through the reference interpreter).
//!
//! Fusion is pure dispatch batching — the fused body must issue the
//! *identical* device-op stream, so both modes are compared on caller
//! observations, the device op log, final device state and a
//! cache-coherence read probe, exactly like the plans/reference
//! differential in the crate root.

use crate::{for_both, run, run_op, Engine, Op};
use devil_ir::{DeviceIr, FuseOp, PlanValue};
use devil_runtime::{DeviceInstance, FakeAccess, ReferenceInstance};
use hwsim::mmr::{bisect_divergence, Hash, MmrLog};

/// Installs synthetic superplans over the formerly-fallback shapes in
/// [`crate::synthetic`], so the fused differential covers input-dim
/// static resolution, cell-guarded dynamic selection and guard-split
/// read bodies — not just the shipped driver sequences.
///
/// # Panics
///
/// Panics on a fusion error: the shapes below are fixtures, so a
/// failure is a fusion-pass regression.
pub fn install_synthetic(name: &str, ir: &mut DeviceIr) {
    let var = |ir: &DeviceIr, n: &str| ir.var_id(n).unwrap_or_else(|| panic!("{n} exists"));
    let fuse = |ir: &mut DeviceIr, sp: &str, ops: Vec<FuseOp>| {
        if let Err(e) = ir.fuse(sp, ops) {
            panic!("synthetic superplan `{sp}` on `{}` failed to fuse: {e}", ir.name);
        }
    };
    match name {
        // Self-tested write order: `w`'s selector tests the written
        // value itself; the constant operand resolves it at fuse time.
        "selfw" => {
            let (rest, w) = (var(ir, "rest"), var(ir, "w"));
            fuse(
                ir,
                "burst",
                vec![
                    FuseOp::Write { var: rest, value: PlanValue::Arg(0) },
                    FuseOp::Write { var: w, value: PlanValue::Const(1) },
                ],
            );
        }
        // Cell-guarded write order: selection reads the private cell at
        // entry (cells hold masked values, so selection is total;
        // pinned in `tests/fallback.rs`).
        "memw" => {
            let (resta, w) = (var(ir, "resta"), var(ir, "w"));
            fuse(
                ir,
                "burst",
                vec![
                    FuseOp::Write { var: resta, value: PlanValue::Arg(0) },
                    FuseOp::Write { var: w, value: PlanValue::Arg(1) },
                ],
            );
        }
        // Nested pre-action reads: `payload`'s plan embeds the folded
        // (nestedc) or guard-split (nestede) struct flush.
        "nestedc" | "nestede" => {
            let payload = var(ir, "payload");
            fuse(ir, "probe", vec![FuseOp::Read { var: payload }]);
        }
        // Set-action with a self-tested nested order: `rest` discovers
        // an entry-state cache dim, `w` a statically-resolved input dim.
        "selfact" => {
            let (rest, w) = (var(ir, "rest"), var(ir, "w"));
            fuse(
                ir,
                "burst",
                vec![
                    FuseOp::Write { var: rest, value: PlanValue::Arg(0) },
                    FuseOp::Write { var: w, value: PlanValue::Const(1) },
                ],
            );
        }
        other => panic!("no synthetic superplans for `{other}`"),
    }
}

/// One fused-sequence invocation with generated operands.
#[derive(Clone, Debug)]
pub struct SuperCall {
    /// Superplan index.
    pub sid: usize,
    /// Operand values for the superplan's `Arg` slots.
    pub args: Vec<u64>,
    /// Words for the `WriteBlock` op, if the superplan has one.
    pub block_out: Vec<u64>,
    /// Buffer length for the `ReadBlock` op, if the superplan has one.
    pub block_in_len: usize,
}

fn blocks_of(ir: &DeviceIr, sid: usize) -> (bool, bool) {
    let sp = &ir.superplans()[sid];
    let out = sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. }));
    let inp = sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. }));
    (out, inp)
}

/// A deterministic in-range sweep: every superplan invoked four times
/// with varying operands and block lengths — including the zero-length
/// block, which must be a true no-op on both paths.
pub fn super_sweep(ir: &DeviceIr) -> Vec<(Vec<Op>, SuperCall)> {
    let mut seq = Vec::new();
    for sid in 0..ir.superplans().len() {
        let (has_out, has_in) = blocks_of(ir, sid);
        let nargs = ir.superplans()[sid].args;
        for round in 0..4u64 {
            let args: Vec<u64> = (0..nargs as u64).map(|i| (round * 7 + i * 3) & 0xff).collect();
            let len = [0usize, 1, 4, 16][round as usize];
            let block_out = if has_out {
                (0..len as u64).map(|k| round * 0x1111 + k).collect()
            } else {
                vec![]
            };
            let block_in_len = if has_in { len } else { 0 };
            seq.push((Vec::new(), SuperCall { sid, args, block_out, block_in_len }));
        }
    }
    seq
}

/// Decodes a raw word stream into interleaved state-perturbing op
/// preludes and superplan calls. Pure and total, like [`crate::decode`].
pub fn decode_super(ir: &DeviceIr, words: &[u64]) -> Vec<(Vec<Op>, SuperCall)> {
    let nsp = ir.superplans().len();
    if nsp == 0 {
        return Vec::new();
    }
    let mut seq = Vec::new();
    let mut i = 0usize;
    let pull = |i: &mut usize| {
        let w = words.get(*i).copied().unwrap_or(0);
        *i += 1;
        w
    };
    while i < words.len() {
        let w = pull(&mut i);
        let pre_len = (w % 4) as usize * 2;
        let pre_words: Vec<u64> = (0..pre_len).map(|_| pull(&mut i)).collect();
        let pre = crate::decode(ir, &pre_words);
        let sid = ((w >> 8) % nsp as u64) as usize;
        let (has_out, has_in) = blocks_of(ir, sid);
        let nargs = ir.superplans()[sid].args;
        let args: Vec<u64> = (0..nargs).map(|_| pull(&mut i)).collect();
        let len = ((w >> 16) % 9) as usize;
        let block_out = if has_out { (0..len).map(|_| pull(&mut i)).collect() } else { vec![] };
        let block_in_len = if has_in { len } else { 0 };
        seq.push((pre, SuperCall { sid, args, block_out, block_in_len }));
    }
    seq
}

/// One superplan invocation (fused on the plans, op by op on the
/// reference), appending the caller observation line to `obs`.
fn run_call(inst: &mut Engine, dev: &mut FakeAccess, call: &SuperCall, obs: &mut Vec<String>) {
    let mut block_in = vec![0u64; call.block_in_len];
    let mut outs = vec![0u64; for_both!(inst, i => i.ir().superplans()[call.sid].outputs)];
    let r = for_both!(inst, i => {
        i.run_superplan(dev, call.sid, &call.args, &call.block_out, &mut block_in, &mut outs)
    });
    obs.push(format!(
        "super {} {:x?} -> {r:?} outs {outs:x?} in {block_in:x?}",
        call.sid, call.args
    ));
}

fn run_seq(mut inst: Engine, dev: &mut FakeAccess, seq: &[(Vec<Op>, SuperCall)]) -> Vec<String> {
    let mut obs = Vec::new();
    for (pre, call) in seq {
        for op in pre {
            run_op(&mut inst, dev, op, &mut obs);
        }
        run_call(&mut inst, dev, call, &mut obs);
    }
    obs
}

fn first_diff(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("op {i}:\n  fused:   {x}\n  unfused: {y}");
        }
    }
    format!("lengths differ: fused {} vs unfused {}", a.len(), b.len())
}

/// Replays a superplan call sequence through the fused and unfused
/// paths and verifies they are indistinguishable: identical caller
/// observations (results, outputs, block buffers), identical
/// device-visible op log, identical final device state, and an
/// identical residual read probe.
pub fn check_superplan_equivalence(
    ir: &DeviceIr,
    seq: &[(Vec<Op>, SuperCall)],
) -> Result<(), String> {
    let mut fused = DeviceInstance::new(ir.clone());
    let mut fused_dev = FakeAccess::new();
    let mut unfused = ReferenceInstance::new(ir.clone());
    let mut unfused_dev = FakeAccess::new();

    let obs_f = run_seq(Engine::Plans(&mut fused), &mut fused_dev, seq);
    let obs_u = run_seq(Engine::Reference(&mut unfused), &mut unfused_dev, seq);
    if obs_f != obs_u {
        return Err(format!("observations diverge at {}", first_diff(&obs_f, &obs_u)));
    }
    if fused_dev.log != unfused_dev.log {
        let i = fused_dev.log.iter().zip(&unfused_dev.log).position(|(a, b)| a != b);
        return Err(format!(
            "device op logs diverge at index {i:?}: fused {:?} vs unfused {:?} (lens {} vs {})",
            i.map(|i| fused_dev.log[i]),
            i.map(|i| unfused_dev.log[i]),
            fused_dev.log.len(),
            unfused_dev.log.len(),
        ));
    }
    if fused_dev.regs != unfused_dev.regs {
        return Err("final device state diverges".into());
    }

    // Cache-coherence probe, as in the plans/reference differential.
    let probe = crate::probe_ops(ir);
    let probe_f = run(Engine::Plans(&mut fused), &mut fused_dev, &probe);
    let probe_u = run(Engine::Reference(&mut unfused), &mut unfused_dev, &probe);
    if probe_f != probe_u {
        return Err(format!(
            "cache-coherence probe diverges at {}",
            first_diff(&probe_f, &probe_u)
        ));
    }
    if fused_dev.log != unfused_dev.log {
        return Err("probe device op logs diverge".into());
    }
    Ok(())
}

/// Replays the sequence through one mode, folding each call — its
/// state-perturbing prelude, its observation line and its device-op
/// log delta — into one MMR leaf, so the leaf index *is* the call
/// index. Retained mode: superplan sequences are modest and retention
/// lets a mismatch bisect without a re-replay.
fn run_seq_rooted(mut inst: Engine, ir: &DeviceIr, seq: &[(Vec<Op>, SuperCall)]) -> MmrLog {
    let mut dev = FakeAccess::new();
    let mut log = MmrLog::new(true);
    log.reserve(seq.len().min(1024), 128);
    let mut obs: Vec<String> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    for (pre, call) in seq {
        obs.clear();
        for op in pre {
            run_op(&mut inst, &mut dev, op, &mut obs);
        }
        run_call(&mut inst, &mut dev, call, &mut obs);
        crate::rooted::encode_leaf(&mut scratch, &obs, &dev.log);
        dev.log.clear();
        log.push(&scratch);
    }
    for op in crate::probe_ops(ir) {
        obs.clear();
        run_op(&mut inst, &mut dev, &op, &mut obs);
        crate::rooted::encode_leaf(&mut scratch, &obs, &dev.log);
        dev.log.clear();
        log.push(&scratch);
    }
    crate::rooted::encode_final_state(&mut scratch, &dev);
    log.push(&scratch);
    log
}

/// A successful fused-vs-unfused root compare.
#[derive(Clone, Copy, Debug)]
pub struct SuperRooted {
    /// The agreed root.
    pub root: Hash,
    /// Superplan calls replayed.
    pub calls: u64,
    /// Total leaves (calls + probe reads + final state).
    pub leaves: u64,
}

/// [`check_superplan_equivalence`], root-compared: fused and unfused
/// replays reduce to one 32-byte compare; on mismatch, bisection names
/// the first divergent call in O(log N) hash compares and the linear
/// comparator is re-run only for the human-readable report.
pub fn check_superplan_equivalence_rooted(
    ir: &DeviceIr,
    seq: &[(Vec<Op>, SuperCall)],
) -> Result<SuperRooted, String> {
    let mut fused = run_seq_rooted(Engine::Plans(&mut DeviceInstance::new(ir.clone())), ir, seq);
    let mut unfused =
        run_seq_rooted(Engine::Reference(&mut ReferenceInstance::new(ir.clone())), ir, seq);
    let (rf, ru) = (fused.root(), unfused.root());
    if rf == ru {
        return Ok(SuperRooted { root: rf, calls: seq.len() as u64, leaves: fused.len() });
    }
    let d = bisect_divergence(fused.mmr(), unfused.mmr())
        .expect("roots differ but bisection found nothing");
    let what = if d.leaf < seq.len() as u64 {
        format!("call {}", d.leaf)
    } else {
        "the cache-coherence probe / final device state".to_string()
    };
    let detail = check_superplan_equivalence(ir, seq)
        .err()
        .unwrap_or_else(|| "linear comparator found no line-level diff".to_string());
    Err(format!(
        "superplan trace roots diverge ({rf:?} vs {ru:?}): bisection names {what} in {} \
         hash compares; {detail}",
        d.compares
    ))
}
