//! Differential fuzzing harness for the Devil runtime.
//!
//! The plan executor ([`DeviceInstance`]: precompiled [`devil_ir`]
//! plans, indexed flat cache slots) and the reference interpreter
//! ([`ReferenceInstance`]) must be observationally indistinguishable:
//! same device-visible bus traffic, same final device state, same
//! results and errors. This crate turns a raw stream of random words
//! into a valid-ish [`Op`] sequence over a lowered device, replays it
//! through both engines ([`Engine`]), and diffs everything
//! the device or the caller could observe.
//!
//! The generator is deliberately a pure function of the word stream,
//! so a failing proptest case is replayable from its printed seed
//! (`PROPTEST_SEED=<n>`).

#![forbid(unsafe_code)]

use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess, ReferenceInstance};
use devil_sema::model::{Offset, StructId, VarId};

pub mod compiled;
pub mod compiled_rust;
pub mod corpus;
pub mod coverage;
pub mod rooted;
pub mod superfuzz;
pub mod synthetic;

/// One engine of a differential replay, borrowed: the plan executor or
/// the reference interpreter, driven through the same op stream.
pub enum Engine<'a> {
    /// The plan executor.
    Plans(&'a mut DeviceInstance),
    /// The reference interpreter.
    Reference(&'a mut ReferenceInstance),
}

/// Evaluates `$call` with `$i` bound to whichever instance `$engine`
/// holds: both engines expose the same access methods.
macro_rules! for_both {
    ($engine:expr, $i:ident => $call:expr) => {
        match $engine {
            Engine::Plans($i) => $call,
            Engine::Reference($i) => $call,
        }
    };
}
pub(crate) use for_both;

/// One operation against a device instance.
#[derive(Clone, Debug)]
pub enum Op {
    /// `read_id(var, args)`.
    ReadVar {
        /// Target variable.
        vid: VarId,
        /// Family arguments (possibly deliberately out of domain).
        args: Vec<u64>,
    },
    /// `write_id(var, args, value)`.
    WriteVar {
        /// Target variable.
        vid: VarId,
        /// Family arguments.
        args: Vec<u64>,
        /// Raw written value (unmasked — the runtime masks).
        value: u64,
    },
    /// `read_struct_id` followed by a getter per field.
    ReadStruct {
        /// Target structure.
        sid: StructId,
    },
    /// `set_field_id` per field followed by `write_struct_id`.
    WriteStruct {
        /// Target structure.
        sid: StructId,
        /// `(field, value)` assignments.
        values: Vec<(VarId, u64)>,
    },
    /// `read_block` into a buffer of `len` words.
    ReadBlock {
        /// Target (block) variable.
        vid: VarId,
        /// Buffer length.
        len: usize,
    },
    /// `write_block` from `values`.
    WriteBlock {
        /// Target (block) variable.
        vid: VarId,
        /// Written words.
        values: Vec<u64>,
    },
    /// Presets a fake-device register, modelling hardware state changes
    /// between driver operations (applied identically to both rigs).
    Preset {
        /// Device port index.
        port: usize,
        /// Register offset.
        offset: u64,
        /// New raw value.
        value: u64,
    },
}

/// A cursor over the raw word stream; exhausted reads return 0 so
/// decoding stays total and deterministic.
struct Words<'a> {
    words: &'a [u64],
    i: usize,
}

impl<'a> Words<'a> {
    fn new(words: &'a [u64]) -> Self {
        Words { words, i: 0 }
    }

    fn next(&mut self) -> Option<u64> {
        let w = self.words.get(self.i).copied();
        self.i += 1;
        w
    }

    fn pull(&mut self) -> u64 {
        self.next().unwrap_or(0)
    }
}

/// A family-argument tuple for `var`, drawn from the parameter domains.
/// Roughly one in eight tuples is pushed out of domain on purpose, so
/// the error paths of both engines are compared too.
fn args_for(ir: &DeviceIr, vid: VarId, w: u64, words: &mut Words) -> Vec<u64> {
    let var = ir.var(vid);
    let mut args: Vec<u64> = var
        .params
        .iter()
        .map(|p| {
            let u = words.pull();
            let &(lo, hi) = &p.values[(u % p.values.len() as u64) as usize];
            let span = hi.wrapping_sub(lo).wrapping_add(1);
            if span == 0 {
                u >> 8
            } else {
                lo + ((u >> 8) % span)
            }
        })
        .collect();
    if !args.is_empty() && (w >> 57) & 0x7 == 0x7 {
        let k = (w >> 60) as usize % args.len();
        let (_, hi) = *var.params[k].values.last().expect("non-empty domain");
        args[k] = hi.wrapping_add(1 + (w >> 32) % 5);
    }
    args
}

/// Decodes a raw word stream into an op sequence over `ir`. Pure and
/// total: the same words always produce the same ops.
pub fn decode(ir: &DeviceIr, words: &[u64]) -> Vec<Op> {
    let nvars = ir.vars.len();
    let nstructs = ir.structs.len();
    let nregs = ir.regs.len();
    let block_vars: Vec<VarId> =
        (0..nvars as u32).map(VarId).filter(|&v| ir.var(v).behavior.block).collect();
    let mut ops = Vec::new();
    let mut cur = Words::new(words);
    while let Some(w) = cur.next() {
        if nvars == 0 {
            break;
        }
        let vid = VarId(((w >> 4) % nvars as u64) as u32);
        match w % 16 {
            0..=3 => ops.push(Op::ReadVar { vid, args: args_for(ir, vid, w, &mut cur) }),
            4..=8 => {
                let args = args_for(ir, vid, w, &mut cur);
                ops.push(Op::WriteVar { vid, args, value: cur.pull() });
            }
            // Structure writes get three opcodes: conditional
            // serializations (the pic8259/piix4ide init shapes) are the
            // guard-split plans the fuzzer must keep hammering.
            9..=11 if nstructs > 0 => {
                let sid = StructId(((w >> 4) % nstructs as u64) as u32);
                let values = ir.strct(sid).fields.iter().map(|&fid| (fid, cur.pull())).collect();
                ops.push(Op::WriteStruct { sid, values });
            }
            12 if nstructs > 0 => {
                let sid = StructId(((w >> 4) % nstructs as u64) as u32);
                ops.push(Op::ReadStruct { sid });
            }
            13 if !block_vars.is_empty() => {
                let vid = block_vars[((w >> 4) % block_vars.len() as u64) as usize];
                let len = 1 + ((w >> 16) % 8) as usize;
                if (w >> 63) & 1 == 0 {
                    ops.push(Op::ReadBlock { vid, len });
                } else {
                    ops.push(Op::WriteBlock {
                        vid,
                        values: (0..len).map(|_| cur.pull()).collect(),
                    });
                }
            }
            14 | 15 if nregs > 0 => {
                let rid = devil_sema::model::RegId(((w >> 4) % nregs as u64) as u32);
                let reg = ir.reg(rid);
                let binding = reg.read.as_ref().or(reg.write.as_ref());
                if let Some(binding) = binding {
                    let offset = match binding.offset {
                        Offset::Const(c) => c,
                        Offset::Param(i) => {
                            let &(lo, hi) = &reg.params[i].values[0];
                            lo + (w >> 16) % (hi - lo + 1)
                        }
                    };
                    ops.push(Op::Preset {
                        port: binding.port.0 as usize,
                        offset,
                        value: cur.pull(),
                    });
                }
            }
            _ => ops.push(Op::ReadVar { vid, args: args_for(ir, vid, w, &mut cur) }),
        }
    }
    ops
}

/// A deterministic coverage sweep: every register preset, every
/// variable read and written (family instances across their domains,
/// capped), every structure written and read back, every block
/// variable moved — then a second read pass over the warm cache.
pub fn sweep_ops(ir: &DeviceIr) -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, reg) in ir.regs.iter().enumerate() {
        if let Some(binding) = &reg.read {
            if let Offset::Const(c) = binding.offset {
                ops.push(Op::Preset {
                    port: binding.port.0 as usize,
                    offset: c,
                    value: 0xA0 + i as u64,
                });
            }
        }
    }
    let arg_tuples = |vid: VarId| -> Vec<Vec<u64>> {
        let var = ir.var(vid);
        if var.params.is_empty() {
            return vec![Vec::new()];
        }
        // One-parameter families: up to four domain values.
        var.params[0]
            .iter()
            .take(4)
            .map(|v| {
                let mut t = vec![v];
                t.extend(var.params[1..].iter().map(|p| p.values[0].0));
                t
            })
            .collect()
    };
    for round in 0..2 {
        for vi in 0..ir.vars.len() as u32 {
            let vid = VarId(vi);
            let var = ir.var(vid);
            for args in arg_tuples(vid) {
                if var.writable && round == 0 {
                    ops.push(Op::WriteVar { vid, args: args.clone(), value: 0x5a5a ^ (vi as u64) });
                }
                if var.readable {
                    ops.push(Op::ReadVar { vid, args });
                }
            }
            if var.behavior.block && round == 0 {
                ops.push(Op::ReadBlock { vid, len: 4 });
                ops.push(Op::WriteBlock { vid, values: vec![1, 2, 3] });
            }
        }
        for si in 0..ir.structs.len() as u32 {
            let sid = StructId(si);
            if round == 0 {
                let values = ir
                    .strct(sid)
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(k, &fid)| (fid, 0x33 + k as u64))
                    .collect();
                ops.push(Op::WriteStruct { sid, values });
            }
            ops.push(Op::ReadStruct { sid });
        }
    }
    ops
}

/// A deterministic init-sequence sweep aimed at conditional
/// serializations (the pic8259 ICW automaton): every structure is
/// flushed twice per round over sixteen rounds. The first flush
/// assigns field `k` the bit `(round >> (k % 4)) & 1`, so 1-bit
/// tested fields at struct indices 0..3 (mod 4) — pic8259's `ic4`
/// (index 0) and `sngl` (index 1) among them — sweep their full guard
/// cross product; the second flush writes `round ^ (0x5a + k)` for
/// non-trivial payload bits. Each round ends with a read probe of
/// every plain readable variable, so silent cache divergence between
/// plan variants and the reference interpreter surfaces. (Wider tested fields
/// and exotic layouts are additionally covered by the random proptest
/// stream.)
pub fn init_sweep_ops(ir: &DeviceIr) -> Vec<Op> {
    let mut ops = Vec::new();
    for round in 0..16u64 {
        for si in 0..ir.structs.len() as u32 {
            let sid = StructId(si);
            let values: Vec<(VarId, u64)> = ir
                .strct(sid)
                .fields
                .iter()
                .enumerate()
                .map(|(k, &fid)| (fid, (round >> (k as u64 % 4)) & 1))
                .collect();
            ops.push(Op::WriteStruct { sid, values });
            let payload: Vec<(VarId, u64)> = ir
                .strct(sid)
                .fields
                .iter()
                .enumerate()
                .map(|(k, &fid)| (fid, round ^ (0x5a + k as u64)))
                .collect();
            ops.push(Op::WriteStruct { sid, values: payload });
        }
        // Probe every readable variable so silent cache divergence
        // between the variants and the reference interpreter surfaces.
        for vi in 0..ir.vars.len() as u32 {
            let vid = VarId(vi);
            let var = ir.var(vid);
            if var.readable && var.params.is_empty() {
                ops.push(Op::ReadVar { vid, args: Vec::new() });
            }
        }
    }
    ops
}

/// Replays `ops` against one instance, recording everything a caller
/// observes (values, errors) as comparable strings.
pub fn run(mut inst: Engine<'_>, dev: &mut FakeAccess, ops: &[Op]) -> Vec<String> {
    let mut obs = Vec::with_capacity(ops.len());
    for op in ops {
        run_op(&mut inst, dev, op, &mut obs);
    }
    obs
}

/// Replays one op, appending its caller observations to `out`. The
/// streaming rooted harness reuses one buffer across millions of ops;
/// [`run`] is the collect-everything wrapper the linear comparators
/// keep using.
pub fn run_op(inst: &mut Engine<'_>, dev: &mut FakeAccess, op: &Op, out: &mut Vec<String>) {
    match op {
        Op::ReadVar { vid, args } => {
            let r = for_both!(inst, i => i.read_id(dev, *vid, args));
            out.push(format!("read {vid:?} {args:?} -> {r:?}"));
        }
        Op::WriteVar { vid, args, value } => {
            let r = for_both!(inst, i => i.write_id(dev, *vid, args, *value));
            out.push(format!("write {vid:?} {args:?} {value:#x} -> {r:?}"));
        }
        Op::ReadStruct { sid } => {
            let r = for_both!(inst, i => i.read_struct_id(dev, *sid));
            out.push(format!("read_struct {sid:?} -> {r:?}"));
            if r.is_ok() {
                for &fid in for_both!(inst, i => i.ir().strct(*sid).fields.clone()).iter() {
                    let f = for_both!(inst, i => i.get_field_id(fid));
                    out.push(format!("  field {fid:?} -> {f:?}"));
                }
            }
        }
        Op::WriteStruct { sid, values } => {
            for (fid, v) in values {
                let r = for_both!(inst, i => i.set_field_id(*fid, *v));
                out.push(format!("  set_field {fid:?} {v:#x} -> {r:?}"));
            }
            let r = for_both!(inst, i => i.write_struct_id(dev, *sid));
            out.push(format!("write_struct {sid:?} -> {r:?}"));
        }
        Op::ReadBlock { vid, len } => {
            let mut buf = vec![0u64; *len];
            let r = for_both!(inst, i => i.read_block_id(dev, *vid, &mut buf));
            out.push(format!("read_block {vid:?} -> {r:?} {buf:x?}"));
        }
        Op::WriteBlock { vid, values } => {
            let r = for_both!(inst, i => i.write_block_id(dev, *vid, values));
            out.push(format!("write_block {vid:?} {values:x?} -> {r:?}"));
        }
        Op::Preset { port, offset, value } => {
            dev.preset(*port, *offset, *value);
            out.push(format!("preset {port} {offset:#x} {value:#x}"));
        }
    }
}

/// The cache-coherence probe: one read of every readable variable at
/// its first in-domain argument tuple. Both the linear and the rooted
/// comparators end with it, so silent cache divergence the op sequence
/// itself never observed still surfaces.
pub fn probe_ops(ir: &DeviceIr) -> Vec<Op> {
    (0..ir.vars.len() as u32)
        .map(VarId)
        .filter(|&v| ir.var(v).readable)
        .map(|vid| Op::ReadVar {
            vid,
            args: ir.var(vid).params.iter().map(|p| p.values[0].0).collect(),
        })
        .collect()
}

/// The first differing line between two observation logs, for compact
/// failure reports.
fn first_diff(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("line {i}:\n  plans:     {x}\n  reference: {y}");
        }
    }
    format!("lengths differ: plans {} vs reference {}", a.len(), b.len())
}

/// Replays `ops` through the plans and the reference interpreter and
/// verifies they are indistinguishable: identical caller observations
/// and device-visible operation log op for op, identical final device
/// state, and identical residual reads (cache coherence probe).
pub fn check_equivalence(ir: &DeviceIr, ops: &[Op]) -> Result<(), String> {
    replay_both(ir, ops, false).map(drop)
}

/// What a checked-mode replay exercised.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckedOutcome {
    /// Ops compared. Fewer than the stream when a write check fired in
    /// the middle of a reference access (a value written by a nested
    /// action): the reference had already touched the device, the
    /// plans had not, so the states part by design and the replay stops.
    pub ops: usize,
    /// Accesses rejected by a debug write check (`ValueRange`).
    pub write_rejects: usize,
    /// Accesses rejected by a debug read check (`BadPattern`).
    pub read_rejects: usize,
}

/// [`check_equivalence`] with debug checks on in both engines (the
/// reference checks each value where it is written or read), adding:
/// a write check rejects its access before the plans touch the device,
/// and the plans dispatch every access (`PlanStats.general == 0`).
pub fn check_checked_equivalence(ir: &DeviceIr, ops: &[Op]) -> Result<CheckedOutcome, String> {
    replay_both(ir, ops, true)
}

fn replay_both(ir: &DeviceIr, ops: &[Op], checks: bool) -> Result<CheckedOutcome, String> {
    let mut plans = DeviceInstance::new(ir.clone());
    let mut reference = ReferenceInstance::new(ir.clone());
    plans.set_debug_checks(checks);
    reference.set_debug_checks(checks);
    let (mut pdev, mut rdev) = (FakeAccess::new(), FakeAccess::new());
    let mut out = CheckedOutcome::default();
    let (mut pobs, mut robs) = (Vec::new(), Vec::new());
    for (i, op) in ops.iter().enumerate() {
        pobs.clear();
        robs.clear();
        let (pmark, rmark) = (pdev.log.len(), rdev.log.len());
        run_op(&mut Engine::Plans(&mut plans), &mut pdev, op, &mut pobs);
        run_op(&mut Engine::Reference(&mut reference), &mut rdev, op, &mut robs);
        if pobs != robs {
            return Err(format!("op {i}: observations diverge at {}", first_diff(&pobs, &robs)));
        }
        // The device-touching call's result: a struct read reports
        // first (field getters follow), everything else last.
        let call = if matches!(op, Op::ReadStruct { .. }) { pobs.first() } else { pobs.last() };
        let rejected = call.is_some_and(|l| l.contains("Err(ValueRange"));
        out.write_rejects += usize::from(rejected);
        out.read_rejects += pobs.iter().filter(|l| l.contains("Err(BadPattern")).count();
        if rejected && pdev.log.len() != pmark {
            return Err(format!("op {i}: a rejected write reached the device: {op:?}"));
        }
        if pdev.log[pmark..] != rdev.log[rmark..] {
            if rejected {
                return Ok(out);
            }
            return Err(format!(
                "op {i}: device op logs diverge on {op:?}: plans {:?} vs reference {:?}",
                &pdev.log[pmark..],
                &rdev.log[rmark..]
            ));
        }
        out.ops = i + 1;
    }
    if pdev.regs != rdev.regs {
        return Err("final device state diverges".into());
    }
    // Cache-coherence probe: reading every readable variable once more
    // must agree (catches silent cache divergence the op sequence itself
    // did not observe).
    let probe = probe_ops(ir);
    let pp = run(Engine::Plans(&mut plans), &mut pdev, &probe);
    let rp = run(Engine::Reference(&mut reference), &mut rdev, &probe);
    if pp != rp || pdev.log != rdev.log {
        return Err(format!("cache-coherence probe diverges at {}", first_diff(&pp, &rp)));
    }
    let stats = plans.plan_stats();
    if stats.general != 0 {
        return Err(format!("an access left the plans: {stats:?}"));
    }
    Ok(out)
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
    fn decode_is_deterministic_and_total() {
        let ir = ir(SPEC);
        let words: Vec<u64> = (0..24).map(|i| 0x9e3779b97f4a7c15u64.wrapping_mul(i + 1)).collect();
        let a = decode(&ir, &words);
        let b = decode(&ir, &words);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_empty());
    }

    #[test]
    fn sweep_covers_reads_writes_and_presets() {
        let ir = ir(SPEC);
        let ops = sweep_ops(&ir);
        assert!(ops.iter().any(|o| matches!(o, Op::ReadVar { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::WriteVar { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Preset { .. })));
        check_equivalence(&ir, &ops).unwrap();
    }

    #[test]
    fn struct_action_with_partial_flush_order_stays_equivalent() {
        // Regression: a struct-valued pre-action assigning a field
        // whose register the serialized-as order does not flush. The
        // reference stores the field's bits into that register's
        // cache anyway; a folded plan used to drop them, diverging on
        // the next write that composed from the cache.
        let ir = ir(r#"device d (base : bit[8] port @ {0..2}) {
            register a = write base @ 0 : bit[8];
            register bq = write base @ 1 : bit[8];
            structure s = {
              variable fa = a : int(8);
              variable fb = bq[3..0] : int(4);
            } serialized as { a; };
            register data = read base @ 2, pre {s = {fa => 3; fb => 7}} : bit[8];
            variable payload = data, volatile : int(8);
            variable g = bq[7..4] : int(4);
        }"#);
        let payload = ir.var_id("payload").unwrap();
        let g = ir.var_id("g").unwrap();
        let ops = vec![
            Op::ReadVar { vid: payload, args: vec![] },
            Op::WriteVar { vid: g, args: vec![], value: 1 },
            Op::ReadVar { vid: g, args: vec![] },
        ];
        check_equivalence(&ir, &ops).unwrap();
    }

    #[test]
    fn equivalence_check_reports_divergence_details() {
        // Sanity: the checker accepts an equivalent pair on a random
        // stream (any failure here is a real plans/reference divergence).
        let ir = ir(SPEC);
        let words: Vec<u64> = (0..40u64).map(|i| i * i * 2654435761 + 17).collect();
        let ops = decode(&ir, &words);
        check_equivalence(&ir, &ops).unwrap();
    }
}
