//! Differential fuzzing harness for the Devil runtime.
//!
//! The plan executor ([`DeviceInstance`]: precompiled [`devil_ir`]
//! plans, indexed flat cache slots), the reference interpreter
//! ([`ReferenceInstance`]) and the compiled C and Rust stubs
//! ([`compiled::CompiledHarness`]) must be observationally
//! indistinguishable: same device-visible bus traffic, same final
//! state, same results and errors. This crate turns a raw stream of
//! random words into a valid-ish [`Op`] sequence over a lowered device
//! (superplan calls included, as [`Op::Super`]) and replays it through
//! two [`Rig`]s. [`compare`] is the one comparator: both rigs fold what
//! they observe into an MMR trace, and the verdict is one 32-byte root
//! compare; a mismatch bisects to the first divergent leaf and renders
//! the lines around it.
//!
//! The generator is deliberately a pure function of the word stream,
//! so a failing proptest case is replayable from its printed seed
//! (`PROPTEST_SEED=<n>`).

#![forbid(unsafe_code)]

use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess, ReferenceInstance};
use devil_sema::model::{Offset, StructId, VarId};

pub mod compiled;
mod compiled_rust;
pub mod corpus;
pub mod coverage;
pub mod rooted;
pub mod superfuzz;
pub mod synthetic;

// The unit tests share the integration tests' stream-editing rig, which
// names this crate `devil_fuzz`.
#[cfg(test)]
extern crate self as devil_fuzz;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

pub use rooted::{compare, compare_runtimes, render, InProcess, Mismatch, Outcome, Rig, Trace};
use superfuzz::SuperCall;

/// The embedded spec library every whole-surface check runs over: the
/// 8 shipped drivers with their declared superplans installed, then
/// the 5 synthetic formerly-fallback specs with their fixture
/// superplans — the rig set the fuzz targets, the compiled oracles, the
/// verifier and the emit goldens enumerate.
pub fn spec_library() -> Vec<(String, DeviceIr)> {
    let lowered = |src: &str| {
        devil_ir::lower(&devil_sema::check_source(src, &[]).expect("embedded spec checks"))
    };
    let shipped = drivers::specs::ALL.iter().map(|&(name, src)| {
        let mut ir = lowered(src);
        drivers::superplans::install(&mut ir);
        (name.to_string(), ir)
    });
    let synthetic = synthetic::ALL.iter().map(|&(name, src)| {
        let mut ir = lowered(src);
        superfuzz::install_synthetic(name, &mut ir);
        (name.to_string(), ir)
    });
    shipped.chain(synthetic).collect()
}

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
    /// `run_superplan`: fused on the plans, op by op on the reference.
    Super(SuperCall),
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

/// Replays one op, appending what a caller observes (values, errors)
/// to `out` as comparable strings. The streaming comparator reuses one
/// buffer across millions of ops.
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
        Op::Super(call) => {
            let mut block_in = vec![0u64; call.block_in_len];
            let mut outs = vec![0u64; for_both!(inst, i => i.ir().superplans()[call.sid].outputs)];
            let r = for_both!(inst, i => {
                i.run_superplan(dev, call.sid, &call.args, &call.block_out, &mut block_in, &mut outs)
            });
            out.push(format!(
                "super {} {:x?} -> {r:?} outs {outs:x?} in {block_in:x?}",
                call.sid, call.args
            ));
        }
    }
}

/// The cache-coherence probe: one read of every readable variable at
/// its first in-domain argument tuple. Every in-process replay ends
/// with it, so silent cache divergence the op sequence itself never
/// observed still surfaces.
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
        compare_runtimes(&ir, false, &ops).unwrap();
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
        compare_runtimes(&ir, false, &ops).unwrap();
    }

    #[test]
    fn equivalence_check_reports_divergence_details() {
        // Sanity: the checker accepts an equivalent pair on a random
        // stream (any failure here is a real plans/reference divergence).
        let ir = ir(SPEC);
        let words: Vec<u64> = (0..40u64).map(|i| i * i * 2654435761 + 17).collect();
        let ops = decode(&ir, &words);
        compare_runtimes(&ir, false, &ops).unwrap();
    }
}
