//! Symbolic fused ≡ unfused: for every installed superplan and every
//! fused variant, execute the fused body (stage + selected arena range)
//! and the declared op sequence (each op through its own plan, exactly
//! the reference interpreter's op-by-op `run_superplan`) over a fully
//! symbolic initial state, and prove the two runs equal *as terms*:
//! the same bus-op stream (write values compared bit for bit), the
//! same outputs, and the same final cache and memory words.
//!
//! The term language is tiny because plan composition is: every word is
//! 64 [`Bit`]s, a bit is a constant or one atom — an initial slot/cell
//! bit, an operand bit, or the `i`-th device read's bit — and the only
//! operators plans apply are shifts, constant masks, and ORs of
//! *disjoint* words. Disjointness is a compiler invariant (kept bits
//! exclude stored segments), so an OR that meets two symbols on one
//! position aborts the proof loudly rather than approximating.
//!
//! Per-variant pinning: a fused variant is selected when each selector
//! dimension assembles its decomposed value, so the proof fixes exactly
//! those atom bits (an [`Env`]) and leaves every other bit free. A
//! contradiction while pinning means no state selects the variant — the
//! combination is unreachable and the obligation vacuous (variant
//! liveness is the coverage corpus's business, not this pass's).
//!
//! The zero-invariant (`slot_valid[s] == false ⇒ slots[s] == 0`, which
//! `devil-runtime` asserts dynamically) lets the whole analysis track
//! effective cached words and ignore validity: every runtime consumer
//! either checks validity and substitutes 0, or reads raw — and both
//! coincide under the invariant.

use crate::{DiagClass, Diagnostic};
use devil_ir::{
    width_mask, AccessRef, Compose, DeviceIr, FuseOp, PlanSlot, PlanStep, PlanValue, SelectorDim,
    Superplan,
};
use devil_sema::model::VarId;
use std::collections::BTreeMap;

/// One symbolic atom: a bit of an initial slot, an initial cell, a
/// superplan operand, or the value the `i`-th device read returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TermKind {
    /// Initial effective value of a cache slot.
    SlotInit(u32),
    /// Initial value of a memory cell.
    CellInit(u32),
    /// A superplan operand (`Arg(i)`).
    Arg(u32),
    /// The `i`-th device read of the run (streams are compared, so the
    /// `i`-th reads of both runs are the same transaction).
    DevRead(u32),
}

/// One bit of one atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Term {
    /// The atom.
    pub kind: TermKind,
    /// Bit index within the atom's word.
    pub bit: u8,
}

/// A symbolic bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bit {
    /// Constant 0.
    Zero,
    /// Constant 1.
    One,
    /// The atom bit's (unknown) value.
    Sym(Term),
}

/// A 64-bit symbolic word.
type Word = [Bit; 64];

/// Atom bits pinned by variant selection.
type Env = BTreeMap<Term, bool>;

fn const_word(c: u64) -> Word {
    std::array::from_fn(|b| if c >> b & 1 == 1 { Bit::One } else { Bit::Zero })
}

/// A fresh atom word, with pinned bits substituted.
fn atom_word(kind: TermKind, env: &Env) -> Word {
    std::array::from_fn(|b| {
        let t = Term { kind, bit: b as u8 };
        match env.get(&t) {
            Some(true) => Bit::One,
            Some(false) => Bit::Zero,
            None => Bit::Sym(t),
        }
    })
}

fn and_const(w: &Word, m: u64) -> Word {
    std::array::from_fn(|b| if m >> b & 1 == 1 { w[b] } else { Bit::Zero })
}

/// OR of two words. Plans only OR disjoint compositions, so two symbols
/// meeting on one position is a proof failure, not an approximation.
fn or_word(a: &Word, b: &Word) -> Result<Word, String> {
    let mut out = [Bit::Zero; 64];
    for i in 0..64 {
        out[i] = match (a[i], b[i]) {
            (Bit::Zero, x) | (x, Bit::Zero) => x,
            (Bit::One, _) | (_, Bit::One) => Bit::One,
            (Bit::Sym(x), Bit::Sym(y)) if x == y => Bit::Sym(x),
            (Bit::Sym(_), Bit::Sym(_)) => {
                return Err(format!("non-disjoint OR at bit {i}"));
            }
        };
    }
    Ok(out)
}

/// `(w >> sh) & mask << pos` — the shape of both `extract` and
/// `insert`.
fn shift_mask(w: &Word, sh: u32, width: u32, pos: u32) -> Word {
    let mut out = [Bit::Zero; 64];
    for i in 0..width.min(64) {
        let src = sh + i;
        let dst = pos + i;
        if src < 64 && dst < 64 {
            out[dst as usize] = w[src as usize];
        }
    }
    out
}

fn extract(seg: &devil_ir::FieldSeg, reg: &Word) -> Word {
    shift_mask(reg, seg.reg_lo, seg.width(), seg.var_lo)
}

fn insert(seg: &devil_ir::FieldSeg, val: &Word) -> Word {
    shift_mask(val, seg.var_lo, seg.width(), seg.reg_lo)
}

/// The concrete value of a word, if every bit is constant.
fn concrete(w: &Word) -> Option<u64> {
    let mut v = 0u64;
    for (i, b) in w.iter().enumerate() {
        match b {
            Bit::Zero => {}
            Bit::One => v |= 1 << i,
            Bit::Sym(_) => return None,
        }
    }
    Some(v)
}

/// One recorded bus transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
enum BusOp {
    /// Single read.
    Read { port: u32, offset: u64, size: u32 },
    /// Single write with its symbolic value (boxed: a [`Word`] is 64
    /// bits of tracked provenance, far larger than the other variants).
    Write { port: u32, offset: u64, size: u32, value: Box<Word> },
    /// Vectored block read.
    BlockIn { port: u32, offset: u64, size: u32 },
    /// Vectored block write.
    BlockOut { port: u32, offset: u64, size: u32 },
}

impl BusOp {
    fn describe(&self) -> String {
        match self {
            BusOp::Read { port, offset, size } => format!("read p{port}+{offset}/{size}"),
            BusOp::Write { port, offset, size, .. } => format!("write p{port}+{offset}/{size}"),
            BusOp::BlockIn { port, offset, size } => format!("block-in p{port}+{offset}/{size}"),
            BusOp::BlockOut { port, offset, size } => {
                format!("block-out p{port}+{offset}/{size}")
            }
        }
    }
}

/// One symbolic machine state.
struct State {
    slots: Vec<Word>,
    cells: Vec<Word>,
    outs: Vec<Word>,
    bus: Vec<BusOp>,
    reads: u32,
}

impl State {
    fn init(ir: &DeviceIr, env: &Env) -> State {
        State {
            slots: (0..ir.cache_slots)
                .map(|s| atom_word(TermKind::SlotInit(s as u32), env))
                .collect(),
            cells: (0..ir.mem_cells)
                .map(|c| atom_word(TermKind::CellInit(c as u32), env))
                .collect(),
            outs: Vec::new(),
            bus: Vec::new(),
            reads: 0,
        }
    }
}

/// Resolves a plan value against operand words and the op input.
fn resolve(v: PlanValue, args: &[Word], input: Option<&Word>) -> Result<Word, String> {
    match v {
        PlanValue::Const(c) => Ok(const_word(c)),
        PlanValue::Arg(i) => {
            args.get(i).copied().ok_or_else(|| format!("operand {i} out of range"))
        }
        PlanValue::Input => input.copied().ok_or_else(|| "no input in this context".into()),
    }
}

/// [`Compose::apply`] over a symbolic cached word.
fn compose(
    cached: &Word,
    c: &Compose,
    args: &[Word],
    input: Option<&Word>,
) -> Result<Word, String> {
    let mut raw = or_word(&and_const(cached, c.keep_and), &const_word(c.const_or))?;
    for ws in &c.segs {
        raw = or_word(&raw, &insert(&ws.seg, &resolve(ws.value, args, input)?))?;
    }
    Ok(raw)
}

fn fixed_slot(slot: &PlanSlot) -> Result<usize, String> {
    slot.fixed().ok_or_else(|| "family-indexed slot in an argument-free body".into())
}

/// Executes a straight-line step slice symbolically, recording bus ops.
fn exec_steps(
    env: &Env,
    st: &mut State,
    steps: &[PlanStep],
    args: &[Word],
    input: Option<&Word>,
) -> Result<(), String> {
    for step in steps {
        match step {
            PlanStep::Read(a) => {
                let devil_ir::PlanOffset::Const(offset) = a.offset else {
                    return Err("parametric offset".into());
                };
                let slot = fixed_slot(&a.slot)?;
                st.bus.push(BusOp::Read { port: a.port, offset, size: a.size });
                let word = atom_word(TermKind::DevRead(st.reads), env);
                st.reads += 1;
                st.slots[slot] = and_const(&word, width_mask(a.size));
            }
            PlanStep::Write { access: a, compose: c, out_and, out_or } => {
                let devil_ir::PlanOffset::Const(offset) = a.offset else {
                    return Err("parametric offset".into());
                };
                let slot = fixed_slot(&a.slot)?;
                let raw = compose(&st.slots[slot], c, args, input)?;
                let out = or_word(&and_const(&raw, *out_and), &const_word(*out_or))?;
                st.bus.push(BusOp::Write {
                    port: a.port,
                    offset,
                    size: a.size,
                    value: Box::new(out),
                });
                st.slots[slot] = raw;
            }
            PlanStep::Store(slot, c) => {
                let slot = fixed_slot(slot)?;
                st.slots[slot] = compose(&st.slots[slot], c, args, input)?;
            }
            PlanStep::SetCell { cell, value, mask } => {
                st.cells[*cell] = and_const(&resolve(*value, args, input)?, *mask);
            }
            PlanStep::BlockIn { port, offset, size } => {
                st.bus.push(BusOp::BlockIn { port: *port, offset: *offset, size: *size });
            }
            PlanStep::BlockOut { port, offset, size } => {
                st.bus.push(BusOp::BlockOut { port: *port, offset: *offset, size: *size });
            }
            PlanStep::Assemble { out, segs } => {
                let mut v = const_word(0);
                for (slot, seg) in segs {
                    v = or_word(&v, &extract(seg, &st.slots[*slot]))?;
                }
                let out = *out as usize;
                if st.outs.len() <= out {
                    st.outs.resize(out + 1, const_word(0));
                }
                st.outs[out] = v;
            }
        }
    }
    Ok(())
}

/// Assembles one selector dimension's tested value symbolically.
fn dim_value(st: &State, dim: &SelectorDim, input: Option<&Word>) -> Result<Word, String> {
    if let Some(cell) = dim.cell {
        return Ok(st.cells[cell]);
    }
    let mut v = const_word(0);
    for &(slot, seg) in &dim.segs {
        v = or_word(&v, &extract(&seg, &st.slots[slot]))?;
    }
    if dim.input_mask != 0 {
        v = and_const(&v, !dim.input_mask);
        let input = input.ok_or("input-sourced selector with no input")?;
        for seg in &dim.input_segs {
            v = or_word(&v, &extract(seg, input))?;
        }
    }
    Ok(v)
}

/// Evaluates a full selector to its mixed-radix index. `Ok(None)` is a
/// selection miss (a concrete value at or beyond its radix).
fn select(st: &State, dims: &[SelectorDim], input: Option<&Word>) -> Result<Option<usize>, String> {
    let mut idx = 0usize;
    for (d, dim) in dims.iter().enumerate() {
        let v = dim_value(st, dim, input)?;
        let Some(v) = concrete(&v) else {
            return Err(format!("selector dim {d} not concrete under the pinned state"));
        };
        if v >= dim.radix as u64 {
            return Ok(None);
        }
        idx = idx * dim.radix + v as usize;
    }
    Ok(Some(idx))
}

/// Pins the fused selector to one variant's decomposed values, on the
/// post-stage symbolic state. `Ok(None)` means the combination is
/// contradictory — no initial state selects it.
fn pin_combo(
    ir: &DeviceIr,
    sp: &Superplan,
    args: &[Word],
    combo: usize,
) -> Result<Option<Env>, String> {
    let mut env = Env::new();
    let mut st = State::init(ir, &env);
    exec_steps(&env, &mut st, ir.variant_steps(&sp.stage), args, None)?;
    let values = devil_ir::decompose(&sp.plan.selector, combo);
    for (dim, &v) in sp.plan.selector.iter().zip(&values) {
        let word = dim_value(&st, dim, None)?;
        for (b, bit) in word.iter().enumerate() {
            let want = v >> b & 1 == 1;
            match bit {
                Bit::Zero if !want => {}
                Bit::One if want => {}
                Bit::Zero | Bit::One => return Ok(None),
                Bit::Sym(t) => match env.insert(*t, want) {
                    Some(prev) if prev != want => return Ok(None),
                    _ => {}
                },
            }
        }
    }
    Ok(Some(env))
}

/// Runs the fused path: stage, then the selected variant's arena range.
fn run_fused(
    ir: &DeviceIr,
    sp: &Superplan,
    env: &Env,
    args: &[Word],
    combo: usize,
) -> Result<State, String> {
    let mut st = State::init(ir, env);
    exec_steps(env, &mut st, ir.variant_steps(&sp.stage), args, None)?;
    exec_steps(env, &mut st, ir.variant_steps(&sp.plan.variants[combo]), args, None)?;
    Ok(st)
}

/// Runs the unfused reference: the declared op sequence through the
/// ordinary per-op dispatch, mirroring the reference interpreter's
/// op-by-op `run_superplan`.
fn run_unfused(ir: &DeviceIr, sp: &Superplan, env: &Env, args: &[Word]) -> Result<State, String> {
    let mut st = State::init(ir, env);
    for (oi, op) in sp.ops.iter().enumerate() {
        let fail = |what: &str| format!("op {oi}: {what}");
        match op {
            FuseOp::SetField { var, value } => {
                // `set_field_id` → `store_var_bits`: cell stores whole,
                // register-backed fields store masked per segment.
                let v = resolve(*value, args, None).map_err(|e| fail(&e))?;
                store_var_bits(ir, &mut st, *var, &v).map_err(|e| fail(&e))?;
            }
            FuseOp::Write { var, value } => {
                let input = resolve(*value, args, None).map_err(|e| fail(&e))?;
                let plan = ir
                    .var(*var)
                    .write_plan
                    .as_ref()
                    .ok_or_else(|| fail("write op lost its plan"))?;
                let idx = select(&st, &plan.selector, Some(&input))
                    .map_err(|e| fail(&e))?
                    .ok_or_else(|| fail("unfused write selection misses"))?;
                exec_steps(env, &mut st, ir.variant_steps(&plan.variants[idx]), args, Some(&input))
                    .map_err(|e| fail(&e))?;
            }
            FuseOp::Read { var } => {
                let v = ir.var(*var);
                let plan = v.read_plan.as_ref().ok_or_else(|| fail("read op lost its plan"))?;
                if !v.behavior.volatile && !v.behavior.read_trigger {
                    return Err(fail("read op became cache-servable"));
                }
                let idx = select(&st, &plan.selector, None)
                    .map_err(|e| fail(&e))?
                    .ok_or_else(|| fail("unfused read selection misses"))?;
                exec_steps(env, &mut st, ir.variant_steps(&plan.variants[idx]), args, None)
                    .map_err(|e| fail(&e))?;
                let mut out = const_word(0);
                for (slot, seg) in &plan.assemble {
                    let slot = fixed_slot(slot).map_err(|e| fail(&e))?;
                    out = or_word(&out, &extract(seg, &st.slots[slot])).map_err(|e| fail(&e))?;
                }
                st.outs.push(out);
            }
            FuseOp::WriteStruct { strct } => {
                let plan = ir
                    .strct(*strct)
                    .write_plan
                    .as_ref()
                    .ok_or_else(|| fail("struct op lost its plan"))?;
                let idx = select(&st, &plan.selector, None)
                    .map_err(|e| fail(&e))?
                    .ok_or_else(|| fail("unfused struct selection misses"))?;
                exec_steps(env, &mut st, ir.variant_steps(&plan.variants[idx]), args, None)
                    .map_err(|e| fail(&e))?;
            }
            FuseOp::ReadBlock { var } | FuseOp::WriteBlock { var } => {
                let write = matches!(op, FuseOp::WriteBlock { .. });
                let b = ir
                    .block_binding(*var, write)
                    .map_err(|why| fail(&format!("block op ineligible: {why:?}")))?;
                let (port, offset, size) = (b.port, b.offset, b.size);
                st.bus.push(if write {
                    BusOp::BlockOut { port, offset, size }
                } else {
                    BusOp::BlockIn { port, offset, size }
                });
            }
        }
    }
    Ok(st)
}

/// `store_var_bits`, symbolically: the cache-side store every write and
/// `set_field` performs before (or without) touching the device.
fn store_var_bits(ir: &DeviceIr, st: &mut State, vid: VarId, v: &Word) -> Result<(), String> {
    let var = ir.var(vid);
    if let Some(cell) = var.mem_cell {
        st.cells[cell] = *v;
        return Ok(());
    }
    for seg in &var.segs {
        let slot = ir
            .reg(seg.reg)
            .slot
            .ok_or_else(|| format!("{} lands on a family register", var.name))?;
        let old = and_const(&st.slots[slot], !seg.seg.reg_mask());
        st.slots[slot] = or_word(&old, &insert(&seg.seg, v))?;
    }
    Ok(())
}

/// Compares the two runs; `None` means proven equal.
fn compare(
    ir: &DeviceIr,
    fused: &State,
    unfused: &State,
    sp: &Superplan,
    combo: usize,
) -> Option<String> {
    if fused.bus.len() != unfused.bus.len() {
        return Some(format!(
            "bus streams differ in length: fused {} vs unfused {}",
            fused.bus.len(),
            unfused.bus.len()
        ));
    }
    for (i, (f, u)) in fused.bus.iter().zip(&unfused.bus).enumerate() {
        if f != u {
            return Some(format!(
                "bus op {i} differs: fused {} vs unfused {}",
                f.describe(),
                u.describe()
            ));
        }
    }
    // Derived shape: the property tests predict ledgers from it, so it
    // must describe the proven stream too.
    let shape = ir.shape(&sp.plan.variants[combo]);
    let stream = fused.bus.iter().map(|op| match *op {
        BusOp::Read { port, size, .. } => {
            devil_ir::ShapeOp { port, size, write: false, block: false }
        }
        BusOp::Write { port, size, .. } => {
            devil_ir::ShapeOp { port, size, write: true, block: false }
        }
        BusOp::BlockIn { port, size, .. } => {
            devil_ir::ShapeOp { port, size, write: false, block: true }
        }
        BusOp::BlockOut { port, size, .. } => {
            devil_ir::ShapeOp { port, size, write: true, block: true }
        }
    });
    if !stream.eq(shape) {
        return Some("derived shape does not describe the proven bus stream".into());
    }
    if fused.outs.len() != sp.outputs || unfused.outs.len() != sp.outputs {
        return Some(format!(
            "output counts differ: fused {} / unfused {} / declared {}",
            fused.outs.len(),
            unfused.outs.len(),
            sp.outputs
        ));
    }
    for (i, (f, u)) in fused.outs.iter().zip(&unfused.outs).enumerate() {
        if f != u {
            return Some(format!("output {i} differs as a term"));
        }
    }
    for (s, (f, u)) in fused.slots.iter().zip(&unfused.slots).enumerate() {
        if f != u {
            return Some(format!("final cache slot {s} differs as a term"));
        }
    }
    for (c, (f, u)) in fused.cells.iter().zip(&unfused.cells).enumerate() {
        if f != u {
            return Some(format!("final memory cell {c} differs as a term"));
        }
    }
    None
}

/// Proves every installed superplan fused ≡ unfused. Returns
/// `(proven, total)`.
pub fn check(ir: &DeviceIr, diagnostics: &mut Vec<Diagnostic>) -> (usize, usize) {
    let mut proven = 0usize;
    let sps = ir.superplans();
    for (si, sp) in sps.iter().enumerate() {
        let access = ir.access_name(AccessRef::Superplan(si));
        let free_args: Vec<Word> =
            (0..sp.args).map(|a| atom_word(TermKind::Arg(a as u32), &Env::new())).collect();
        let mut ok = true;
        for combo in 0..sp.plan.variants.len() {
            let outcome = pin_combo(ir, sp, &free_args, combo).and_then(|env| match env {
                // Contradictory pin: no state selects this combination.
                None => Ok(None),
                Some(env) => {
                    // Selection may have pinned operand bits (a staged
                    // operand feeding a tested slot), so both runs use
                    // operand words with those pins substituted.
                    let args: Vec<Word> =
                        (0..sp.args).map(|a| atom_word(TermKind::Arg(a as u32), &env)).collect();
                    let fused = run_fused(ir, sp, &env, &args, combo)?;
                    let unfused = run_unfused(ir, sp, &env, &args)?;
                    Ok(compare(ir, &fused, &unfused, sp, combo))
                }
            });
            match outcome {
                Ok(None) => {}
                Ok(Some(diff)) => {
                    diagnostics.push(Diagnostic {
                        class: DiagClass::FusedDivergence,
                        access: access.clone(),
                        detail: format!("variant {combo}: {diff}"),
                    });
                    ok = false;
                }
                Err(e) => {
                    diagnostics.push(Diagnostic {
                        class: DiagClass::FusedDivergence,
                        access: access.clone(),
                        detail: format!("variant {combo}: proof not closed: {e}"),
                    });
                    ok = false;
                }
            }
        }
        if ok {
            proven += 1;
        }
    }
    (proven, sps.len())
}
