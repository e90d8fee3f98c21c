//! Dead-variant detection: whole-spec value-set analysis of everything
//! that can feed a tested slot or memory cell, then a per-variant
//! reachability verdict for every selector dimension value.
//!
//! The abstraction is deliberately one-sided. Cache slots start at the
//! all-zero entry state (invalid slots compare as 0), so the analysis
//! tracks, per slot, the register bits that *may ever become 1* —
//! fed by device reads (any bit of a readable register), API writes
//! (every written segment's bits, any value), folded actions, and every
//! `Store`/`Write`/`SetCell` step in the plan arena. Memory cells are
//! tracked as small value sets (cells are stored whole, not bitwise),
//! widening to ⊤ as soon as any non-constant write can reach them. A
//! dimension value is *unreachable* only if one of its 1-bits can never
//! be 1 — an over-approximation of reachability, so every reported
//! [`DiagClass::DeadVariant`] is a proof, not a sample.

use crate::{DiagClass, Diagnostic};
use devil_ir::{
    width_mask, AccessStep, DeviceIr, PlanSlot, PlanStep, PlanValue, SelectorDim, VarIr,
};
use devil_sema::model::{Action, ActionTarget, ActionValue};
use std::collections::BTreeSet;

/// The value-set abstraction of one memory cell.
enum CellVals {
    /// Any value (a non-constant write reaches the cell).
    Top,
    /// Exactly these values (0, the entry state, is always present).
    Vals(BTreeSet<u64>),
}

impl CellVals {
    fn add(&mut self, v: u64) {
        if let CellVals::Vals(s) = self {
            s.insert(v);
        }
    }

    fn contains(&self, v: u64) -> bool {
        match self {
            CellVals::Top => true,
            CellVals::Vals(s) => v == 0 || s.contains(&v),
        }
    }
}

/// The whole-spec feed analysis: per-slot may-be-1 register bits and
/// per-cell value sets.
pub struct Feeds {
    can_one: Vec<u64>,
    cells: Vec<CellVals>,
}

/// Every flat cache slot a register can occupy.
fn reg_slots(ir: &DeviceIr, ri: usize) -> Vec<usize> {
    let r = &ir.regs[ri];
    let mut out = Vec::new();
    if let Some(s) = r.slot {
        out.push(s);
    }
    if let Some(fs) = &r.family_slots {
        out.extend(fs.base..fs.base + fs.count);
    }
    out
}

/// Folds one action's writes into the feeds. Constant stores feed the
/// constant; anything runtime-valued (parameters, variable copies)
/// widens the target. `Any` stores 0, which feeds nothing new.
fn feed_action(ir: &DeviceIr, action: &Action, feeds: &mut Feeds) {
    match &action.target {
        ActionTarget::Var(vid) => feed_value(ir, &ir.vars[vid.0 as usize], &action.value, feeds),
        ActionTarget::Struct(sid) => {
            if let ActionValue::Struct(fields) = &action.value {
                for (vid, value) in fields {
                    feed_value(ir, &ir.vars[vid.0 as usize], value, feeds);
                }
            } else {
                // A non-literal structure store: widen every field.
                for &vid in ir.structs[sid.0 as usize].fields.iter() {
                    feed_var_top(ir, &ir.vars[vid.0 as usize], feeds);
                }
            }
        }
    }
}

/// Feeds one variable with one action value.
fn feed_value(ir: &DeviceIr, var: &VarIr, value: &ActionValue, feeds: &mut Feeds) {
    match value {
        ActionValue::Const(c) => feed_var_const(ir, var, *c, feeds),
        // `Any` stores 0 (the don't-care write), contributing no bits.
        ActionValue::Any => {}
        ActionValue::Param(_) | ActionValue::Var(_) => feed_var_top(ir, var, feeds),
        ActionValue::Struct(fields) => {
            for (vid, value) in fields {
                feed_value(ir, &ir.vars[vid.0 as usize], value, feeds);
            }
        }
    }
}

/// Feeds one variable with a known constant.
fn feed_var_const(ir: &DeviceIr, var: &VarIr, c: u64, feeds: &mut Feeds) {
    if let Some(cell) = var.mem_cell {
        feeds.cells[cell].add(c);
        return;
    }
    for seg in &var.segs {
        for slot in reg_slots(ir, seg.reg.0 as usize) {
            feeds.can_one[slot] |= seg.seg.insert(c);
        }
    }
}

/// Feeds one variable with an arbitrary value.
fn feed_var_top(ir: &DeviceIr, var: &VarIr, feeds: &mut Feeds) {
    if let Some(cell) = var.mem_cell {
        feeds.cells[cell] = CellVals::Top;
        return;
    }
    for seg in &var.segs {
        for slot in reg_slots(ir, seg.reg.0 as usize) {
            feeds.can_one[slot] |= seg.seg.reg_mask();
        }
    }
}

/// Marks every slot a [`PlanSlot`] may resolve to.
fn feed_span(feeds: &mut Feeds, slot: &PlanSlot, bits: u64) {
    let (lo, hi) = slot.span();
    for s in lo..hi.min(feeds.can_one.len()) {
        feeds.can_one[s] |= bits;
    }
}

/// Computes the whole-spec feeds: every write that can put bits into a
/// cache slot or a value into a memory cell, from any of the four
/// channels the runtime has — device reads, API variable/structure
/// writes, folded actions, and compiled plan steps.
pub fn feeds(ir: &DeviceIr) -> Feeds {
    let mut feeds = Feeds {
        can_one: vec![0u64; ir.cache_slots],
        cells: (0..ir.mem_cells).map(|_| CellVals::Vals(BTreeSet::new())).collect(),
    };

    // Device reads: a readable register's slot(s) can cache any raw
    // value the port returns, up to the register's width.
    for (ri, r) in ir.regs.iter().enumerate() {
        if r.read.is_some() {
            for slot in reg_slots(ir, ri) {
                feeds.can_one[slot] |= width_mask(r.size);
            }
        }
        for action in r.pre.iter().chain(r.post.iter()).chain(r.set.iter()) {
            feed_action(ir, action, &mut feeds);
        }
    }

    // API writes: a writable variable's segments take any caller value
    // (`write_id` stores before masking), and a structure field is
    // storable through `set_field` whether or not the variable itself
    // is in the functional interface.
    for var in &ir.vars {
        if var.writable || var.parent.is_some() {
            feed_var_top(ir, var, &mut feeds);
        }
        for action in var.set.iter() {
            feed_action(ir, action, &mut feeds);
        }
    }

    // Compiled plan steps: every store the arena can perform. This
    // covers superplan stages and fused bodies too — belt and braces
    // over the channels above, and the only channel for steps the
    // fusion synthesized (operand-valued stage stores).
    for step in ir.plan_arena.iter() {
        match step {
            PlanStep::Read(a) => feed_span(&mut feeds, &a.slot, width_mask(ir.reg(a.reg).size)),
            PlanStep::Write { access: AccessStep { slot, .. }, compose, .. }
            | PlanStep::Store(slot, compose) => feed_span(&mut feeds, slot, compose.may_set()),
            PlanStep::SetCell { cell, value, .. } => {
                if *cell < feeds.cells.len() {
                    match value {
                        PlanValue::Const(c) => feeds.cells[*cell].add(*c),
                        PlanValue::Input | PlanValue::Arg(_) => {
                            feeds.cells[*cell] = CellVals::Top;
                        }
                    }
                }
            }
            PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } | PlanStep::Assemble { .. } => {}
        }
    }
    feeds
}

/// Whether `v` is a reachable value of `dim` under `feeds`. Input-fed
/// bits are always reachable (the caller controls the input); a
/// cache-fed 1-bit needs its register bit to be feedable; a cell value
/// needs membership in the cell's value set.
fn value_reachable(feeds: &Feeds, dim: &SelectorDim, v: u64) -> bool {
    if let Some(cell) = dim.cell {
        return cell >= feeds.cells.len() || feeds.cells[cell].contains(v);
    }
    let mut needed = v & !dim.input_mask;
    for &(slot, seg) in &dim.segs {
        let span = seg.extract(seg.reg_mask()) & !dim.input_mask;
        let want = needed & span;
        if want == 0 {
            continue;
        }
        let can = seg.extract(feeds.can_one.get(slot).copied().unwrap_or(0));
        if want & !can != 0 {
            return false;
        }
        needed &= !span;
    }
    // 1-bits no segment sources can never assemble (selection ORs
    // segment extracts over a zero accumulator).
    needed == 0
}

/// Reports every variant whose guard domain no reachable state selects.
/// `guard_clean` gates per access: a mismatched selector's decomposition
/// is not trustworthy provenance.
pub fn check(ir: &DeviceIr, guard_clean: &[bool], diagnostics: &mut Vec<Diagnostic>) {
    let feeds = feeds(ir);
    for (pi, (access, plan)) in ir.accesses().enumerate() {
        if !guard_clean.get(pi).copied().unwrap_or(false) || plan.cell.is_some() {
            continue;
        }
        for idx in 0..plan.variants.len() {
            let values = crate::guards::decompose(&plan.selector, idx);
            for (d, (dim, &v)) in plan.selector.iter().zip(&values).enumerate() {
                if !value_reachable(&feeds, dim, v) {
                    let place = match dim.cell {
                        Some(cell) => format!("cell {}", ir.cell_name(cell)),
                        None => dim
                            .segs
                            .iter()
                            .map(|&(slot, _)| ir.slot_name(slot))
                            .collect::<Vec<_>>()
                            .join("+"),
                    };
                    diagnostics.push(Diagnostic {
                        class: DiagClass::DeadVariant,
                        access: ir.access_name(access),
                        detail: format!(
                            "variant {idx}: selector dim {d} value {v:#x} is unreachable \
                             (no write can feed {place} with it)"
                        ),
                    });
                    break;
                }
            }
        }
    }
}
