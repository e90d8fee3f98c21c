//! Plan compilation: a symbolic execution of the reference
//! interpreter ([`PlanBuilder`]) that flattens each access into
//! straight-line steps, and the guard-split driver that enumerates the
//! tested values of conditional orders into plan variants.

use crate::plan::block_binding;
use crate::{
    width_mask, AccessPlan, AccessRef, AccessStep, BlockIneligible, Compose, FieldSeg, PlanOffset,
    PlanSlot, PlanStep, PlanValue, PlanVariant, RegIr, SelectorDim, StructIr, VarIr, VarSeg,
    WriteCheck, WriteSeg,
};
use devil_sema::model::{
    Action, ActionTarget, ActionValue, ChunkArg, CondSem, FamilyParam, Neutral, Offset,
    PortBinding, RegId, SerStep, StructId, VarId,
};
use std::sync::Arc;

/// Cap on the guard domain of one conditional serialization order: the
/// product of the tested variables' raw-value spaces (`2^width` each),
/// including dimensions inlined from nested conditional orders reached
/// through pre/post/set actions. Orders testing wider fields compile no
/// plan, mirroring the family slot cap above — recorded in
/// [`DeviceIr::plan_fallbacks`], never a silent bail.
const GUARD_DOMAIN_CAP: u128 = 4096;

/// One access that failed to plan-compile, with the reason. Collected
/// during lowering so unplanned accesses are loud: the runtime rejects
/// each with `RtError::Unplanned`, `devil-verify` reports each as a
/// diagnostic, and tests can assert a spec's concrete surface compiled
/// completely, or see exactly which cap or shape it hit.
#[derive(Clone, Debug)]
pub struct PlanFallback {
    /// The access, e.g. `read payload`, `write w`, `write struct init`.
    pub access: String,
    /// Why compilation bailed.
    pub cause: String,
}

/// Step budget for one compiled plan: accesses whose expansion exceeds
/// this (deep automata, huge serializations) compile no plan.
const PLAN_STEP_BUDGET: usize = 96;

/// Action recursion budget, mirroring the runtime's `MAX_DEPTH`: an
/// access the reference interpreter would reject as cyclic compiles no
/// plan.
const PLAN_MAX_DEPTH: u32 = 32;

/// The immutable inputs of plan compilation for one device.
pub(crate) struct CompileEnv<'a> {
    pub(crate) vars: &'a [VarIr],
    pub(crate) regs: &'a [RegIr],
    pub(crate) structs: &'a [StructIr],
    pub(crate) cache_slots: usize,
    pub(crate) mem_cells: usize,
}

/// Symbolic knowledge about one flat cache slot during compilation,
/// tracking the *reference interpreter's* cache at the current point of
/// the simulated access (the reference interpreter stores written bits before
/// its steps run, so this can differ from the plan's runtime cache).
#[derive(Clone, Copy)]
struct SlotSym {
    /// Bits whose value is statically known: pinned by the variant's
    /// guard assignment, or written with folded constants.
    known_mask: u64,
    /// The known bits' values, in register-bit positions.
    known_val: u64,
    /// Bits still holding their plan-entry value — what entry-state
    /// guards can describe.
    entry_mask: u64,
    /// Bits last stored with the access's own input value (the
    /// top-level written variable's store) — what input-sourced guards
    /// can describe.
    input_mask: u64,
}

/// Symbolic knowledge about one private memory cell.
#[derive(Clone, Copy)]
struct CellSym {
    /// Statically-known cell value, if any.
    known: Option<u64>,
    /// Whether the cell still holds its plan-entry value.
    entry: bool,
}

/// How a nested conditional's tested variable evaluates at the current
/// point of the symbolic execution.
enum TestedValue {
    /// Statically known — the condition folds.
    Known(u64),
    /// Still entry-state — becomes a selector dimension of the outer
    /// enumeration.
    Entry,
    /// Modified mid-access in a way no entry guard can describe.
    Opaque,
}

/// Compile-time symbolic execution of the reference interpreter.
///
/// Walks the exact recursion `devil-runtime` performs for an access and
/// records the device operations as straight-line steps. Anything not
/// statically decidable — conditional serialization, action values read
/// from other variables, hashed family caches, out-of-domain arguments,
/// over-budget expansion — aborts compilation (`None`), and the access
/// compiles no plan.
struct PlanBuilder<'a> {
    env: &'a CompileEnv<'a>,
    /// The compiled access's family parameters: the domains behind
    /// [`PlanValue::Arg`] references.
    params: &'a [FamilyParam],
    /// The variant's static assignment of tested-variable raw values
    /// (the outer guard enumeration), seeding the symbolic shadow
    /// state below.
    assign: Vec<(VarId, u64)>,
    steps: Vec<PlanStep>,
    /// Deepest recursion level visited, with the exact accounting of
    /// the reference interpreter (see [`AccessPlan::max_depth`]).
    max_depth: u32,
    /// Slots that must not be touched until their own write step is
    /// emitted: the reference interpreter composes a register write from the
    /// cache *before* running its pre-actions and stores variable bits
    /// before the register loop, while a plan composes at execution
    /// time — an interleaved touch of a pending slot would diverge.
    guarded: Vec<Option<PlanSlot>>,
    /// Per-slot shadow of the reference interpreter's cache.
    slot_sym: Vec<SlotSym>,
    /// Per-cell shadow of the reference interpreter's memory.
    cell_sym: Vec<CellSym>,
    /// Set when a nested conditional tested an entry-state variable
    /// that is not yet a selector dimension: the driver adds it to the
    /// enumeration and recompiles.
    need_dim: Option<VarId>,
    /// The first bail reason, for the loud fallback record.
    fail_reason: Option<String>,
    /// Debug-mode write checks, in execution order (see
    /// [`PlanVariant::checks`]).
    checks: Vec<WriteCheck>,
}

impl<'a> PlanBuilder<'a> {
    fn new(env: &'a CompileEnv<'a>, params: &'a [FamilyParam], assign: Vec<(VarId, u64)>) -> Self {
        let mut b = PlanBuilder {
            env,
            params,
            assign,
            steps: Vec::new(),
            max_depth: 0,
            guarded: Vec::new(),
            slot_sym: vec![
                SlotSym {
                    known_mask: 0,
                    known_val: 0,
                    entry_mask: u64::MAX,
                    input_mask: 0
                };
                env.cache_slots
            ],
            cell_sym: vec![CellSym { known: None, entry: true }; env.mem_cells],
            need_dim: None,
            fail_reason: None,
            checks: Vec::new(),
        };
        // The variant's guards pin the tested variables' values: their
        // bits are statically known (and, for input-sourced dimensions,
        // already reflect the post-store state the reference interpreter
        // evaluates against).
        for i in 0..b.assign.len() {
            let (tv, v) = b.assign[i];
            let var = &env.vars[tv.0 as usize];
            if let Some(cell) = var.mem_cell {
                b.cell_sym[cell].known = Some(v);
            } else {
                for seg in &var.segs {
                    if let Some(slot) = fixed_slot(env.regs, seg) {
                        let m = seg.seg.reg_mask();
                        let sym = &mut b.slot_sym[slot];
                        sym.known_mask |= m;
                        sym.known_val = (sym.known_val & !m) | seg.seg.insert(v);
                    }
                }
            }
        }
        b
    }

    /// Records the first bail reason and aborts compilation.
    fn fail<T>(&mut self, why: impl Into<String>) -> Option<T> {
        if self.fail_reason.is_none() && self.need_dim.is_none() {
            self.fail_reason = Some(why.into());
        }
        None
    }

    /// Asks the driver to add `vid` as a selector dimension and retry.
    fn request_dim<T>(&mut self, vid: VarId) -> Option<T> {
        if self.fail_reason.is_none() && self.need_dim.is_none() {
            self.need_dim = Some(vid);
        }
        None
    }

    /// Records a visited recursion level; bails past the budget (the
    /// reference interpreter would report `RecursionLimit`).
    fn note_depth(&mut self, depth: u32) -> Option<()> {
        self.max_depth = self.max_depth.max(depth);
        if depth > PLAN_MAX_DEPTH {
            return self.fail("action recursion exceeds the depth budget");
        }
        Some(())
    }

    /// Appends a step, enforcing the budget and the pending-slot guard,
    /// and applying the step's effect to the symbolic shadow state.
    fn emit(&mut self, step: PlanStep) -> Option<()> {
        if self.steps.len() >= PLAN_STEP_BUDGET {
            return self.fail("expansion exceeds the plan step budget");
        }
        if let Some(slot) = step.slot() {
            if self.guarded.iter().flatten().any(|g| g.may_alias(slot)) {
                return self.fail("touches a register slot pending its own composed write");
            }
        }
        match &step {
            PlanStep::Read(a) => {
                let slot = a.slot.clone();
                self.sym_clobber(&slot);
            }
            PlanStep::Write { access: AccessStep { slot, .. }, compose: c, .. }
            | PlanStep::Store(slot, c) => {
                let slot = slot.clone();
                let (seg_in, seg_arg) = c.value_masks();
                let (keep_and, const_or) = (c.keep_and, c.const_or);
                self.sym_write(&slot, keep_and, const_or, seg_in, seg_arg);
            }
            PlanStep::SetCell { cell, value, .. } => {
                let known = match value {
                    PlanValue::Const(c) => Some(*c),
                    PlanValue::Input | PlanValue::Arg(_) => None,
                };
                self.cell_sym[*cell] = CellSym { known, entry: false };
            }
            PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } | PlanStep::Assemble { .. } => {
                unreachable!("symbolic execution never emits superplan steps")
            }
        }
        self.steps.push(step);
        Some(())
    }

    /// Marks every bit a slot (or, for indexed slots, its whole span)
    /// may hold as unknown and non-entry.
    fn sym_clobber(&mut self, slot: &PlanSlot) {
        let (lo, hi) = slot.span();
        for s in lo..hi.min(self.slot_sym.len()) {
            self.slot_sym[s] =
                SlotSym { known_mask: 0, known_val: 0, entry_mask: 0, input_mask: 0 };
        }
    }

    /// Applies a masked store's effect to the shadow: cleared bits lose
    /// their entry status; constant bits become known; runtime-valued
    /// bits become unknown — except input-valued bits, which keep the
    /// knowledge the variant assignment pinned (input-sourced guards
    /// describe exactly the post-store value).
    fn sym_write(
        &mut self,
        slot: &PlanSlot,
        keep_and: u64,
        const_or: u64,
        seg_in: u64,
        seg_arg: u64,
    ) {
        let PlanSlot::Fixed(s) = slot else {
            self.sym_clobber(slot);
            return;
        };
        let sym = &mut self.slot_sym[*s];
        let clear = !keep_and;
        sym.entry_mask &= keep_and;
        sym.input_mask = (sym.input_mask & keep_and) | seg_in;
        let const_bits = clear & !seg_in & !seg_arg;
        let keep_known = keep_and | seg_in;
        sym.known_val = (sym.known_val & keep_known & !const_bits) | (const_or & const_bits);
        sym.known_mask = ((sym.known_mask & keep_known) | const_bits) & !seg_arg;
    }

    /// Applies the reference interpreter's up-front `store_var_bits` to the
    /// shadow: storing `value` into every register (or the cell) of
    /// `vid`, before the flattened order's conditions are evaluated.
    fn sym_store_var(&mut self, vid: VarId, value: PlanValue, args: &[PlanValue]) {
        let env = self.env;
        let var = &env.vars[vid.0 as usize];
        if let Some(cell) = var.mem_cell {
            let known = match value {
                PlanValue::Const(c) => Some(c),
                PlanValue::Input | PlanValue::Arg(_) => None,
            };
            self.cell_sym[cell] = CellSym { known, entry: false };
            return;
        }
        for seg in &var.segs {
            let m = seg.seg.reg_mask();
            let slot = {
                let reg_args = chunk_args(&seg.args, args);
                self.slot_for(seg.reg, &reg_args)
            };
            let Some(slot) = slot else {
                // Hashed family caches are invisible to guards and to
                // nested-condition classification; nothing to track.
                continue;
            };
            match value {
                PlanValue::Const(c) => self.sym_write(&slot, !m, seg.seg.insert(c), 0, 0),
                PlanValue::Input => self.sym_write(&slot, !m, 0, m, 0),
                PlanValue::Arg(_) => self.sym_write(&slot, !m, 0, 0, m),
            }
        }
    }

    /// The statically-determined value of a tested variable at the
    /// current point of the simulated access (see [`TestedValue`]).
    fn classify(&self, vid: VarId) -> TestedValue {
        let env = self.env;
        let var = &env.vars[vid.0 as usize];
        if !var.params.is_empty() {
            return TestedValue::Opaque;
        }
        if let Some(cell) = var.mem_cell {
            let sym = self.cell_sym[cell];
            if let Some(v) = sym.known {
                return TestedValue::Known(v);
            }
            return if sym.entry { TestedValue::Entry } else { TestedValue::Opaque };
        }
        let (mut v, mut known, mut entry) = (0u64, true, true);
        for seg in &var.segs {
            let Some(slot) = fixed_slot(env.regs, seg) else { return TestedValue::Opaque };
            let sym = self.slot_sym[slot];
            let m = seg.seg.reg_mask();
            if sym.known_mask & m == m {
                v |= seg.seg.extract(sym.known_val);
            } else {
                known = false;
            }
            // A bit still describable by a guard is either untouched
            // (entry-sourced, a Slot guard) or last stored with the
            // access's own input (an Input guard): `dim_info` derives
            // exactly that split from the written variable's segments.
            if (sym.entry_mask | sym.input_mask) & m != m {
                entry = false;
            }
        }
        if known {
            TestedValue::Known(v)
        } else if entry {
            TestedValue::Entry
        } else {
            TestedValue::Opaque
        }
    }

    /// Flattens a serialization order reached through an action,
    /// evaluating its conditions against the symbolic shadow. A tested
    /// variable whose mid-access value is statically known (assigned
    /// constants, variant guards) folds directly; one still holding its
    /// entry state becomes a new selector dimension of the outer
    /// enumeration; anything else compiles no plan — loudly.
    fn flatten_nested(&mut self, order: &[SerStep]) -> Option<Vec<RegId>> {
        let mut tested = Vec::new();
        collect_cond_vars(order, &mut tested);
        let mut assign: Vec<(VarId, u64)> = Vec::with_capacity(tested.len());
        for tv in tested {
            match self.classify(tv) {
                TestedValue::Known(v) => assign.push((tv, v)),
                TestedValue::Entry => return self.request_dim(tv),
                TestedValue::Opaque => {
                    let name = self.env.vars[tv.0 as usize].name.clone();
                    return self.fail(format!(
                        "nested conditional tests `{name}`, whose mid-access value is not static"
                    ));
                }
            }
        }
        let mut flat = Vec::new();
        flatten_order(order, &assign, &mut flat);
        Some(flat)
    }

    /// The plan slot of a register instance. Bails on hashed families
    /// and on argument domains not fully indexable.
    fn slot_for(&self, rid: RegId, reg_args: &[PlanValue]) -> Option<PlanSlot> {
        let reg = &self.env.regs[rid.0 as usize];
        if let Some(s) = reg.slot {
            return Some(PlanSlot::Fixed(s));
        }
        let fam = reg.family_slots.as_ref()?;
        if fam.dims.len() != reg_args.len() {
            return None;
        }
        let mut base = fam.base;
        let mut dims = Vec::new();
        for (dim, arg) in fam.dims.iter().zip(reg_args) {
            match arg {
                PlanValue::Const(c) => base += dim.index_of(*c)? * dim.stride,
                PlanValue::Arg(i) => {
                    // Every value the caller may pass must be indexable.
                    let domain = self.params.get(*i)?;
                    if !domain.iter().all(|v| dim.index_of(v).is_some()) {
                        return None;
                    }
                    dims.push((*i, dim.clone()));
                }
                PlanValue::Input => return None,
            }
        }
        Some(if dims.is_empty() { PlanSlot::Fixed(base) } else { PlanSlot::Indexed { base, dims } })
    }

    /// The register offset as a plan offset.
    fn offset_for(binding: &PortBinding, reg_args: &[PlanValue]) -> Option<PlanOffset> {
        match binding.offset {
            Offset::Const(c) => Some(PlanOffset::Const(c)),
            Offset::Param(i) => match reg_args.get(i)? {
                PlanValue::Const(c) => Some(PlanOffset::Const(*c)),
                PlanValue::Arg(j) => Some(PlanOffset::Arg(*j)),
                PlanValue::Input => None,
            },
        }
    }

    /// The family args variable `vid` uses for register `rid` (the
    /// reference interpreter's `args_for_reg`: first matching segment wins).
    fn reg_args_for(&self, vid: VarId, rid: RegId, var_args: &[PlanValue]) -> Vec<PlanValue> {
        let var = &self.env.vars[vid.0 as usize];
        for seg in &var.segs {
            if seg.reg == rid {
                return chunk_args(&seg.args, var_args);
            }
        }
        Vec::new()
    }

    /// Mirrors the reference interpreter's write composition for one variable on
    /// one register: clear own segments and trigger neighbours, fold
    /// neutral substitutions and constant values, keep the rest cached.
    fn compose_one(&self, vid: VarId, rid: RegId, value: PlanValue) -> Compose {
        let reg = &self.env.regs[rid.0 as usize];
        let var = &self.env.vars[vid.0 as usize];
        let mut c = gather_reg_compose(var.segs.iter().map(|s| (s, value)), rid);
        for field in &reg.fields {
            if field.var == vid {
                continue;
            }
            let other = &self.env.vars[field.var.0 as usize];
            if other.behavior.write_trigger {
                if let Some(neutral) = other.neutral {
                    let nv = match neutral {
                        Neutral::Except(n) => n,
                        // `for X`: every value except X is neutral.
                        Neutral::For(x) => u64::from(x == 0),
                    };
                    c.keep_and &= !field.reg_mask();
                    c.const_or |= field.insert(nv);
                }
            }
        }
        c
    }

    /// Simulates one register write: pre-actions, composed write
    /// through the register's masks, post/set actions. `unguard` is the
    /// index of the caller's pending-slot entry to release just before
    /// the write emits.
    fn write_reg(
        &mut self,
        rid: RegId,
        reg_args: &[PlanValue],
        compose: Compose,
        unguard: Option<usize>,
        depth: u32,
    ) -> Option<()> {
        self.note_depth(depth)?;
        let reg = &self.env.regs[rid.0 as usize];
        let (pre, post, set) = (reg.pre.clone(), reg.post.clone(), reg.set.clone());
        let (out_and, out_or) = (reg.and_mask, reg.or_mask);
        let name = &reg.name;
        let Some(binding) = reg.write.clone() else {
            return self.fail(format!("register `{name}` is not writable"));
        };
        let (port, size) = (binding.port.0, reg.size);
        let Some(slot) = self.slot_for(rid, reg_args) else {
            return self.fail(format!("register `{name}` has no indexed cache slot"));
        };
        let Some(offset) = Self::offset_for(&binding, reg_args) else {
            return self.fail(format!("register `{name}` has no static port offset"));
        };
        // The register's own slot is pending while its pre-actions run
        // (the reference interpreter composed the raw value before them).
        let own_guard = self.guarded.len();
        self.guarded.push(Some(slot.clone()));
        self.actions(&pre, reg_args, depth + 1)?;
        self.guarded[own_guard] = None;
        if let Some(i) = unguard {
            self.guarded[i] = None;
        }
        let access = AccessStep { reg: rid, slot, port, offset, size };
        self.emit(PlanStep::Write { access, compose, out_and, out_or })?;
        self.actions(&post, reg_args, depth + 1)?;
        self.actions(&set, reg_args, depth + 1)
    }

    /// Simulates one register read: pre-actions, read, post/set.
    fn read_reg(&mut self, rid: RegId, reg_args: &[PlanValue], depth: u32) -> Option<()> {
        self.note_depth(depth)?;
        let reg = &self.env.regs[rid.0 as usize];
        let (pre, post, set) = (reg.pre.clone(), reg.post.clone(), reg.set.clone());
        let name = &reg.name;
        let Some(binding) = reg.read.clone() else {
            return self.fail(format!("register `{name}` is not readable"));
        };
        let (port, size) = (binding.port.0, reg.size);
        let Some(slot) = self.slot_for(rid, reg_args) else {
            return self.fail(format!("register `{name}` has no indexed cache slot"));
        };
        let Some(offset) = Self::offset_for(&binding, reg_args) else {
            return self.fail(format!("register `{name}` has no static port offset"));
        };
        self.actions(&pre, reg_args, depth + 1)?;
        self.emit(PlanStep::Read(AccessStep { reg: rid, slot, port, offset, size }))?;
        self.actions(&post, reg_args, depth + 1)?;
        self.actions(&set, reg_args, depth + 1)
    }

    /// Simulates a variable read over a pre-flattened register order.
    fn read_var_ordered(&mut self, vid: VarId, args: &[PlanValue], order: &[RegId]) -> Option<()> {
        let var = &self.env.vars[vid.0 as usize];
        if var.mem_cell.is_some() || !var.readable {
            let name = &var.name;
            return self.fail(format!("variable `{name}` has no register read path"));
        }
        for &rid in order {
            let reg_args = self.reg_args_for(vid, rid, args);
            self.read_reg(rid, &reg_args, 0)?;
        }
        Some(())
    }

    /// Simulates a variable write reached through an action. The
    /// reference interpreter stores the new bits, then evaluates the order's
    /// conditions — so the shadow store happens before the nested
    /// flatten, whose conditions fold against it (or become outer
    /// selector dimensions; see [`Self::flatten_nested`]).
    fn write_var(
        &mut self,
        vid: VarId,
        value: PlanValue,
        args: &[PlanValue],
        depth: u32,
    ) -> Option<()> {
        self.sym_store_var(vid, value, args);
        let order_steps = self.env.vars[vid.0 as usize].write_order.clone();
        let order = self.flatten_nested(&order_steps)?;
        self.write_var_ordered(vid, value, args, &order, depth)
    }

    /// Simulates a variable write over a pre-flattened register order:
    /// the reference interpreter's store/compose fused per register (plus
    /// cache-only stores for registers the order does not flush), then
    /// the variable's own set actions.
    fn write_var_ordered(
        &mut self,
        vid: VarId,
        value: PlanValue,
        args: &[PlanValue],
        order: &[RegId],
        depth: u32,
    ) -> Option<()> {
        self.note_depth(depth)?;
        let var = &self.env.vars[vid.0 as usize];
        if var.params.len() != args.len() {
            let name = &var.name;
            return self.fail(format!("arity mismatch writing `{name}`"));
        }
        // The reference checks the value after arity and depth, before
        // any effect of the write.
        if needs_check(var, value) {
            self.checks.push((vid, value));
        }
        let set = var.set.clone();
        if let Some(cell) = var.mem_cell {
            self.emit(set_cell(var, cell, value))?;
            return self.actions(&set, args, depth + 1);
        }
        if !var.writable {
            let name = &var.name;
            return self.fail(format!("variable `{name}` is not writable"));
        }
        // Orders name registers, not instances: a variable spanning two
        // instances of one family register cannot attribute its bits
        // per instance in either the fused flush or a cache-only store.
        if spans_multiple_instances(var) {
            let name = &var.name;
            return self.fail(format!(
                "variable `{name}` spans multiple instances of one register family"
            ));
        }
        // The reference interpreter stores the new bits into every backing
        // register's cache up front. Registers the order flushes fuse
        // the store into their composed write; registers it does not
        // flush get an explicit cache-only store first, so later
        // composes (and the final cache) see the bits exactly as the
        // reference interpreter leaves them.
        self.sym_store_var(vid, value, args);
        let mut stored: Vec<RegId> = Vec::new();
        for s in &var.segs {
            if !order.contains(&s.reg) && !stored.contains(&s.reg) {
                stored.push(s.reg);
            }
        }
        for rid in stored {
            let reg_args = self.reg_args_for(vid, rid, args);
            let Some(slot) = self.slot_for(rid, &reg_args) else {
                let name = &self.env.regs[rid.0 as usize].name;
                return self.fail(format!("stores into `{name}`, which has no indexed slot"));
            };
            let compose = gather_reg_compose(var.segs.iter().map(|s| (s, value)), rid);
            self.emit(PlanStep::Store(slot, compose))?;
        }
        let guard_start = self.guarded.len();
        for &rid in order {
            let reg_args = self.reg_args_for(vid, rid, args);
            let Some(slot) = self.slot_for(rid, &reg_args) else {
                let name = &self.env.regs[rid.0 as usize].name;
                return self.fail(format!("register `{name}` has no indexed cache slot"));
            };
            self.guarded.push(Some(slot));
        }
        for (k, &rid) in order.iter().enumerate() {
            let reg_args = self.reg_args_for(vid, rid, args);
            let compose = self.compose_one(vid, rid, value);
            // The reference interpreter enters `write_register` at depth + 1.
            self.write_reg(rid, &reg_args, compose, Some(guard_start + k), depth + 1)?;
        }
        self.guarded.truncate(guard_start);
        self.actions(&set, args, depth + 1)
    }

    /// Simulates an action list. `ctx` supplies `Param` references
    /// (family arguments of the enclosing register or variable).
    fn actions(&mut self, actions: &[Action], ctx: &[PlanValue], depth: u32) -> Option<()> {
        for action in actions {
            self.note_depth(depth)?;
            match (&action.target, &action.value) {
                (ActionTarget::Var(vid), value) => {
                    let Some(v) = Self::action_value(value, ctx) else {
                        return self.fail("action value is read from another variable at run time");
                    };
                    self.write_var(*vid, v, &[], depth + 1)?;
                }
                (ActionTarget::Struct(sid), ActionValue::Struct(fields)) => {
                    let mut assigned = Vec::with_capacity(fields.len());
                    for (fid, fval) in fields {
                        let Some(v) = Self::action_value(fval, ctx) else {
                            return self
                                .fail("action value is read from another variable at run time");
                        };
                        assigned.push((*fid, v));
                    }
                    self.write_struct_fields(*sid, &assigned, depth + 1)?;
                }
                (ActionTarget::Struct(_), _) => return self.fail("malformed structure action"),
            }
        }
        Some(())
    }

    /// An action value as a plan value, when statically known.
    fn action_value(value: &ActionValue, ctx: &[PlanValue]) -> Option<PlanValue> {
        match value {
            ActionValue::Const(c) => Some(PlanValue::Const(*c)),
            ActionValue::Any => Some(PlanValue::Const(0)),
            // The reference interpreter defaults missing params to 0.
            ActionValue::Param(i) => Some(ctx.get(*i).copied().unwrap_or(PlanValue::Const(0))),
            ActionValue::Var(_) | ActionValue::Struct(_) => None,
        }
    }

    /// Simulates a struct-valued action: assigned field bits stored
    /// up-front by the reference interpreter (memory cells directly, register
    /// bits into the shadow), then the flush — whose conditions are
    /// evaluated against exactly that post-store state.
    fn write_struct_fields(
        &mut self,
        sid: StructId,
        assigned: &[(VarId, PlanValue)],
        depth: u32,
    ) -> Option<()> {
        self.note_depth(depth)?;
        for &(fid, v) in assigned {
            let f = &self.env.vars[fid.0 as usize];
            if !f.params.is_empty() {
                let name = &f.name;
                return self.fail(format!("action assigns parameterized field `{name}`"));
            }
            if spans_multiple_instances(f) {
                let name = &f.name;
                return self.fail(format!(
                    "field `{name}` spans multiple instances of one register family"
                ));
            }
            if let Some(cell) = f.mem_cell {
                self.emit(set_cell(f, cell, v))?;
            } else {
                self.sym_store_var(fid, v, &[]);
            }
        }
        self.flush_struct(sid, assigned, depth)
    }

    /// Simulates `write_struct` reached through an action. Conditional
    /// orders flatten against the symbolic shadow (assigned constants
    /// fold; entry-state tested variables become outer selector
    /// dimensions; see [`Self::flatten_nested`]).
    fn flush_struct(
        &mut self,
        sid: StructId,
        assigned: &[(VarId, PlanValue)],
        depth: u32,
    ) -> Option<()> {
        let order_steps = self.env.structs[sid.0 as usize].write_order.clone();
        let order = self.flatten_nested(&order_steps)?;
        self.flush_struct_ordered(sid, assigned, &order, depth)
    }

    /// Simulates `write_struct` over a pre-flattened register order:
    /// compose every register from the cache (plus the `assigned` field
    /// inserts) and write it, then run field-level set actions.
    /// Assigned bits on registers the order does not flush are stored
    /// cache-only first, exactly like the reference interpreter's up-front
    /// `store_var_bits`.
    fn flush_struct_ordered(
        &mut self,
        sid: StructId,
        assigned: &[(VarId, PlanValue)],
        order: &[RegId],
        depth: u32,
    ) -> Option<()> {
        self.note_depth(depth)?;
        let st = &self.env.structs[sid.0 as usize];
        let fields = st.fields.clone();
        let mut stored: Vec<RegId> = Vec::new();
        for &(fid, _) in assigned {
            for s in &self.env.vars[fid.0 as usize].segs {
                if !order.contains(&s.reg) && !stored.contains(&s.reg) {
                    stored.push(s.reg);
                }
            }
        }
        for rid in stored {
            let Some(slot) = self.slot_for(rid, &[]) else {
                let name = &self.env.regs[rid.0 as usize].name;
                return self.fail(format!("stores into `{name}`, which has no indexed slot"));
            };
            let compose = self.gather_assigned(assigned, rid);
            self.emit(PlanStep::Store(slot, compose))?;
        }
        // Assigned register-backed bits are inserted at each register's
        // write step; guard the pending slots (store/compose inversion,
        // as in `write_var`).
        let guard_start = self.guarded.len();
        for &rid in order {
            let Some(slot) = self.slot_for(rid, &[]) else {
                let name = &self.env.regs[rid.0 as usize].name;
                return self.fail(format!("register `{name}` has no indexed cache slot"));
            };
            self.guarded.push(Some(slot));
        }
        for (k, &rid) in order.iter().enumerate() {
            let compose = self.gather_assigned(assigned, rid);
            // The reference interpreter enters `write_register` at depth + 1.
            self.write_reg(rid, &[], compose, Some(guard_start + k), depth + 1)?;
        }
        self.guarded.truncate(guard_start);
        for &fid in fields.iter() {
            let set = self.env.vars[fid.0 as usize].set.clone();
            self.actions(&set, &[], depth + 1)?;
        }
        Some(())
    }

    /// The composition of the `assigned` field values' bits on `rid`.
    fn gather_assigned(&self, assigned: &[(VarId, PlanValue)], rid: RegId) -> Compose {
        let vars = self.env.vars;
        gather_reg_compose(
            assigned
                .iter()
                .flat_map(|&(fid, v)| vars[fid.0 as usize].segs.iter().map(move |s| (s, v))),
            rid,
        )
    }

    /// Simulates `read_struct` over a pre-flattened register order:
    /// every register once.
    fn read_struct_ordered(&mut self, order: &[RegId]) -> Option<()> {
        for &rid in order {
            self.read_reg(rid, &[], 0)?;
        }
        Some(())
    }
}

/// Whether checked mode must validate `value` written to `var`:
/// constants that pass statically need no run-time check.
pub(crate) fn needs_check(var: &VarIr, value: PlanValue) -> bool {
    !matches!(value, PlanValue::Const(c) if var.ty.valid_write(c))
}

/// A masked memory-cell store of `var`'s value, constants folded.
pub(crate) fn set_cell(var: &VarIr, cell: usize, value: PlanValue) -> PlanStep {
    let mask = var.raw_mask();
    let value = match value {
        PlanValue::Const(c) => PlanValue::Const(c & mask),
        v => v,
    };
    PlanStep::SetCell { cell, value, mask }
}

/// The family args of one segment as plan values.
fn chunk_args(args: &[ChunkArg], var_args: &[PlanValue]) -> Vec<PlanValue> {
    args.iter()
        .map(|a| match a {
            ChunkArg::Const(c) => PlanValue::Const(*c),
            ChunkArg::Param(i) => var_args[*i],
        })
        .collect()
}

/// Collects the variables a serialization order's conditionals test.
fn collect_cond_vars(steps: &[SerStep], out: &mut Vec<VarId>) {
    for s in steps {
        if let SerStep::If { cond, then, els } = s {
            cond_vars(cond, out);
            collect_cond_vars(then, out);
            collect_cond_vars(els, out);
        }
    }
}

fn cond_vars(cond: &CondSem, out: &mut Vec<VarId>) {
    match cond {
        CondSem::Cmp { var, .. } => {
            if !out.contains(var) {
                out.push(*var);
            }
        }
        CondSem::And(a, b) | CondSem::Or(a, b) => {
            cond_vars(a, out);
            cond_vars(b, out);
        }
        CondSem::Not(a) => cond_vars(a, out),
    }
}

/// Evaluates a guard condition under a static assignment of raw values
/// to the tested variables (every tested variable is assigned).
fn eval_cond_static(cond: &CondSem, assign: &[(VarId, u64)]) -> bool {
    match cond {
        CondSem::Cmp { var, eq, value } => {
            let v = assign.iter().find(|(id, _)| id == var).map_or(0, |&(_, v)| v);
            (v == *value) == *eq
        }
        CondSem::And(a, b) => eval_cond_static(a, assign) && eval_cond_static(b, assign),
        CondSem::Or(a, b) => eval_cond_static(a, assign) || eval_cond_static(b, assign),
        CondSem::Not(a) => !eval_cond_static(a, assign),
    }
}

/// Flattens an order to register ids under a static assignment (every
/// conditional is decidable).
fn flatten_order(steps: &[SerStep], assign: &[(VarId, u64)], out: &mut Vec<RegId>) {
    for s in steps {
        match s {
            SerStep::Reg(r) => out.push(*r),
            SerStep::If { cond, then, els } => {
                if eval_cond_static(cond, assign) {
                    flatten_order(then, assign, out);
                } else {
                    flatten_order(els, assign, out);
                }
            }
        }
    }
}

/// The fixed cache slot a tested variable's segment resolves to, when
/// statically known: a concrete register, or a family instance with
/// constant arguments inside an indexed slot range.
fn fixed_slot(regs: &[RegIr], seg: &VarSeg) -> Option<usize> {
    let reg = &regs[seg.reg.0 as usize];
    if let Some(s) = reg.slot {
        return Some(s);
    }
    let args: Option<Vec<u64>> = seg
        .args
        .iter()
        .map(|a| match a {
            ChunkArg::Const(c) => Some(*c),
            ChunkArg::Param(_) => None,
        })
        .collect();
    reg.family_slots.as_ref()?.slot_of(&args?)
}

/// Whether a variable's segments address two *different instances* of
/// the same register (family) id. Serialization orders name registers,
/// not instances, so neither the flattened flush loop nor a cache-only
/// store can attribute such a variable's bits per instance — those
/// writes compile no plan.
fn spans_multiple_instances(var: &VarIr) -> bool {
    var.segs
        .iter()
        .enumerate()
        .any(|(i, a)| var.segs[i + 1..].iter().any(|b| a.reg == b.reg && a.args != b.args))
}

/// The composition storing `(segment, value)` pairs into one register:
/// segments on `rid` are cleared out of the kept bits and inserted,
/// constants folded. Shared by the fused-write, cache-only-store and
/// superplan-stage builders so segment-to-register attribution cannot
/// diverge between them.
pub(crate) fn gather_reg_compose<'s>(
    pairs: impl Iterator<Item = (&'s VarSeg, PlanValue)>,
    rid: RegId,
) -> Compose {
    let mut clear = 0u64;
    let mut const_or = 0u64;
    let mut segs = Vec::new();
    for (s, v) in pairs {
        if s.reg != rid {
            continue;
        }
        clear |= s.seg.reg_mask();
        match v {
            PlanValue::Const(c) => const_or |= s.seg.insert(c),
            v => segs.push(WriteSeg { seg: s.seg, value: v }),
        }
    }
    Compose { keep_and: !clear, const_or, segs }
}

/// Describes how one tested variable's value is obtained at dispatch
/// time, or why it cannot be (the loud fallback cause).
fn dim_info(
    tv: VarId,
    vars: &[VarIr],
    regs: &[RegIr],
    written: Option<VarId>,
) -> Result<SelectorDim, String> {
    let var = &vars[tv.0 as usize];
    if !var.params.is_empty() {
        return Err(format!("condition tests parameterized variable `{}`", var.name));
    }
    if var.width >= 64 {
        return Err(format!("condition tests 64-bit-wide variable `{}`", var.name));
    }
    let radix = 1usize << var.width;
    if let Some(cell) = var.mem_cell {
        return Ok(SelectorDim {
            segs: Vec::new(),
            input_segs: Vec::new(),
            input_mask: 0,
            cell: Some(cell),
            radix,
        });
    }
    let w_segs: &[VarSeg] = written.map_or(&[], |w| &vars[w.0 as usize].segs[..]);
    let mut segs = Vec::new();
    let mut input_segs = Vec::new();
    let mut input_mask = 0u64;
    for seg in &var.segs {
        let Some(slot) = fixed_slot(regs, seg) else {
            return Err(format!("tested variable `{}` has no fixed cache slot", var.name));
        };
        for ws in w_segs {
            if ws.reg != seg.reg || ws.seg.reg_mask() & seg.seg.reg_mask() == 0 {
                continue;
            }
            // Same register id with overlapping bits — but for family
            // registers only the same concrete *instance* aliases. The
            // tested segment's arguments are constants (`fixed_slot`
            // above); a written segment with runtime arguments may or
            // may not hit the tested instance, which no static guard
            // can describe.
            if ws.args != seg.args {
                if ws.args.iter().any(|a| matches!(a, ChunkArg::Param(_))) {
                    return Err(format!(
                        "tested variable `{}` shares a family register with a \
                         runtime-indexed written segment",
                        var.name
                    ));
                }
                // A different constant instance: different slot, the
                // store cannot touch the tested bits — cache-sourced.
                continue;
            }
            // The written variable owns these register bits; the
            // reference interpreter stores them before evaluating conditions,
            // so the tested value takes them from the caller's input.
            let lo = ws.seg.reg_lo.max(seg.seg.reg_lo);
            let hi = ws.seg.reg_hi.min(seg.seg.reg_hi);
            let out_lo = lo - seg.seg.reg_lo + seg.seg.var_lo;
            input_segs.push(FieldSeg {
                var: tv,
                reg_hi: hi - ws.seg.reg_lo + ws.seg.var_lo,
                reg_lo: lo - ws.seg.reg_lo + ws.seg.var_lo,
                var_lo: out_lo,
            });
            input_mask |= width_mask(hi - lo + 1) << out_lo;
        }
        segs.push((slot, seg.seg));
    }
    Ok(SelectorDim { segs, input_segs, input_mask, cell: None, radix })
}

/// Guard-splits and compiles one access: enumerates the raw-value
/// cross product of every tested variable — the order's own conditions
/// plus any nested conditional dimensions the symbolic execution
/// discovers (`PlanBuilder::need_dim`) — and compiles one straight-line
/// variant per combination into the arena (rolled back wholesale on
/// failure, leaving no dead steps). Variants are laid out in
/// mixed-radix order of the tested values (first dimension most
/// significant), matching [`AccessPlan::select_variant`]'s indexing.
/// `written` names the variable whose write this is, so conditions
/// testing it guard on the caller's input (store-then-evaluate order).
/// `Err` carries the loud fallback cause.
fn compile_guarded(
    env: &CompileEnv,
    order: &[SerStep],
    written: Option<VarId>,
    params: &[FamilyParam],
    arena: &mut Vec<PlanStep>,
    body: &mut dyn FnMut(&mut PlanBuilder, &[RegId]) -> Option<()>,
) -> Result<AccessPlan, String> {
    let mut tested: Vec<VarId> = Vec::new();
    collect_cond_vars(order, &mut tested);
    'retry: loop {
        let mut dims = Vec::with_capacity(tested.len());
        let mut domain: u128 = 1;
        for &tv in &tested {
            let dim = dim_info(tv, env.vars, env.regs, written)?;
            domain = domain
                .checked_mul(dim.radix as u128)
                .filter(|&d| d <= GUARD_DOMAIN_CAP)
                .ok_or_else(|| {
                    format!("guard domain exceeds the {GUARD_DOMAIN_CAP}-combination cap")
                })?;
            dims.push(dim);
        }
        let rollback = arena.len();
        let mut variants = Vec::with_capacity(domain as usize);
        let mut max_depth = 0;
        let mut assign: Vec<(VarId, u64)> = tested.iter().map(|&tv| (tv, 0)).collect();
        loop {
            let mut b = PlanBuilder::new(env, params, assign.clone());
            let mut flat = Vec::new();
            flatten_order(order, &assign, &mut flat);
            if body(&mut b, &flat).is_none() {
                arena.truncate(rollback);
                if let Some(nv) = b.need_dim {
                    if tested.contains(&nv) {
                        return Err(format!(
                            "nested conditional re-tests `{}` after its bits changed mid-access",
                            env.vars[nv.0 as usize].name
                        ));
                    }
                    tested.push(nv);
                    continue 'retry;
                }
                return Err(b.fail_reason.unwrap_or_else(|| "plan compilation bailed".into()));
            }
            max_depth = max_depth.max(b.max_depth);
            let start = arena.len() as u32;
            arena.extend(b.steps);
            variants.push(PlanVariant { checks: b.checks, start, len: arena.len() as u32 - start });
            // Mixed-radix increment, last dimension fastest.
            let mut i = assign.len();
            loop {
                if i == 0 {
                    return Ok(AccessPlan {
                        variants,
                        selector: dims,
                        max_depth,
                        ..AccessPlan::default()
                    });
                }
                i -= 1;
                if assign[i].1 + 1 < dims[i].radix as u64 {
                    assign[i].1 += 1;
                    break;
                }
                assign[i].1 = 0;
            }
        }
    }
}

/// Whether any register in the order (both branches of conditionals
/// included) supports the access direction — gates the loud fallback
/// record, so impossible directions (e.g. reading a write-only
/// structure) are not reported as compilation failures.
pub(crate) fn order_usable(regs: &[RegIr], steps: &[SerStep], write: bool) -> bool {
    steps.iter().any(|s| match s {
        SerStep::Reg(r) => {
            let reg = &regs[r.0 as usize];
            if write {
                reg.writable()
            } else {
                reg.readable()
            }
        }
        SerStep::If { then, els, .. } => {
            order_usable(regs, then, write) || order_usable(regs, els, write)
        }
    })
}

/// Records the accesses of `var` the runtime serves without a plan but
/// only in a restricted shape: block transfers need an action-free
/// register, and field getters and setters need flat slots.
fn record_planless_fallbacks(var: &VarIr, regs: &[RegIr], fallbacks: &mut Vec<PlanFallback>) {
    let mut record = |access: String, cause: &str| {
        fallbacks.push(PlanFallback { access, cause: cause.into() });
    };
    let actions =
        |write| matches!(block_binding(var, regs, write), Err(BlockIneligible::Actions(_)));
    if actions(false) || actions(true) {
        record(format!("block {}", var.name), "block transfer on a register with actions");
    }
    if var.parent.is_some() && var.mem_cell.is_none() && var.slot_assemble.is_none() {
        record(format!("field {}", var.name), "field lands on a family register");
    }
}

/// The plan a compiled access runs, or — recording `access` and the
/// cause in `fallbacks` — none.
fn planned(
    compiled: Result<AccessPlan, String>,
    access: AccessRef,
    name: &str,
    fallbacks: &mut Vec<PlanFallback>,
) -> Option<Arc<AccessPlan>> {
    match compiled {
        Ok(plan) => Some(Arc::new(plan)),
        Err(cause) => {
            fallbacks.push(PlanFallback { access: access.name(name), cause });
            None
        }
    }
}

/// Compiles the read/write plans for one variable, when the access
/// qualifies (see [`AccessPlan`]). Compiled steps land in `arena`;
/// failures land in `fallbacks` with their cause. Memory-cell
/// variables compile too: reads serve the cell directly, writes store
/// it and fold the variable's set actions.
pub(crate) fn compile_var_plans(
    vid: VarId,
    env: &CompileEnv,
    arena: &mut Vec<PlanStep>,
    fallbacks: &mut Vec<PlanFallback>,
) -> (Option<Arc<AccessPlan>>, Option<Arc<AccessPlan>>) {
    let var = &env.vars[vid.0 as usize];
    let (read_ref, write_ref) = (AccessRef::ReadVar(vid), AccessRef::WriteVar(vid));
    record_planless_fallbacks(var, env.regs, fallbacks);
    if var.mem_cell.is_some() {
        if !var.params.is_empty() {
            // A cell is one value: a family of them has no per-argument
            // storage for a plan to address.
            for (access, on) in [(read_ref, var.readable), (write_ref, var.writable)] {
                if on {
                    fallbacks.push(PlanFallback {
                        access: access.name(&var.name),
                        cause: "memory-cell variable takes family arguments".into(),
                    });
                }
            }
            return (None, None);
        }
        let read = var.readable.then(|| {
            Arc::new(AccessPlan {
                variants: vec![PlanVariant {
                    checks: Vec::new(),
                    start: arena.len() as u32,
                    len: 0,
                }],
                cell: var.mem_cell,
                ..AccessPlan::default()
            })
        });
        // The write compiles through the guard-split driver even though
        // a cell has no order of its own: set actions may reach nested
        // conditional orders, whose entry-state tested variables then
        // become selector dimensions (and whose bail causes are
        // recorded) exactly like register-backed writes.
        let write = var.writable.then(|| {
            let compiled = compile_guarded(env, &[], None, &var.params, arena, &mut |b, _order| {
                b.write_var_ordered(vid, PlanValue::Input, &[], &[], 0)
            });
            planned(compiled, write_ref, &var.name, fallbacks)
        });
        return (read, write.flatten());
    }
    let args: Vec<PlanValue> = (0..var.params.len()).map(PlanValue::Arg).collect();
    let read = var.readable.then(|| {
        let b = PlanBuilder::new(env, &var.params, Vec::new());
        let assemble: Option<Vec<(PlanSlot, FieldSeg)>> = var
            .segs
            .iter()
            .map(|s| b.slot_for(s.reg, &chunk_args(&s.args, &args)).map(|slot| (slot, s.seg)))
            .collect();
        let compiled = match assemble {
            None => Err("assembles from a hashed family cache".into()),
            Some(assemble) => {
                compile_guarded(env, &var.read_order, None, &var.params, arena, &mut |b, order| {
                    b.read_var_ordered(vid, &args, order)
                })
                .map(|plan| AccessPlan { assemble, ..plan })
            }
        };
        planned(compiled, read_ref, &var.name, fallbacks)
    });
    let write = var.writable.then(|| {
        let compiled = compile_guarded(
            env,
            &var.write_order,
            Some(vid),
            &var.params,
            arena,
            &mut |b, order| b.write_var_ordered(vid, PlanValue::Input, &args, order, 0),
        );
        planned(compiled, write_ref, &var.name, fallbacks)
    });
    (read.flatten(), write.flatten())
}

/// Compiles the read/write plans for one structure (an [`AccessPlan`]
/// with an empty assemble list — field getters use
/// [`VarIr::slot_assemble`] instead). Conditional orders guard-split:
/// the reference interpreter evaluates every condition against the cache before
/// the first access, which is exactly the state the entry guards see.
/// A failure is recorded only when some register of the order supports
/// the direction; otherwise the access is a direction error.
pub(crate) fn compile_struct_plans(
    sid: StructId,
    env: &CompileEnv,
    arena: &mut Vec<PlanStep>,
    fallbacks: &mut Vec<PlanFallback>,
) -> (Option<Arc<AccessPlan>>, Option<Arc<AccessPlan>>) {
    let st = &env.structs[sid.0 as usize];
    let read = compile_guarded(env, &st.read_order, None, &[], arena, &mut |b, order| {
        b.read_struct_ordered(order)
    });
    let write = compile_guarded(env, &st.write_order, None, &[], arena, &mut |b, order| {
        b.flush_struct_ordered(sid, &[], order, 0)
    });
    let mut plan = |compiled: Result<AccessPlan, String>, access, order: &[SerStep], write| {
        if compiled.is_err() && !order_usable(env.regs, order, write) {
            return None;
        }
        planned(compiled, access, &st.name, fallbacks)
    };
    let read = plan(read, AccessRef::ReadStruct(sid), &st.read_order, false);
    let write = plan(write, AccessRef::WriteStruct(sid), &st.write_order, true);
    (read, write)
}
