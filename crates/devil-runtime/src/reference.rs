//! The reference interpreter: the access semantics the plan compiler
//! flattens, interpreted straight from the IR's orders and actions.
//!
//! [`ReferenceInstance`] walks serialization orders, evaluates their
//! conditions against the cache, runs pre/post/set actions recursively
//! and composes every register write on the fly. It shares no dispatch
//! code with [`crate::DeviceInstance`], which only runs compiled plans:
//! that independence is what makes it the oracle of the differential
//! tests and the baseline of the micro benches. It also serves the
//! shapes lowering cannot plan (oversized register families, cyclic
//! actions, family memory cells), so tests can state what those mean.

use crate::access::DeviceAccess;
use crate::error::{RtError, RtResult};
use crate::interp::{block_error, checked_read, superplan_io, validate_args, MAX_DEPTH};
use devil_ir::{BlockIneligible, DeviceIr, FuseOp};
use devil_sema::model::{
    Action, ActionTarget, ActionValue, ChunkArg, CondSem, Neutral, RegId, SerStep, StructId, VarId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A register's pre/post/set action lists, shared by `Arc` handle.
type ActionLists = (Arc<[Action]>, Arc<[Action]>, Arc<[Action]>);

/// Family-argument tuples stay this small in every shipped spec, so the
/// argument buffers and hashed cache keys never touch the heap in the
/// common case.
const ARG_INLINE: usize = 4;

/// A small-vector argument buffer. Doubles as the family-cache key:
/// both constructors zero the unused inline tail and pick the variant
/// by length alone, so equal arguments always compare and hash equal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ArgBuf {
    Inline { len: u8, buf: [u64; ARG_INLINE] },
    Heap(Vec<u64>),
}

impl ArgBuf {
    fn from_slice(args: &[u64]) -> Self {
        Self::from_iter_len(args.iter().copied(), args.len())
    }

    /// Collects `len` values, inline when they fit.
    fn from_iter_len(vals: impl Iterator<Item = u64>, len: usize) -> Self {
        if len > ARG_INLINE {
            return ArgBuf::Heap(vals.collect());
        }
        let mut buf = [0; ARG_INLINE];
        for (b, v) in buf.iter_mut().zip(vals) {
            *b = v;
        }
        ArgBuf::Inline { len: len as u8, buf }
    }
}

impl std::ops::Deref for ArgBuf {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            ArgBuf::Inline { len, buf } => &buf[..*len as usize],
            ArgBuf::Heap(heap) => heap,
        }
    }
}

/// The family args of one segment, for the variable args `var_args`.
fn seg_args(args: &[ChunkArg], var_args: &[u64]) -> ArgBuf {
    let vals = args.iter().map(|a| match a {
        ChunkArg::Const(c) => *c,
        ChunkArg::Param(i) => var_args[*i],
    });
    ArgBuf::from_iter_len(vals, args.len())
}

/// How a register write composes values for variables other than the one
/// being written.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    /// Single-variable write: other trigger variables get their neutral
    /// value; idempotent ones come from the cache.
    One(VarId),
    /// Structure write: every field comes from the cache (set_field
    /// populated it).
    All,
}

/// A device session interpreted straight from the IR: flat cache slots,
/// a hashed cache for families past the lowerer's slot cap, memory
/// cells, and optional debug-mode checks.
pub struct ReferenceInstance {
    ir: Arc<DeviceIr>,
    /// Flat cache: one raw value per register instance.
    slots: Vec<u64>,
    /// Which flat slots hold a value.
    slot_valid: Vec<bool>,
    /// Hashed cache for family registers whose domain exceeds the
    /// flat-slot cap.
    family_cache: HashMap<(u32, ArgBuf), u64>,
    /// Private memory cells.
    mem: Vec<u64>,
    /// Whether debug-mode run-time checks are enabled.
    checks: bool,
    /// Reusable `RegId` buffers for serialization-order flattening. A
    /// pool rather than a single buffer: actions recurse into nested
    /// accesses, each popping its own buffer.
    order_pool: Vec<Vec<RegId>>,
}

impl ReferenceInstance {
    /// Creates an instance over lowered IR with checks disabled.
    pub fn new(ir: DeviceIr) -> Self {
        ReferenceInstance {
            slots: vec![0; ir.cache_slots],
            slot_valid: vec![false; ir.cache_slots],
            family_cache: HashMap::new(),
            mem: vec![0; ir.mem_cells],
            checks: false,
            order_pool: Vec::new(),
            ir: Arc::new(ir),
        }
    }

    /// Enables or disables debug-mode run-time checks (the paper's
    /// `DEVIL_DEBUG`), validated where each value is written or read.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.checks = on;
    }

    /// The underlying IR.
    pub fn ir(&self) -> &DeviceIr {
        &self.ir
    }

    /// The flat cache: per-slot raw values and their validity flags, in
    /// the slot layout [`crate::DeviceInstance::cache_snapshot`] uses.
    /// Families past the slot cap cache elsewhere and are not included.
    pub fn cache_snapshot(&self) -> (&[u64], &[bool]) {
        (&self.slots, &self.slot_valid)
    }

    /// The private memory cells, indexed by `VarIr::mem_cell`.
    pub fn mem_snapshot(&self) -> &[u64] {
        &self.mem
    }

    /// Reads a variable by id.
    pub fn read_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
    ) -> RtResult<u64> {
        validate_args(self.ir.var(vid), args)?;
        let var = self.ir.var(vid);
        if let Some(cell) = var.mem_cell {
            return Ok(self.mem[cell]);
        }
        if !var.readable {
            return Err(RtError::NotReadable(var.name.clone()));
        }
        let behavior = var.behavior;
        let read_order = var.order.clone();
        // Idempotent variables are served from the cache when every
        // backing register has a cached value.
        if !behavior.volatile && !behavior.read_trigger {
            if let Some(v) = self.try_assemble_cached(vid, args) {
                return checked_read(self.checks, self.ir.var(vid), v);
            }
        }
        let mut order = self.pop_order_buf();
        self.plan_regs_into(&read_order, &mut order);
        let mut res = Ok(());
        for &rid in &order {
            let reg_args = self.args_for_reg(vid, rid, args);
            if let Err(e) = self.read_register(dev, rid, &reg_args, 0) {
                res = Err(e);
                break;
            }
        }
        self.push_order_buf(order);
        res?;
        let v = self.assemble_cached(vid, args);
        checked_read(self.checks, self.ir.var(vid), v)
    }

    /// Writes a variable by id.
    pub fn write_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        self.write_id_depth(dev, vid, args, value, 0)
    }

    /// Reads a structure: every backing register once, in order. A
    /// structure none of whose registers is readable is a direction
    /// error before any device access.
    pub fn read_struct_id(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        if !self.ir.struct_supports(sid, false) {
            return Err(RtError::NotReadable(self.ir.strct(sid).name.clone()));
        }
        let read_order = self.ir.strct(sid).order.clone();
        let mut order = self.pop_order_buf();
        self.plan_regs_into(&read_order, &mut order);
        let mut res = Ok(());
        for &rid in &order {
            if let Err(e) = self.read_register(dev, rid, &[], 0) {
                res = Err(e);
                break;
            }
        }
        self.push_order_buf(order);
        res
    }

    /// Gets a structure field from the cache (no device access).
    pub fn get_field_id(&mut self, vid: VarId) -> RtResult<u64> {
        let var = self.ir.var(vid);
        if var.parent.is_none() {
            return Err(RtError::NotAField(var.name.clone()));
        }
        let v = self.assemble_cached(vid, &[]);
        checked_read(self.checks, self.ir.var(vid), v)
    }

    /// Sets a structure field in the cache (flushed by
    /// [`ReferenceInstance::write_struct_id`]).
    pub fn set_field_id(&mut self, vid: VarId, value: u64) -> RtResult<()> {
        let var = self.ir.var(vid);
        if var.parent.is_none() {
            return Err(RtError::NotAField(var.name.clone()));
        }
        if self.checks && !var.ty.valid_write(value) {
            return Err(RtError::ValueRange { var: var.name.clone(), value });
        }
        self.store_var_bits(vid, &[], value);
        Ok(())
    }

    /// Writes a structure: composes every backing register from the
    /// cache and writes them in order (conditions evaluated against the
    /// cached field values). A structure none of whose registers is
    /// writable is a direction error before any device access.
    pub fn write_struct_id(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        if !self.ir.struct_supports(sid, true) {
            return Err(RtError::NotWritable(self.ir.strct(sid).name.clone()));
        }
        self.write_struct_depth(dev, sid, 0)
    }

    /// Block-reads a `block` variable by id, register actions included.
    pub fn read_block_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        buf: &mut [u64],
    ) -> RtResult<()> {
        let b = match self.ir.block_binding(vid, false) {
            Ok(b) | Err(BlockIneligible::Actions(b)) => b,
            Err(why) => return Err(block_error(&self.ir, vid, false, why)),
        };
        let (pre, post, set) = self.reg_actions(b.reg);
        self.run_actions(dev, &pre, &[], 1)?;
        dev.read_block(b.port as usize, b.offset, b.size, buf);
        self.run_actions(dev, &post, &[], 1)?;
        self.run_actions(dev, &set, &[], 1)
    }

    /// Block-writes a `block` variable by id, register actions included.
    pub fn write_block_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        buf: &[u64],
    ) -> RtResult<()> {
        let b = match self.ir.block_binding(vid, true) {
            Ok(b) | Err(BlockIneligible::Actions(b)) => b,
            Err(why) => return Err(block_error(&self.ir, vid, true, why)),
        };
        let (pre, post, set) = self.reg_actions(b.reg);
        self.run_actions(dev, &pre, &[], 1)?;
        dev.write_block(b.port as usize, b.offset, b.size, buf);
        self.run_actions(dev, &post, &[], 1)?;
        self.run_actions(dev, &set, &[], 1)
    }

    /// Runs a superplan's declared op sequence op by op: the meaning a
    /// fused dispatch must reproduce. Short `args` or `outs` fail with
    /// [`RtError::ArityMismatch`] before the first op, as in
    /// [`crate::DeviceInstance::run_superplan`]; so, with debug checks
    /// on, does a stage-prefix value (a leading `SetField`) outside its
    /// field's type, which leaves no field staged.
    pub fn run_superplan(
        &mut self,
        dev: &mut dyn DeviceAccess,
        sid: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()> {
        let ir = Arc::clone(&self.ir);
        let sp = superplan_io(&ir, sid, args, outs)?;
        if self.checks {
            for op in &sp.ops {
                let FuseOp::SetField { var, value } = op else { break };
                let (var, value) = (ir.var(*var), value.resolve(args, 0));
                if !var.ty.valid_write(value) {
                    return Err(RtError::ValueRange { var: var.name.clone(), value });
                }
            }
        }
        let mut out_idx = 0usize;
        for op in &sp.ops {
            match op {
                FuseOp::SetField { var, value } => {
                    self.set_field_id(*var, value.resolve(args, 0))?;
                }
                FuseOp::Write { var, value } => {
                    self.write_id(dev, *var, &[], value.resolve(args, 0))?;
                }
                FuseOp::Read { var } => {
                    outs[out_idx] = self.read_id(dev, *var, &[])?;
                    out_idx += 1;
                }
                FuseOp::WriteStruct { strct } => self.write_struct_id(dev, *strct)?,
                FuseOp::ReadBlock { var } => self.read_block_id(dev, *var, block_in)?,
                FuseOp::WriteBlock { var } => self.write_block_id(dev, *var, block_out)?,
            }
        }
        Ok(())
    }

    // ---- internals ----

    fn write_id_depth(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
        depth: u32,
    ) -> RtResult<()> {
        validate_args(self.ir.var(vid), args)?;
        let var = self.ir.var(vid);
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(var.name.clone()));
        }
        let mem_cell = var.mem_cell;
        if mem_cell.is_none() && !var.writable {
            return Err(RtError::NotWritable(var.name.clone()));
        }
        if self.checks && !var.ty.valid_write(value) {
            return Err(RtError::ValueRange { var: var.name.clone(), value });
        }
        let set = var.set.clone();
        let write_order = var.order.clone();
        if let Some(cell) = mem_cell {
            self.mem[cell] = value & var.raw_mask();
            return self.run_actions(dev, &set, args, depth + 1);
        }
        // Update the cache with the new bits first so composition and
        // condition evaluation see the written value.
        self.store_var_bits(vid, args, value);
        let mut order = self.pop_order_buf();
        self.plan_regs_into(&write_order, &mut order);
        let mut res = Ok(());
        for &rid in &order {
            let reg_args = self.args_for_reg(vid, rid, args);
            let raw = self.compose(rid, &reg_args, WriteMode::One(vid));
            if let Err(e) = self.write_register(dev, rid, &reg_args, raw, depth + 1) {
                res = Err(e);
                break;
            }
        }
        self.push_order_buf(order);
        res?;
        self.run_actions(dev, &set, args, depth + 1)
    }

    fn write_struct_depth(
        &mut self,
        dev: &mut dyn DeviceAccess,
        sid: StructId,
        depth: u32,
    ) -> RtResult<()> {
        let st = self.ir.strct(sid);
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(st.name.clone()));
        }
        let write_order = st.order.clone();
        let fields = st.fields.clone();
        let mut order = self.pop_order_buf();
        self.plan_regs_into(&write_order, &mut order);
        let mut res = Ok(());
        for &rid in &order {
            let raw = self.compose(rid, &[], WriteMode::All);
            if let Err(e) = self.write_register(dev, rid, &[], raw, depth + 1) {
                res = Err(e);
                break;
            }
        }
        self.push_order_buf(order);
        res?;
        // Field-level `set` actions run after the flush.
        for &fid in fields.iter() {
            let actions = self.ir.var(fid).set.clone();
            self.run_actions(dev, &actions, &[], depth + 1)?;
        }
        Ok(())
    }

    fn pop_order_buf(&mut self) -> Vec<RegId> {
        self.order_pool.pop().unwrap_or_default()
    }

    fn push_order_buf(&mut self, mut buf: Vec<RegId>) {
        buf.clear();
        if self.order_pool.len() < 8 {
            self.order_pool.push(buf);
        }
    }

    /// The cached raw value of a register instance, if any: its flat
    /// slot, its family's indexed slot, or the hashed family cache.
    fn cache_get(&self, rid: RegId, args: &[u64]) -> Option<u64> {
        let reg = self.ir.reg(rid);
        let slot = reg.slot.or_else(|| reg.family_slots.as_ref().and_then(|f| f.slot_of(args)));
        if let Some(slot) = slot {
            return self.slot_valid[slot].then(|| self.slots[slot]);
        }
        self.family_cache.get(&(rid.0, ArgBuf::from_slice(args))).copied()
    }

    /// Caches a register instance's raw value.
    fn cache_put(&mut self, rid: RegId, args: &[u64], raw: u64) {
        let reg = self.ir.reg(rid);
        let slot = reg.slot.or_else(|| reg.family_slots.as_ref().and_then(|f| f.slot_of(args)));
        if let Some(slot) = slot {
            self.slots[slot] = raw;
            self.slot_valid[slot] = true;
            return;
        }
        self.family_cache.insert((rid.0, ArgBuf::from_slice(args)), raw);
    }

    /// The family args used by variable `vid` for register `rid`.
    fn args_for_reg(&self, vid: VarId, rid: RegId, var_args: &[u64]) -> ArgBuf {
        let var = self.ir.var(vid);
        var.segs
            .iter()
            .find(|seg| seg.reg == rid)
            .map_or_else(|| ArgBuf::from_slice(&[]), |seg| seg_args(&seg.args, var_args))
    }

    /// Flattens a serialization order to register ids, evaluating
    /// conditions against cached variable values.
    fn plan_regs_into(&self, steps: &[SerStep], out: &mut Vec<RegId>) {
        for step in steps {
            match step {
                SerStep::Reg(r) => out.push(*r),
                SerStep::If { cond, then, els } => {
                    let branch = if self.eval_cond(cond) { then } else { els };
                    self.plan_regs_into(branch, out);
                }
            }
        }
    }

    fn eval_cond(&self, cond: &CondSem) -> bool {
        match cond {
            CondSem::Cmp { var, eq, value } => (self.assemble_cached(*var, &[]) == *value) == *eq,
            CondSem::And(a, b) => self.eval_cond(a) && self.eval_cond(b),
            CondSem::Or(a, b) => self.eval_cond(a) || self.eval_cond(b),
            CondSem::Not(a) => !self.eval_cond(a),
        }
    }

    /// Assembles a variable's value from the cache (0 for never-accessed
    /// registers) or its memory cell.
    fn assemble_cached(&self, vid: VarId, args: &[u64]) -> u64 {
        let var = self.ir.var(vid);
        if let Some(cell) = var.mem_cell {
            return self.mem[cell];
        }
        var.segs.iter().fold(0, |v, seg| {
            let raw = self.cache_get(seg.reg, &seg_args(&seg.args, args)).unwrap_or(0);
            v | seg.seg.extract(raw)
        })
    }

    /// Like [`Self::assemble_cached`] but only when every register is
    /// cached.
    fn try_assemble_cached(&self, vid: VarId, args: &[u64]) -> Option<u64> {
        let var = self.ir.var(vid);
        if var.mem_cell.is_none() {
            for seg in &var.segs {
                self.cache_get(seg.reg, &seg_args(&seg.args, args))?;
            }
        }
        Some(self.assemble_cached(vid, args))
    }

    /// Writes `value`'s bits into the cached raw values of the
    /// variable's registers, or its memory cell (masked to the
    /// variable's width, like a register field).
    fn store_var_bits(&mut self, vid: VarId, args: &[u64], value: u64) {
        let ir = Arc::clone(&self.ir);
        let var = ir.var(vid);
        if let Some(cell) = var.mem_cell {
            self.mem[cell] = value & var.raw_mask();
            return;
        }
        for seg in &var.segs {
            let reg_args = seg_args(&seg.args, args);
            let old = self.cache_get(seg.reg, &reg_args).unwrap_or(0);
            let new = (old & !seg.seg.reg_mask()) | seg.seg.insert(value);
            self.cache_put(seg.reg, &reg_args, new);
        }
    }

    /// Composes the raw value to write to a register.
    fn compose(&self, rid: RegId, args: &[u64], mode: WriteMode) -> u64 {
        let mut raw = self.cache_get(rid, args).unwrap_or(0);
        let WriteMode::One(writing) = mode else { return raw };
        for field in &self.ir.reg(rid).fields {
            let other = self.ir.var(field.var);
            if field.var == writing || !other.behavior.write_trigger {
                continue;
            }
            if let Some(neutral) = other.neutral {
                let nv = match neutral {
                    Neutral::Except(n) => n,
                    // `for X`: every value except X is neutral.
                    Neutral::For(x) => u64::from(x == 0),
                };
                raw = (raw & !field.reg_mask()) | field.insert(nv);
            }
        }
        raw
    }

    /// The pre/post/set action lists of a register (`Arc` handles).
    fn reg_actions(&self, rid: RegId) -> ActionLists {
        let reg = self.ir.reg(rid);
        (reg.pre.clone(), reg.post.clone(), reg.set.clone())
    }

    /// Performs a device read of one register, with actions and caching.
    fn read_register(
        &mut self,
        dev: &mut dyn DeviceAccess,
        rid: RegId,
        args: &[u64],
        depth: u32,
    ) -> RtResult<u64> {
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(self.ir.reg(rid).name.clone()));
        }
        let (pre, post, set) = self.reg_actions(rid);
        self.run_actions(dev, &pre, args, depth + 1)?;
        let reg = self.ir.reg(rid);
        let binding = reg.read.as_ref().ok_or_else(|| RtError::NotReadable(reg.name.clone()))?;
        let offset = self.ir.resolve_offset(binding, args);
        let raw = dev.read(binding.port.0 as usize, offset, reg.size);
        self.cache_put(rid, args, raw);
        self.run_actions(dev, &post, args, depth + 1)?;
        self.run_actions(dev, &set, args, depth + 1)?;
        Ok(raw)
    }

    /// Performs a device write of one register, with masking, actions
    /// and caching.
    fn write_register(
        &mut self,
        dev: &mut dyn DeviceAccess,
        rid: RegId,
        args: &[u64],
        raw: u64,
        depth: u32,
    ) -> RtResult<()> {
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(self.ir.reg(rid).name.clone()));
        }
        let (pre, post, set) = self.reg_actions(rid);
        self.run_actions(dev, &pre, args, depth + 1)?;
        let reg = self.ir.reg(rid);
        let binding = reg.write.as_ref().ok_or_else(|| RtError::NotWritable(reg.name.clone()))?;
        let offset = self.ir.resolve_offset(binding, args);
        dev.write(binding.port.0 as usize, offset, reg.size, (raw & reg.and_mask) | reg.or_mask);
        self.cache_put(rid, args, raw);
        self.run_actions(dev, &post, args, depth + 1)?;
        self.run_actions(dev, &set, args, depth + 1)
    }

    /// Executes a pre/post/set action list. `args` is the family-argument
    /// context for `Param` references.
    fn run_actions(
        &mut self,
        dev: &mut dyn DeviceAccess,
        actions: &[Action],
        args: &[u64],
        depth: u32,
    ) -> RtResult<()> {
        for action in actions {
            if depth > MAX_DEPTH {
                return Err(RtError::RecursionLimit("action".into()));
            }
            match (&action.target, &action.value) {
                (ActionTarget::Var(vid), value) => {
                    let v = self.resolve_action_value(value, args);
                    self.write_id_depth(dev, *vid, &[], v, depth + 1)?;
                }
                (ActionTarget::Struct(sid), ActionValue::Struct(fields)) => {
                    for (fid, fval) in fields {
                        let v = self.resolve_action_value(fval, args);
                        self.store_var_bits(*fid, &[], v);
                    }
                    self.write_struct_depth(dev, *sid, depth + 1)?;
                }
                (ActionTarget::Struct(_), _) => {
                    unreachable!("sema guarantees struct targets get struct values")
                }
            }
        }
        Ok(())
    }

    fn resolve_action_value(&self, value: &ActionValue, args: &[u64]) -> u64 {
        match value {
            ActionValue::Const(c) => *c,
            ActionValue::Param(i) => args.get(*i).copied().unwrap_or(0),
            ActionValue::Var(vid) => self.assemble_cached(*vid, &[]),
            ActionValue::Any | ActionValue::Struct(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::FakeAccess;

    fn instance(src: &str) -> ReferenceInstance {
        let model = devil_sema::check_source(src, &[]).expect("spec checks");
        ReferenceInstance::new(devil_ir::lower(&model))
    }

    #[test]
    fn arg_buf_spills_past_inline_capacity() {
        let long: Vec<u64> = (0..ARG_INLINE as u64 + 2).collect();
        let buf = ArgBuf::from_slice(&long);
        assert_eq!(buf.len(), ARG_INLINE + 2);
        assert_eq!(buf[ARG_INLINE + 1], ARG_INLINE as u64 + 1);
        assert!(matches!(buf, ArgBuf::Heap(_)));
        assert_eq!(buf, ArgBuf::from_iter_len(long.iter().copied(), long.len()));
        let inline = ArgBuf::from_slice(&[1, 2]);
        assert!(matches!(inline, ArgBuf::Inline { .. }));
        assert_eq!(&inline[..], &[1, 2]);
    }

    #[test]
    fn oversized_families_cache_in_the_hashed_map() {
        // 8191 instances exceed the flat-slot cap: no plan, but the
        // reference serves (and caches) every instance.
        let mut d = instance(
            r#"device big (base : bit[16] port @ {0..0}) {
                 register r(i : int{0..8190}) = base @ 0 : bit[16];
                 variable v(i : int{0..8190}) = r(i) : int(16);
               }"#,
        );
        assert!(d.ir().var(d.ir().var_id("v").unwrap()).write_plan.is_none());
        let vid = d.ir().var_id("v").unwrap();
        let mut dev = FakeAccess::new();
        d.write_id(&mut dev, vid, &[6000], 0x1234).unwrap();
        assert_eq!(d.read_id(&mut dev, vid, &[6000]).unwrap(), 0x1234);
        assert_eq!(dev.ops(), 1, "the read is served from the hashed cache");
    }

    #[test]
    fn memory_cells_mask_to_their_width() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable m : int(3);
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        let m = d.ir().var_id("m").unwrap();
        d.write_id(&mut dev, m, &[], 0x5a).unwrap();
        assert_eq!(d.read_id(&mut dev, m, &[]).unwrap(), 0x5a & 0x7);
    }

    #[test]
    fn structure_direction_errors_precede_device_access() {
        // The register's pre-action would write the index first; the
        // direction error must come before it.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register idx = write base @ 1 : bit[8];
                 variable index = idx : int(8);
                 register data = read base @ 0, pre {index = 3} : bit[8];
                 structure s = { variable f = data, volatile : int(8); };
               }"#,
        );
        let mut dev = FakeAccess::new();
        let sid = d.ir().struct_id("s").unwrap();
        assert_eq!(d.write_struct_id(&mut dev, sid), Err(RtError::NotWritable("s".into())));
        assert_eq!(dev.ops(), 0);
    }
}
