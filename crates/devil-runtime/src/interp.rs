//! The access-plan executor: a dynamic equivalent of the generated
//! stubs.
//!
//! [`DeviceInstance`] runs the compiled [`devil_ir`] plans of a checked
//! specification against any [`DeviceAccess`] implementor, with the
//! exact semantics the paper ascribes to generated code:
//!
//! * register masks force fixed bits on writes,
//! * pre/post/set actions run around every register access (folded
//!   into the plans: private index variables, structures, memory cells),
//! * idempotent variables are cached; `volatile` ones are re-read,
//! * `trigger` variables substitute neutral values for their neighbours
//!   on shared registers,
//! * structures read each backing register once and serve field getters
//!   from the cache (the `bm_get_mouse_state()` / `bm_get_dy()` split of
//!   the paper's Figure 3),
//! * conditional serializations (`if (sngl == CASCADED) icw3`) execute
//!   guard-split plan variants: the tested values, assembled from flat
//!   cache slots, index the straight-line version
//!   ([`devil_ir::AccessPlan::select_variant`]),
//! * optional debug checks validate written values and read patterns.
//!
//! There is one execution path: every access selects a plan variant,
//! runs its debug checks when they are on, then walks its steps. An
//! access that has no plan, or whose arguments, direction or depth are
//! wrong, fails with a typed [`RtError`] before the device is touched.
//! The semantics the plans are compiled from live in
//! [`crate::reference`], the differential tests' oracle.

use crate::access::DeviceAccess;
use crate::error::{RtError, RtResult};
use devil_ir::{
    AccessRef, BlockIneligible, DeviceIr, FuseOp, PlanStep, PlanVariant, Superplan, VarIr,
};
use devil_sema::model::{StructId, TypeSem, VarId};
use std::sync::Arc;

/// Maximum pre/post-action recursion depth: a plan reaching deeper is
/// rejected, and the reference interpreter errors out at this depth.
pub(crate) const MAX_DEPTH: u32 = 32;

/// Counters describing how accesses were dispatched, for benches and
/// the differential fuzzer's plan-coverage assertions: a fold of the
/// instance's hit table ([`DeviceInstance::hits`]) by point kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Accesses executed by an unguarded straight-line plan (memory-cell
    /// reads, served straight from the cell, count here too).
    pub straight: u64,
    /// Accesses executed by a guard-selected plan variant (conditional
    /// serialization on the fast path).
    pub guarded: u64,
    /// Accesses handled by a general interpreter. Always 0:
    /// [`DeviceInstance`] only runs plans. The field stays so existing
    /// consumers of the counters (and their `general == 0` gates) keep
    /// reading it.
    pub general: u64,
    /// Fused superplan dispatches: whole driver-declared hot sequences
    /// executed as one guard evaluation plus one arena walk
    /// ([`DeviceInstance::run_superplan`]). Per-variant counts are in
    /// [`DeviceInstance::superplan_hits`].
    pub fused: u64,
}

impl PlanStats {
    /// Counters accumulated since `earlier`: the dispatches one unit of
    /// work made.
    ///
    /// # Panics
    ///
    /// Panics if any counter of `earlier` exceeds this snapshot's —
    /// counters are monotone between resets, so a negative delta means
    /// the two snapshots are from different epochs (a reset or a
    /// [`DeviceInstance::restore`] in between).
    pub fn delta(self, earlier: PlanStats) -> PlanStats {
        let sub = |field: &str, now: u64, then: u64| {
            now.checked_sub(then).unwrap_or_else(|| {
                panic!("PlanStats delta underflow on `{field}`: {now} - {then} (epoch mismatch)")
            })
        };
        PlanStats {
            straight: sub("straight", self.straight, earlier.straight),
            guarded: sub("guarded", self.guarded, earlier.guarded),
            general: sub("general", self.general, earlier.general),
            fused: sub("fused", self.fused, earlier.fused),
        }
    }

    /// Total dispatches across all paths.
    pub fn total(self) -> u64 {
        self.straight + self.guarded + self.general + self.fused
    }
}

impl std::ops::Sub for PlanStats {
    type Output = PlanStats;

    /// `now - earlier`, as [`PlanStats::delta`].
    fn sub(self, earlier: PlanStats) -> PlanStats {
        self.delta(earlier)
    }
}

impl std::ops::Add for PlanStats {
    type Output = PlanStats;

    fn add(self, rhs: PlanStats) -> PlanStats {
        PlanStats {
            straight: self.straight + rhs.straight,
            guarded: self.guarded + rhs.guarded,
            general: self.general + rhs.general,
            fused: self.fused + rhs.fused,
        }
    }
}

/// A live device session: shared compiled IR plus cache state.
///
/// Every register is cached in **flat slots** (a `Vec` indexed by the
/// slot the lowerer assigned): one slot per concrete register, and an
/// indexed slot range per family (`base + index(arg)·stride`), so
/// accesses do zero hashing.
pub struct DeviceInstance {
    /// The immutable compiled part — IR, plan arena, name tables —
    /// shared by handle so a fleet of instances over one spec pays for
    /// compilation once and spawning is O(slots).
    ir: Arc<DeviceIr>,
    /// Flat cache: one raw value per register instance.
    slots: Vec<u64>,
    /// Which flat slots hold a value (a register never accessed has no
    /// cached raw value to compose from).
    slot_valid: Vec<bool>,
    /// Private memory cells.
    mem: Vec<u64>,
    /// Whether debug-mode run-time checks are enabled.
    checks: bool,
    /// Dispatches per dispatch point ([`DeviceIr::points`]).
    hits: Vec<u64>,
}

/// A checkpoint of an instance's mutable state: flat cache slots,
/// memory cells and the hit table. Taking one is O(slots); the
/// shared IR is not copied. Fleet harnesses compare snapshots across
/// shard counts to prove determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceSnapshot {
    slots: Vec<u64>,
    slot_valid: Vec<bool>,
    mem: Vec<u64>,
    hits: Vec<u64>,
}

/// Instances hold only owned state plus an `Arc` of the immutable IR,
/// so a fleet harness can move them into shard worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DeviceInstance>();
    assert_send_sync::<InstanceSnapshot>();
};

impl DeviceInstance {
    /// Creates an instance over lowered IR with checks disabled.
    pub fn new(ir: DeviceIr) -> Self {
        Self::with_shared_ir(Arc::new(ir))
    }

    /// Creates an instance over an already-shared IR handle: the
    /// fleet-spawning path. Compilation cost is paid once per spec; each
    /// further instance allocates only its slot cache and memory cells.
    pub fn with_shared_ir(ir: Arc<DeviceIr>) -> Self {
        DeviceInstance {
            slots: vec![0; ir.cache_slots],
            slot_valid: vec![false; ir.cache_slots],
            mem: vec![0; ir.mem_cells],
            checks: false,
            hits: vec![0; ir.dispatch_points()],
            ir,
        }
    }

    /// A new handle to the shared immutable IR.
    pub fn shared_ir(&self) -> Arc<DeviceIr> {
        Arc::clone(&self.ir)
    }

    /// Captures the mutable state (cache, cells, hits) for later
    /// [`DeviceInstance::restore`] or cross-run comparison.
    pub fn snapshot(&self) -> InstanceSnapshot {
        InstanceSnapshot {
            slots: self.slots.clone(),
            slot_valid: self.slot_valid.clone(),
            mem: self.mem.clone(),
            hits: self.hits.clone(),
        }
    }

    /// Restores state captured by [`DeviceInstance::snapshot`]. The
    /// snapshot must come from an instance of the same IR.
    pub fn restore(&mut self, snap: &InstanceSnapshot) {
        assert_eq!(snap.slots.len(), self.slots.len(), "snapshot from a different IR");
        assert_eq!(snap.mem.len(), self.mem.len(), "snapshot from a different IR");
        assert_eq!(snap.hits.len(), self.hits.len(), "snapshot from a different IR");
        self.slots.copy_from_slice(&snap.slots);
        self.slot_valid.copy_from_slice(&snap.slot_valid);
        self.mem.copy_from_slice(&snap.mem);
        self.hits.copy_from_slice(&snap.hits);
    }

    /// Enables or disables debug-mode run-time checks (the paper's
    /// `DEVIL_DEBUG`). Checked accesses run the same plans: each
    /// variant's written values are validated before its first step
    /// (so a rejected write never reaches the device), and read values
    /// after assembly.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.checks = on;
    }

    /// The underlying IR.
    pub fn ir(&self) -> &DeviceIr {
        &self.ir
    }

    /// Dispatches per dispatch point since construction (or as of the
    /// last [`DeviceInstance::restore`]): entry `p` counts the accesses
    /// that ran point `p`'s plan variant ([`DeviceIr::points`]).
    /// Rejected accesses count nowhere.
    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// The hit table folded by point kind: superplan points count as
    /// `fused`, other plans' points as `straight` when the plan has no
    /// selector and as `guarded` when it has one.
    pub fn plan_stats(&self) -> PlanStats {
        let mut stats = PlanStats::default();
        for (access, plan) in self.ir.accesses() {
            let hits = &self.hits[plan.points()];
            if let AccessRef::Superplan(_) = access {
                stats.fused += hits.iter().sum::<u64>();
                continue;
            }
            let n = hits.iter().sum::<u64>();
            if plan.selector.is_empty() {
                stats.straight += n;
            } else {
                stats.guarded += n;
            }
        }
        stats
    }

    /// The superplan tail of [`DeviceInstance::hits`]: one count per
    /// fused variant, in [`DeviceIr::superplans`] order.
    pub fn superplan_hits(&self) -> &[u64] {
        let first =
            self.ir.superplans().first().map_or(self.hits.len(), |sp| sp.plan.points().start);
        &self.hits[first..]
    }

    /// The flat cache: per-slot raw values and their validity flags.
    /// Verification harnesses (the compiled-stub differential oracle)
    /// compare this against a generated stub's cache struct.
    pub fn cache_snapshot(&self) -> (&[u64], &[bool]) {
        (&self.slots, &self.slot_valid)
    }

    /// The private memory cells, indexed by `VarIr::mem_cell`.
    pub fn mem_snapshot(&self) -> &[u64] {
        &self.mem
    }

    /// Resolves a variable name to its id.
    pub fn var_id(&self, name: &str) -> RtResult<VarId> {
        self.ir.var_id(name).ok_or_else(|| RtError::Unknown(name.into()))
    }

    /// Resolves a structure name to its id.
    pub fn struct_id(&self, name: &str) -> RtResult<StructId> {
        self.ir.struct_id(name).ok_or_else(|| RtError::Unknown(name.into()))
    }

    /// The raw value an enum symbol of `var` maps to.
    pub fn sym_value(&self, var: &str, sym: &str) -> RtResult<u64> {
        let vid = self.var_id(var)?;
        match &self.ir.var(vid).ty {
            TypeSem::Enum(en) => {
                en.value_of(sym).ok_or_else(|| RtError::Unknown(format!("{var}::{sym}")))
            }
            _ => Err(RtError::Unknown(format!("{var}::{sym}"))),
        }
    }

    // ---- public variable access ----

    /// Reads a variable by name.
    pub fn read(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<u64> {
        let vid = self.var_id(name)?;
        self.read_id(dev, vid, &[])
    }

    /// Reads a parameterized variable.
    pub fn read_indexed(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        args: &[u64],
    ) -> RtResult<u64> {
        let vid = self.var_id(name)?;
        self.read_id(dev, vid, args)
    }

    /// Writes a variable by name.
    pub fn write(&mut self, dev: &mut dyn DeviceAccess, name: &str, value: u64) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.write_id(dev, vid, &[], value)
    }

    /// Writes a parameterized variable.
    pub fn write_indexed(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.write_id(dev, vid, args, value)
    }

    /// Writes an enum symbol to a variable.
    pub fn write_sym(&mut self, dev: &mut dyn DeviceAccess, name: &str, sym: &str) -> RtResult<()> {
        let v = self.sym_value(name, sym)?;
        self.write(dev, name, v)
    }

    /// Reads a variable and maps the raw bits to an enum symbol.
    pub fn read_sym(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<String> {
        let vid = self.var_id(name)?;
        let raw = self.read_id(dev, vid, &[])?;
        match &self.ir.var(vid).ty {
            TypeSem::Enum(en) => en
                .sym_for_read(raw)
                .map(str::to_string)
                .ok_or(RtError::BadPattern { var: name.into(), raw }),
            _ => Err(RtError::Unknown(format!("{name} is not enumerated"))),
        }
    }

    /// Reads a variable by id: the variable's read plan (guards select
    /// the variant for conditional serializations), then the value
    /// assembled from flat slots — or the plan's memory cell. Idempotent
    /// variables whose registers are all cached skip the steps.
    pub fn read_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
    ) -> RtResult<u64> {
        validate_args(self.ir.var(vid), args)?;
        self.dispatch(dev, AccessRef::ReadVar(vid), args, 0, &mut SuperIo::none())?;
        let var = self.ir.var(vid);
        let plan = var.read_plan.as_ref().expect("dispatched on the read plan");
        if let Some(cell) = plan.cell {
            return Ok(self.mem[cell]);
        }
        let v = plan
            .assemble
            .iter()
            .fold(0, |v, (slot, seg)| v | seg.extract(self.slots[slot.resolve(args)]));
        checked_read(self.checks, var, v)
    }

    /// Writes a variable by id through its write plan.
    pub fn write_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        validate_args(self.ir.var(vid), args)?;
        self.dispatch(dev, AccessRef::WriteVar(vid), args, value, &mut SuperIo::none())
    }

    // ---- structures ----

    /// Reads a structure: every backing register once, in plan order.
    /// Field values are then available via [`DeviceInstance::get_field`].
    pub fn read_struct(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<()> {
        let sid = self.struct_id(name)?;
        self.read_struct_id(dev, sid)
    }

    /// Reads a structure by id — the Figure 3 hot loop: index writes
    /// and data reads flattened to one straight line; conditional
    /// serializations run the guard-selected variant.
    pub fn read_struct_id(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        self.dispatch(dev, AccessRef::ReadStruct(sid), &[], 0, &mut SuperIo::none())
    }

    /// Gets a structure field from the cache (no device access).
    pub fn get_field(&mut self, name: &str) -> RtResult<u64> {
        let vid = self.var_id(name)?;
        self.get_field_id(vid)
    }

    /// Gets a structure field by id, assembled straight from flat cache
    /// slots (or its memory cell) — no name resolution, no hashing.
    pub fn get_field_id(&mut self, vid: VarId) -> RtResult<u64> {
        let var = self.ir.var(vid);
        if var.parent.is_none() {
            return Err(RtError::NotAField(var.name.clone()));
        }
        let v = match (var.mem_cell, &var.slot_assemble) {
            (Some(cell), _) => self.mem[cell],
            (None, Some(assemble)) => {
                assemble.iter().fold(0, |v, &(slot, seg)| v | seg.extract(self.slots[slot]))
            }
            (None, None) => return Err(RtError::Unplanned(format!("field {}", var.name))),
        };
        checked_read(self.checks, self.ir.var(vid), v)
    }

    /// Gets a signed structure field from the cache.
    pub fn get_field_signed(&mut self, name: &str) -> RtResult<i64> {
        let vid = self.var_id(name)?;
        self.get_field_signed_id(vid)
    }

    /// Gets a signed structure field by id.
    pub fn get_field_signed_id(&mut self, vid: VarId) -> RtResult<i64> {
        let width = self.ir.var(vid).width;
        Ok(sign_extend(self.get_field_id(vid)?, width))
    }

    /// Sets a structure field in the cache (no device access; flushed by
    /// [`DeviceInstance::write_struct`]).
    pub fn set_field(&mut self, name: &str, value: u64) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.set_field_id(vid, value)
    }

    /// Sets a structure field by id: its bits into the flat slots it
    /// assembles from, or its memory cell (masked to the field's width).
    pub fn set_field_id(&mut self, vid: VarId, value: u64) -> RtResult<()> {
        let var = self.ir.var(vid);
        if var.parent.is_none() {
            return Err(RtError::NotAField(var.name.clone()));
        }
        if self.checks && !var.ty.valid_write(value) {
            return Err(RtError::ValueRange { var: var.name.clone(), value });
        }
        match (var.mem_cell, &var.slot_assemble) {
            (Some(cell), _) => self.mem[cell] = value & var.raw_mask(),
            (None, Some(assemble)) => {
                for &(slot, seg) in assemble {
                    let old = if self.slot_valid[slot] { self.slots[slot] } else { 0 };
                    self.slots[slot] = (old & !seg.reg_mask()) | seg.insert(value);
                    self.slot_valid[slot] = true;
                }
            }
            (None, None) => return Err(RtError::Unplanned(format!("field {}", var.name))),
        }
        Ok(())
    }

    /// Writes a structure: composes every backing register from the
    /// cache and writes them in plan order (conditions evaluated against
    /// the cached field values, as in the 8259A initialization).
    pub fn write_struct(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<()> {
        let sid = self.struct_id(name)?;
        self.write_struct_id(dev, sid)
    }

    /// Writes a structure by id: the compiled flush (cache-composed
    /// masked writes plus folded field set-actions), with the entry
    /// guards picking the conditional-serialization variant.
    pub fn write_struct_id(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        self.dispatch(dev, AccessRef::WriteStruct(sid), &[], 0, &mut SuperIo::none())
    }

    // ---- block transfer ----

    /// Block-reads a `block` variable (the paper's `rep`-based stubs).
    pub fn read_block(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        buf: &mut [u64],
    ) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.read_block_id(dev, vid, buf)
    }

    /// Block-reads a `block` variable by id: one vectored transaction.
    pub fn read_block_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        buf: &mut [u64],
    ) -> RtResult<()> {
        let b = self
            .ir
            .block_binding(vid, false)
            .map_err(|why| block_error(&self.ir, vid, false, why))?;
        dev.read_block(b.port as usize, b.offset, b.size, buf);
        Ok(())
    }

    /// Block-writes a `block` variable.
    pub fn write_block(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        buf: &[u64],
    ) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.write_block_id(dev, vid, buf)
    }

    /// Block-writes a `block` variable by id: one vectored transaction.
    pub fn write_block_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        buf: &[u64],
    ) -> RtResult<()> {
        let b = self
            .ir
            .block_binding(vid, true)
            .map_err(|why| block_error(&self.ir, vid, true, why))?;
        dev.write_block(b.port as usize, b.offset, b.size, buf);
        Ok(())
    }

    // ---- superplans ----

    /// Runs a fused superplan: the stage prefix, one selector
    /// evaluation, and the selected variant's contiguous arena range —
    /// replacing the op sequence's N guarded dispatches with one.
    ///
    /// `args` are the superplan operands (at least
    /// [`devil_ir::Superplan::args`] of them), `block_out`/`block_in`
    /// the buffers of its block ops (any length, including empty), and
    /// `outs` receives the fused read ops' values (at least
    /// [`devil_ir::Superplan::outputs`] slots). Short `args` or `outs`
    /// fail with [`RtError::ArityMismatch`] before the device is
    /// touched.
    ///
    /// The fused body issues the identical device-op stream the op
    /// sequence would issue unfused, so ledgers, device state and cache
    /// state are bit-identical either way. With debug checks on, every
    /// written value is validated before the body runs and every read
    /// op's output after it.
    pub fn run_superplan(
        &mut self,
        dev: &mut dyn DeviceAccess,
        sid: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()> {
        superplan_io(&self.ir, sid, args, outs)?;
        let mut io = SuperIo { block_out, block_in, outs };
        self.dispatch(dev, AccessRef::Superplan(sid), args, 0, &mut io)?;
        if self.checks {
            let reads = self.ir.superplans()[sid].ops.iter().filter_map(|op| match op {
                FuseOp::Read { var } => Some(*var),
                _ => None,
            });
            for (vid, &v) in reads.zip(io.outs.iter()) {
                checked_read(self.checks, self.ir.var(vid), v)?;
            }
        }
        Ok(())
    }

    // ---- internals ----

    /// Runs one access through its compiled plan — the single execution
    /// path of every variable, structure and superplan access. Resolves
    /// the plan (or the typed error of an access without one), checks
    /// its depth, runs a superplan's stage prefix, selects the variant,
    /// validates the variant's written values when debug checks are on,
    /// and only then walks its steps: a rejected access never reaches
    /// the device. A variable read whose registers are all cached (and
    /// idempotent) selects but runs no steps, like the reference's
    /// cache-served read.
    #[inline(always)]
    fn dispatch(
        &mut self,
        dev: &mut dyn DeviceAccess,
        access: AccessRef,
        args: &[u64],
        input: u64,
        io: &mut SuperIo<'_>,
    ) -> RtResult<()> {
        let DeviceInstance { ir, slots, slot_valid, mem, checks, hits } = self;
        let Some(plan) = ir.plan(access) else { return Err(no_plan(ir, access)) };
        if plan.max_depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(ir.access_name(access)));
        }
        if let AccessRef::Superplan(i) = access {
            let stage = &ir.superplans()[i].stage;
            if *checks {
                check_writes(ir, stage, args, input)?;
            }
            exec_plan_steps(dev, slots, slot_valid, mem, ir.variant_steps(stage), args, input, io);
        }
        let Some((idx, variant)) = plan.select_variant(slots, slot_valid, mem, input) else {
            return Err(RtError::Unplanned(ir.access_name(access)));
        };
        let cached = match access {
            AccessRef::ReadVar(v) => {
                let b = ir.var(v).behavior;
                !b.volatile
                    && !b.read_trigger
                    && plan.assemble.iter().all(|(s, _)| slot_valid[s.resolve(args)])
            }
            _ => false,
        };
        if !cached {
            if *checks {
                check_writes(ir, variant, args, input)?;
            }
            exec_plan_steps(
                dev,
                slots,
                slot_valid,
                mem,
                ir.variant_steps(variant),
                args,
                input,
                io,
            );
        }
        hits[plan.first_point as usize + idx] += 1;
        Ok(())
    }
}

/// Checks family arguments against a variable's parameter domains.
#[inline]
pub(crate) fn validate_args(var: &VarIr, args: &[u64]) -> RtResult<()> {
    if var.params.len() == args.len() && var.params.iter().zip(args).all(|(p, &a)| p.contains(a)) {
        return Ok(());
    }
    Err(arg_error(var, args))
}

/// The paper's debug read check, when `checks` is on: `v` must be a
/// legal read value of `var`.
#[inline]
pub(crate) fn checked_read(checks: bool, var: &VarIr, v: u64) -> RtResult<u64> {
    if checks && !var.ty.valid_read(v) {
        return Err(RtError::BadPattern { var: var.name.clone(), raw: v });
    }
    Ok(v)
}

/// The error of a block transfer of `vid` that
/// [`DeviceIr::block_binding`] rejects. A register with actions is an
/// unplanned access (lowering records it): the vectored transfer runs
/// no actions.
#[cold]
pub(crate) fn block_error(ir: &DeviceIr, vid: VarId, write: bool, why: BlockIneligible) -> RtError {
    let name = ir.var(vid).name.clone();
    match why {
        BlockIneligible::NotBlock
        | BlockIneligible::Partial
        | BlockIneligible::ParametricOffset => RtError::NotBlock(name),
        BlockIneligible::NoBinding if write => RtError::NotWritable(name),
        BlockIneligible::NoBinding => RtError::NotReadable(name),
        BlockIneligible::Actions(_) => RtError::Unplanned(format!("block {name}")),
    }
}

/// The error of arguments outside a variable's parameter domains.
#[cold]
fn arg_error(var: &VarIr, args: &[u64]) -> RtError {
    if var.params.len() != args.len() {
        return RtError::ArityMismatch {
            var: var.name.clone(),
            expected: var.params.len(),
            got: args.len(),
        };
    }
    let value = var.params.iter().zip(args).find(|(p, &a)| !p.contains(a)).map_or(0, |(_, &a)| a);
    RtError::ArgOutOfRange { var: var.name.clone(), value }
}

/// The superplan `sid`, when `args` and `outs` are long enough for it:
/// the check both engines make before a superplan touches the device.
pub(crate) fn superplan_io<'ir>(
    ir: &'ir DeviceIr,
    sid: usize,
    args: &[u64],
    outs: &[u64],
) -> RtResult<&'ir Superplan> {
    let Some(sp) = ir.superplans().get(sid) else {
        return Err(RtError::Unknown(format!("superplan #{sid}")));
    };
    let (expected, got, what) = if args.len() < sp.args {
        (sp.args, args.len(), "")
    } else if outs.len() < sp.outputs {
        (sp.outputs, outs.len(), " outputs")
    } else {
        return Ok(sp);
    };
    let var = ir.access_name(AccessRef::Superplan(sid)) + what;
    Err(RtError::ArityMismatch { var, expected, got })
}

/// The error of an access without a plan: a direction error when the
/// access cannot exist, else [`RtError::Unplanned`].
fn no_plan(ir: &DeviceIr, access: AccessRef) -> RtError {
    match access {
        AccessRef::ReadVar(v) if !ir.var(v).readable => {
            RtError::NotReadable(ir.var(v).name.clone())
        }
        AccessRef::WriteVar(v) if !ir.var(v).writable => {
            RtError::NotWritable(ir.var(v).name.clone())
        }
        AccessRef::ReadStruct(s) if !ir.struct_supports(s, false) => {
            RtError::NotReadable(ir.strct(s).name.clone())
        }
        AccessRef::WriteStruct(s) if !ir.struct_supports(s, true) => {
            RtError::NotWritable(ir.strct(s).name.clone())
        }
        _ => RtError::Unplanned(ir.access_name(access)),
    }
}

/// The paper's debug-mode write check over one variant: every value it
/// writes must lie in its variable's type. Runs before any step.
fn check_writes(ir: &DeviceIr, variant: &PlanVariant, args: &[u64], input: u64) -> RtResult<()> {
    for &(vid, value) in &variant.checks {
        let value = value.resolve(args, input);
        let var = ir.var(vid);
        if !var.ty.valid_write(value) {
            return Err(RtError::ValueRange { var: var.name.clone(), value });
        }
    }
    Ok(())
}

/// The vectored-I/O surface of one superplan dispatch: the caller's
/// block buffers and output vector. Plain plan executions pass empty
/// buffers — their steps never touch them.
struct SuperIo<'a> {
    /// Words for the (at most one) fused block write.
    block_out: &'a [u64],
    /// Buffer for the (at most one) fused block read.
    block_in: &'a mut [u64],
    /// Fused read-op outputs, in op order.
    outs: &'a mut [u64],
}

impl SuperIo<'_> {
    /// An empty I/O surface for non-superplan plan executions.
    fn none() -> Self {
        SuperIo { block_out: &[], block_in: &mut [], outs: &mut [] }
    }
}

/// Executes a precompiled straight-line plan: device reads into flat
/// cache slots, composed masked writes, folded memory-cell updates, and
/// (for fused superplans) vectored block transfers and in-place output
/// assembly. `args` are the (already validated) family arguments — for
/// superplans, the operand vector — and `input` the value being
/// written, if any. This is the whole hot path: mask/shift arithmetic
/// and slot indexing only — no hashing, no name resolution, no action
/// interpretation.
#[allow(clippy::too_many_arguments)]
fn exec_plan_steps(
    dev: &mut dyn DeviceAccess,
    slots: &mut [u64],
    slot_valid: &mut [bool],
    mem: &mut [u64],
    steps: &[PlanStep],
    args: &[u64],
    input: u64,
    io: &mut SuperIo<'_>,
) {
    for step in steps {
        match step {
            PlanStep::Read(a) => {
                let raw = dev.read(a.port as usize, a.offset.resolve(args), a.size);
                let slot = a.slot.resolve(args);
                slots[slot] = raw;
                slot_valid[slot] = true;
            }
            PlanStep::Write { access: a, compose, out_and, out_or } => {
                let slot = a.slot.resolve(args);
                let cached = if slot_valid[slot] { slots[slot] } else { 0 };
                let raw = compose.apply(cached, args, input);
                dev.write(
                    a.port as usize,
                    a.offset.resolve(args),
                    a.size,
                    (raw & out_and) | out_or,
                );
                slots[slot] = raw;
                slot_valid[slot] = true;
            }
            PlanStep::Store(slot, compose) => {
                let slot = slot.resolve(args);
                let cached = if slot_valid[slot] { slots[slot] } else { 0 };
                slots[slot] = compose.apply(cached, args, input);
                slot_valid[slot] = true;
            }
            PlanStep::SetCell { cell, value, mask } => {
                mem[*cell] = value.resolve(args, input) & mask;
            }
            PlanStep::BlockIn { port, offset, size } => {
                dev.read_block(*port as usize, *offset, *size, io.block_in);
            }
            PlanStep::BlockOut { port, offset, size } => {
                dev.write_block(*port as usize, *offset, *size, io.block_out);
            }
            PlanStep::Assemble { out, segs } => {
                let mut v = 0u64;
                for &(slot, seg) in segs {
                    v |= seg.extract(slots[slot]);
                }
                io.outs[*out as usize] = v;
            }
        }
    }
}

/// Sign-extends the low `width` bits of `raw` to an `i64`.
pub fn sign_extend(raw: u64, width: u32) -> i64 {
    if width == 0 || width >= 64 {
        return raw as i64;
    }
    let shift = 64 - width;
    ((raw << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::FakeAccess;
    use crate::reference::ReferenceInstance;

    fn instance(src: &str) -> DeviceInstance {
        let model = devil_sema::check_source(src, &[]).expect("spec checks");
        DeviceInstance::new(devil_ir::lower(&model))
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xfd, 8), -3);
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(0b10, 2), -2);
        assert_eq!(sign_extend(5, 64), 5);
    }

    #[test]
    fn simple_read_write_round_trip() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 0xa5).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xa5);
        assert_eq!(d.read(&mut dev, "v").unwrap(), 0xa5);
        // Idempotent: the read was served from cache — only 1 op (the
        // write).
        assert_eq!(dev.ops(), 1);
    }

    #[test]
    fn volatile_variables_always_hit_the_device() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = read base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 1);
        assert_eq!(d.read(&mut dev, "v").unwrap(), 1);
        dev.preset(0, 0, 2);
        assert_eq!(d.read(&mut dev, "v").unwrap(), 2);
        assert_eq!(dev.ops(), 2);
    }

    #[test]
    fn masked_write_forces_bits() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cr = write base @ 0, mask '1001000*' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
               }"#,
        );
        let mut dev = FakeAccess::new();
        let v = d.sym_value("config", "CONFIGURATION").unwrap();
        d.write(&mut dev, "config", v).unwrap();
        // 0b1001_0000 forced | bit0 = 1.
        assert_eq!(dev.regs[&(0, 0)], 0b1001_0001);
        d.write_sym(&mut dev, "config", "DEFAULT_MODE").unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0b1001_0000);
    }

    #[test]
    fn shared_register_preserves_sibling_bits() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable lo = r[3..0] : int(4);
                 variable hi = r[7..4] : int(4);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "lo", 0x5).unwrap();
        d.write(&mut dev, "hi", 0xa).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xa5);
        // Writing lo again must keep hi.
        d.write(&mut dev, "lo", 0x1).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xa1);
    }

    #[test]
    fn trigger_neighbours_get_neutral_values() {
        // NE2000-style: st triggers unless NEUTRAL(=0b11 here to make it
        // visible); page is idempotent.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL <=> '11', START <=> '01', STOP <=> '10', NOP <=> '00' };
                 variable page = cmd[7..2] : int(6);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "st", 0b01).unwrap();
        assert_eq!(dev.regs[&(0, 0)] & 0b11, 0b01);
        // Writing page must write NEUTRAL (0b11) into st's bits, not the
        // cached 0b01, to avoid re-triggering.
        d.write(&mut dev, "page", 0b101010).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0b1010_1011);
        // st's own next write still works.
        d.write(&mut dev, "st", 0b10).unwrap();
        assert_eq!(dev.regs[&(0, 0)] & 0b11, 0b10);
        // ...and preserves page's cached value.
        assert_eq!(dev.regs[&(0, 0)] >> 2, 0b101010);
    }

    #[test]
    fn trigger_for_uses_opposite_as_neutral() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable go = r[0], write trigger for true : bool;
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "go", 1).unwrap();
        assert_eq!(dev.regs[&(0, 0)] & 1, 1);
        // Writing rest must set go to false (the non-triggering value).
        d.write(&mut dev, "rest", 0x7f).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xfe);
    }

    #[test]
    fn pre_actions_write_index_variable() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0, 2}) {
                 register index_reg = write base @ 2, mask '1**00000' : bit[8];
                 private variable index = index_reg[6..5] : int(2);
                 register x_low = read base @ 0, pre {index = 0}, mask '....****' : bit[8];
                 register x_high = read base @ 0, pre {index = 1}, mask '....****' : bit[8];
                 variable xv = x_high[3..0] # x_low[3..0], volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0x0c); // data port reads 0xc (low nibble)
        let v = d.read(&mut dev, "xv").unwrap();
        assert_eq!(v, 0xcc, "both nibbles read 0xc from the shared port");
        // Op sequence: write index=1 (0xa0|0x20), read, write index=0
        // (0x80), read — x_high is the MSB chunk so it is read first by
        // default order.
        let writes: Vec<u64> =
            dev.log.iter().filter(|(w, _, o, _)| *w && *o == 2).map(|&(_, _, _, v)| v).collect();
        assert_eq!(writes, vec![0b1010_0000, 0b1000_0000]);
        assert_eq!(dev.ops(), 4);
    }

    #[test]
    fn structure_read_reads_each_register_once() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = read base @ 0 : bit[8];
                 structure s = {
                   variable lo = r[3..0], volatile : int(4);
                   variable hi = r[7..4], volatile : int(4);
                 };
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0xc3);
        d.read_struct(&mut dev, "s").unwrap();
        assert_eq!(dev.ops(), 1, "shared register read once");
        assert_eq!(d.get_field("lo").unwrap(), 0x3);
        assert_eq!(d.get_field("hi").unwrap(), 0xc);
        assert_eq!(dev.ops(), 1, "field getters hit the cache");
    }

    #[test]
    fn serialized_structure_write_with_conditions() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register icw1 = write base @ 0 : bit[8];
                 register icw2 = write base @ 1 : bit[8];
                 register icw3 = write base @ 1 : bit[8];
                 structure init = {
                   variable sngl = icw1[0] : { SINGLE => '1', CASCADED => '0' };
                   variable rest1 = icw1[7..1] : int(7);
                   variable v2 = icw2 : int(8);
                   variable v3 = icw3 : int(8);
                 } serialized as { icw1; icw2; if (sngl == CASCADED) icw3; };
               }"#,
        );
        let mut dev = FakeAccess::new();
        // SINGLE mode: icw3 skipped.
        let single = d.sym_value("sngl", "SINGLE").unwrap();
        d.set_field("sngl", single).unwrap();
        d.set_field("rest1", 0x08).unwrap();
        d.set_field("v2", 0x20).unwrap();
        d.set_field("v3", 0x99).unwrap();
        d.write_struct(&mut dev, "init").unwrap();
        assert_eq!(dev.ops(), 2, "icw3 must be skipped in SINGLE mode");
        // CASCADED mode: icw3 written.
        let cascaded = d.sym_value("sngl", "CASCADED").unwrap();
        d.set_field("sngl", cascaded).unwrap();
        d.write_struct(&mut dev, "init").unwrap();
        assert_eq!(dev.ops(), 5);
        assert_eq!(dev.regs[&(0, 1)], 0x99, "icw3 flushed last at base@1");
    }

    #[test]
    fn private_struct_fields_round_trip_through_their_cell() {
        // Regression: with plans enabled, a private (memory-cell)
        // structure field's getter used to take the slot-assemble fast
        // path and return 0 instead of the cell value.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0, set {pm = true} : bit[8];
                 structure s = {
                   private variable pm : bool;
                   variable fa = a : int(8);
                 };
               }"#,
        );
        d.set_field("pm", 1).unwrap();
        assert_eq!(d.get_field("pm").unwrap(), 1, "cell value must survive the fast path");
        // The register's set-action also lands in the cell.
        let mut dev = FakeAccess::new();
        d.set_field("pm", 0).unwrap();
        d.read_struct(&mut dev, "s").unwrap();
        assert_eq!(d.get_field("pm").unwrap(), 1, "set-action writes the cell");
    }

    #[test]
    fn memory_variable_and_set_actions() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "xm", 1).unwrap();
        assert_eq!(d.read(&mut dev, "xm").unwrap(), 1);
        assert_eq!(dev.ops(), 0, "memory variables never touch the bus");
        // Accessing `control` (via IA) clears xm.
        d.write(&mut dev, "IA", 5).unwrap();
        assert_eq!(d.read(&mut dev, "xm").unwrap(), 0);
    }

    #[test]
    fn debug_checks_reject_bad_values() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '...*****' : bit[8];
                 variable v = r[4..0] : int{0..17,25};
               }"#,
        );
        d.set_debug_checks(true);
        let mut dev = FakeAccess::new();
        assert_eq!(
            d.write(&mut dev, "v", 20),
            Err(RtError::ValueRange { var: "v".into(), value: 20 })
        );
        d.write(&mut dev, "v", 25).unwrap();
        // A device returning 19 (not in the set) fails the read check.
        dev.preset(0, 0, 19);
        // Invalidate cache by using a volatile-free path: write cached 25
        // means read is served from cache, so force device read through a
        // fresh instance.
        let mut d2 = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '...*****' : bit[8];
                 variable v = r[4..0], volatile : int{0..17,25};
               }"#,
        );
        d2.set_debug_checks(true);
        let err = d2.read(&mut dev, "v").unwrap_err();
        assert_eq!(err, RtError::BadPattern { var: "v".into(), raw: 19 });
    }

    #[test]
    fn checks_disabled_by_default() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        // 0x1ff exceeds 8 bits but checks are off; low bits are written.
        d.write(&mut dev, "v", 0x1ff).unwrap();
    }

    #[test]
    fn serialized_variable_reads_low_then_high() {
        let mut d = instance(
            r#"device d (data : bit[8] port @ {0..0}, ctl : bit[8] port @ {1..1}) {
                 register ff = write ctl @ 1, mask '0000000*' : bit[8];
                 private variable flip_flop = ff[0] : bool;
                 register cnt_low = data @ 0, pre {flip_flop = *} : bit[8];
                 register cnt_high = data @ 0 : bit[8];
                 variable x = cnt_high # cnt_low : int(16) serialized as {cnt_low; cnt_high;};
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0x34);
        let v = d.read(&mut dev, "x").unwrap();
        assert_eq!(v, 0x3434);
        // Order: flip-flop strobe (write port1), then two data reads.
        assert!(dev.log[0].0, "flip-flop write first");
        assert_eq!(dev.log[0].1, 1, "on the ctl port");
        // cnt_low and cnt_high reads both hit data@0; pre-action only on
        // cnt_low. Total: 1 write + 2 reads per... cnt_high has no pre.
        // But x is not volatile so a second read comes from cache.
        let ops_first = dev.ops();
        assert_eq!(ops_first, 3);
        let v2 = d.read(&mut dev, "x").unwrap();
        assert_eq!(v2, 0x3434);
        assert_eq!(dev.ops(), ops_first, "idempotent variable cached");
    }

    #[test]
    fn family_variable_indexes_registers() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable v(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 2, 0x22);
        dev.preset(0, 3, 0x33);
        assert_eq!(d.read_indexed(&mut dev, "v", &[2]).unwrap(), 0x22);
        assert_eq!(d.read_indexed(&mut dev, "v", &[3]).unwrap(), 0x33);
        assert_eq!(
            d.read_indexed(&mut dev, "v", &[7]).unwrap_err(),
            RtError::ArgOutOfRange { var: "v".into(), value: 7 }
        );
        assert_eq!(
            d.read(&mut dev, "v").unwrap_err(),
            RtError::ArityMismatch { var: "v".into(), expected: 1, got: 0 }
        );
    }

    #[test]
    fn indexed_pre_action_with_param() {
        // CS4236B-style: register family addressed through an index
        // variable written by a parameterized pre-action.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0, mask '...*****' : bit[8];
                 variable IA = control[4..0] : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 variable ID(i : int{0..31}) = I(i), volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 1, 0x42);
        assert_eq!(d.read_indexed(&mut dev, "ID", &[7]).unwrap(), 0x42);
        // The pre-action wrote 7 to control (base@0).
        assert_eq!(dev.regs[&(0, 0)], 7);
        assert_eq!(d.read_indexed(&mut dev, "ID", &[25]).unwrap(), 0x42);
        assert_eq!(dev.regs[&(0, 0)], 25);
    }

    #[test]
    fn struct_valued_pre_action_flushes_structure() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register idx = write base @ 0, mask '000***0*' : bit[8];
                 structure XS = {
                   variable XA = idx[4..2] : int(3);
                   variable XRAE = idx[0], write trigger for true : bool;
                 };
                 register data = base @ 1, pre {XS = {XA => 5; XRAE => true}} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 1, 0x77);
        assert_eq!(d.read(&mut dev, "payload").unwrap(), 0x77);
        // idx got XA=5 (bits 4..2) and XRAE=1 (bit 0).
        assert_eq!(dev.regs[&(0, 0)], 0b0001_0101);
    }

    #[test]
    fn block_transfer_round_trip() {
        let mut d = instance(
            r#"device d (data : bit[16] port @ {0..0}) {
                 register dr = data @ 0 : bit[16];
                 variable ide_data = dr, volatile, block : int(16);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0xbeef);
        let mut buf = [0u64; 8];
        d.read_block(&mut dev, "ide_data", &mut buf).unwrap();
        assert_eq!(buf, [0xbeef; 8]);
        d.write_block(&mut dev, "ide_data", &[1, 2, 3]).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 3);
    }

    /// Block eligibility, one row per way a variable can fail it: the
    /// plan executor's typed error, the reference interpreter's verdict
    /// (it runs register actions, so only the action row differs), and
    /// `fuse`'s error for a block op on the same variable.
    #[test]
    fn block_eligibility_table() {
        const SRC: &str = r#"device d (data : bit[16] port @ {0..3}, idx : bit[8] port @ {0..0}) {
                 register ir = write idx @ 0 : bit[8];
                 private variable index = ir : int(8);
                 register r0 = data @ 0 : bit[16];
                 variable plain = r0, volatile : int(16);
                 register r1 = data @ 1 : bit[16];
                 variable low = r1[7..0], volatile, block : int(8);
                 variable high = r1[15..8], volatile : int(8);
                 register r2 = write data @ 2 : bit[16];
                 variable wo = r2, block : int(16);
                 register r3 = data @ 3, pre {index = 7} : bit[16];
                 variable act = r3, volatile, block : int(16);
               }"#;
        let table: [(&str, RtError, Result<(), RtError>, &str); 4] = [
            (
                "plain",
                RtError::NotBlock("plain".into()),
                Err(RtError::NotBlock("plain".into())),
                "superplan sp op 0: plain is not a block variable",
            ),
            (
                "low",
                RtError::NotBlock("low".into()),
                Err(RtError::NotBlock("low".into())),
                "superplan sp op 0: low does not cover its register",
            ),
            (
                "wo",
                RtError::NotReadable("wo".into()),
                Err(RtError::NotReadable("wo".into())),
                "superplan sp op 0: wo is not readable",
            ),
            (
                "act",
                RtError::Unplanned("block act".into()),
                Ok(()),
                "superplan sp op 0: r3's register has actions",
            ),
        ];
        for (name, plan_err, reference_result, fuse_err) in table {
            let mut d = instance(SRC);
            let mut dev = FakeAccess::new();
            let mut buf = [0u64; 2];
            assert_eq!(d.read_block(&mut dev, name, &mut buf), Err(plan_err), "{name}");
            assert_eq!(dev.ops(), 0, "{name}: a rejected block access touches no port");

            let mut r = reference(SRC);
            let vid = r.ir().var_id(name).unwrap();
            let mut dev = FakeAccess::new();
            assert_eq!(r.read_block_id(&mut dev, vid, &mut buf), reference_result, "{name}");
            if reference_result.is_ok() {
                let log = [(true, 1, 0, 7), (false, 0, 3, 0), (false, 0, 3, 0)];
                assert_eq!(dev.log, log, "{name}: the pre-action runs, then the block");
            }

            let mut ir = d.ir().clone();
            let var = ir.var_id(name).unwrap();
            assert_eq!(ir.fuse("sp", vec![FuseOp::ReadBlock { var }]), Err(fuse_err.into()));
        }
    }

    #[test]
    fn direction_errors() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register ro = read base @ 0 : bit[8];
                 register wo = write base @ 1 : bit[8];
                 variable vr = ro, volatile : int(8);
                 variable vw = wo : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        assert_eq!(d.write(&mut dev, "vr", 0), Err(RtError::NotWritable("vr".into())));
        assert_eq!(d.read(&mut dev, "vw"), Err(RtError::NotReadable("vw".into())));
        assert!(matches!(d.read(&mut dev, "ghost"), Err(RtError::Unknown(_))));
        assert_eq!(dev.ops(), 0, "direction errors precede any device access");
    }

    /// The name-level surface the agreement tests drive on both engines.
    trait Named {
        fn w(&mut self, dev: &mut FakeAccess, name: &str, v: u64);
        fn r(&mut self, dev: &mut FakeAccess, name: &str) -> u64;
    }

    impl Named for DeviceInstance {
        fn w(&mut self, dev: &mut FakeAccess, name: &str, v: u64) {
            self.write(dev, name, v).unwrap();
        }
        fn r(&mut self, dev: &mut FakeAccess, name: &str) -> u64 {
            self.read(dev, name).unwrap()
        }
    }

    impl Named for ReferenceInstance {
        fn w(&mut self, dev: &mut FakeAccess, name: &str, v: u64) {
            let vid = self.ir().var_id(name).unwrap();
            self.write_id(dev, vid, &[], v).unwrap();
        }
        fn r(&mut self, dev: &mut FakeAccess, name: &str) -> u64 {
            let vid = self.ir().var_id(name).unwrap();
            self.read_id(dev, vid, &[]).unwrap()
        }
    }

    fn reference(src: &str) -> ReferenceInstance {
        let model = devil_sema::check_source(src, &[]).expect("spec checks");
        ReferenceInstance::new(devil_ir::lower(&model))
    }

    /// Drives the same access sequence through the plans and the
    /// reference interpreter; both must produce identical device
    /// interaction logs and results.
    fn assert_paths_agree(src: &str, drive: impl Fn(&mut dyn Named, &mut FakeAccess)) {
        let mut fast = instance(src);
        let mut fast_dev = FakeAccess::new();
        drive(&mut fast, &mut fast_dev);

        let mut slow = reference(src);
        let mut slow_dev = FakeAccess::new();
        drive(&mut slow, &mut slow_dev);

        assert_eq!(fast_dev.log, slow_dev.log, "device op logs diverge");
        assert_eq!(fast_dev.regs, slow_dev.regs, "device state diverges");
    }

    #[test]
    fn plan_path_matches_interpreter_on_masked_writes() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cr = write base @ 0, mask '1001000*' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
               }"#,
            |d, dev| {
                d.w(dev, "config", 1);
                d.w(dev, "config", 0);
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_shared_registers() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable lo = r[3..0] : int(4);
                 variable hi = r[7..4] : int(4);
               }"#,
            |d, dev| {
                d.w(dev, "lo", 0x5);
                d.w(dev, "hi", 0xa);
                assert_eq!(d.r(dev, "lo"), 0x5);
                d.w(dev, "lo", 0x1);
                assert_eq!(d.r(dev, "hi"), 0xa);
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_triggers() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL <=> '11', START <=> '01', STOP <=> '10', NOP <=> '00' };
                 variable page = cmd[7..2] : int(6);
               }"#,
            |d, dev| {
                d.w(dev, "st", 0b01);
                d.w(dev, "page", 0b101010);
                d.w(dev, "st", 0b10);
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_concatenations() {
        assert_paths_agree(
            r#"device d (a : bit[8] port @ {0..1}) {
                 register rl = a @ 0 : bit[8];
                 register rh = a @ 1 : bit[8];
                 variable w = rh # rl : int(16);
               }"#,
            |d, dev| {
                dev.preset(0, 0, 0x34);
                dev.preset(0, 1, 0x12);
                assert_eq!(d.r(dev, "w"), 0x1234);
                d.w(dev, "w", 0xbeef);
                assert_eq!(d.r(dev, "w"), 0xbeef);
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_volatile_reads() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = read base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
            |d, dev| {
                dev.preset(0, 0, 1);
                assert_eq!(d.r(dev, "v"), 1);
                dev.preset(0, 0, 2);
                assert_eq!(d.r(dev, "v"), 2);
            },
        );
    }

    #[test]
    fn fast_path_serves_idempotent_reads_from_slots() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        // Plans must exist for this trivially simple variable.
        let vid = d.var_id("v").unwrap();
        assert!(d.ir().var(vid).read_plan.is_some());
        assert!(d.ir().var(vid).write_plan.is_some());
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 0xa5).unwrap();
        assert_eq!(d.read(&mut dev, "v").unwrap(), 0xa5);
        assert_eq!(dev.ops(), 1, "read served from the flat slot");
    }

    #[test]
    fn deep_action_chains_hit_the_recursion_limit_in_both_modes() {
        // A set-action chain long enough that the reference reports
        // RecursionLimit. Lowering hits the same limit, records the
        // access as unplanned, and the plan path rejects it before any
        // device access; mid-chain variables still compile plans.
        let n = 30u32;
        let mut decls = String::new();
        for i in 0..n {
            let set = if i + 1 < n { format!(", set {{v{} = 1}}", i + 1) } else { String::new() };
            decls.push_str(&format!(
                "register r{i} = base @ {i}{set} : bit[8];\nvariable v{i} = r{i} : int(8);\n"
            ));
        }
        let src = format!("device d (base : bit[8] port @ {{0..{}}}) {{\n{decls}}}", n - 1);
        let mut fast = instance(&src);
        let mut fast_dev = FakeAccess::new();
        assert_eq!(fast.write(&mut fast_dev, "v0", 1), Err(RtError::Unplanned("write v0".into())));
        assert_eq!(fast_dev.ops(), 0, "an unplanned access never reaches the device");
        let fb = fast.ir().plan_fallbacks().iter().find(|f| f.access == "write v0").unwrap();
        assert!(fb.cause.contains("depth"), "{fb:?}");
        let mut slow = reference(&src);
        let mut slow_dev = FakeAccess::new();
        let v0 = slow.ir().var_id("v0").unwrap();
        let slow_res = slow.write_id(&mut slow_dev, v0, &[], 1);
        assert!(matches!(slow_res, Err(RtError::RecursionLimit(_))), "{slow_res:?}");
        // A var near the tail writes fine from depth 0 in both modes.
        let (mut fast_dev, mut slow_dev) = (FakeAccess::new(), FakeAccess::new());
        fast.write(&mut fast_dev, "v25", 1).unwrap();
        slow.w(&mut slow_dev, "v25", 1);
        assert_eq!(fast_dev.log, slow_dev.log);
    }

    #[test]
    fn over_depth_plans_are_rejected_before_the_device() {
        let src = r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#;
        let mut ir = devil_ir::lower(&devil_sema::check_source(src, &[]).unwrap());
        let vid = ir.var_id("v").unwrap();
        let plan = ir.vars[vid.0 as usize].write_plan.as_deref().unwrap().clone();
        ir.vars[vid.0 as usize].write_plan =
            Some(Arc::new(devil_ir::AccessPlan { max_depth: MAX_DEPTH + 1, ..plan }));
        let mut d = DeviceInstance::new(ir);
        let mut dev = FakeAccess::new();
        assert_eq!(d.write(&mut dev, "v", 1), Err(RtError::RecursionLimit("write v".into())));
        assert_eq!(dev.ops(), 0);
    }

    #[test]
    fn failed_debug_checks_issue_no_bus_op() {
        // The index pre-action writes `ia` from the family argument; 20
        // is in `i`'s domain but outside `ia`'s type, so checked mode
        // rejects the nested write before the index strobe.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0, mask '000*****' : bit[8];
                 variable ia = control[4..0] : int{0..15};
                 register ireg(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];
                 variable idata(i : int{0..31}) = ireg(i), volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.set_debug_checks(true);
        assert_eq!(
            d.read_indexed(&mut dev, "idata", &[20]),
            Err(RtError::ValueRange { var: "ia".into(), value: 20 })
        );
        assert_eq!(
            d.write(&mut dev, "ia", 16),
            Err(RtError::ValueRange { var: "ia".into(), value: 16 })
        );
        assert_eq!(dev.ops(), 0, "rejected writes never reach the device");
        d.read_indexed(&mut dev, "idata", &[7]).unwrap();
        assert_eq!(dev.ops(), 2, "in-type values run the plan");
        // Unchecked, the same access runs its plan.
        d.set_debug_checks(false);
        d.read_indexed(&mut dev, "idata", &[20]).unwrap();
        assert_eq!(d.plan_stats().general, 0);
    }

    #[test]
    fn read_sym_maps_patterns() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable mode = r[0], volatile : { FAST <=> '1', SLOW <=> '0' };
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 1);
        assert_eq!(d.read_sym(&mut dev, "mode").unwrap(), "FAST");
        dev.preset(0, 0, 0);
        assert_eq!(d.read_sym(&mut dev, "mode").unwrap(), "SLOW");
    }

    #[test]
    fn shared_ir_spawns_independent_instances() {
        let first = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let ir = first.shared_ir();
        let mut a = DeviceInstance::with_shared_ir(Arc::clone(&ir));
        let mut b = DeviceInstance::with_shared_ir(ir);
        let mut dev_a = FakeAccess::new();
        let mut dev_b = FakeAccess::new();
        a.write(&mut dev_a, "v", 0x11).unwrap();
        b.write(&mut dev_b, "v", 0x22).unwrap();
        // Cache state is per instance; the IR is one shared allocation.
        assert_eq!(a.read(&mut dev_a, "v").unwrap(), 0x11);
        assert_eq!(b.read(&mut dev_b, "v").unwrap(), 0x22);
        assert!(Arc::ptr_eq(&a.shared_ir(), &b.shared_ir()));
    }

    #[test]
    fn snapshot_restore_round_trips_mutable_state() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, set {p = 1} : bit[8];
                 variable v = r : int(8);
                 private variable p : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 0x5a).unwrap();
        d.write(&mut dev, "p", 0x3).unwrap();
        let snap = d.snapshot();
        d.write(&mut dev, "v", 0x99).unwrap();
        d.write(&mut dev, "p", 0x7).unwrap();
        assert_ne!(d.snapshot(), snap);
        d.restore(&snap);
        assert_eq!(d.snapshot(), snap);
        // Restored cache serves the old value without touching the bus.
        let ops = dev.ops();
        assert_eq!(d.read(&mut dev, "v").unwrap(), 0x5a);
        assert_eq!(d.read(&mut dev, "p").unwrap(), 0x3);
        assert_eq!(dev.ops(), ops);
    }

    #[test]
    fn plan_stats_delta_arithmetic() {
        let a = PlanStats { straight: 5, guarded: 3, general: 2, fused: 1 };
        let b = PlanStats { straight: 9, guarded: 3, general: 4, fused: 6 };
        assert_eq!(b.delta(a), PlanStats { straight: 4, guarded: 0, general: 2, fused: 5 });
        assert_eq!(b - a, b.delta(a));
        assert_eq!(a + b.delta(a), b);
        assert_eq!(b.total(), 22);
        assert_eq!(b.delta(b), PlanStats::default());
    }

    #[test]
    #[should_panic(expected = "delta underflow")]
    fn plan_stats_delta_rejects_epoch_mismatch() {
        let a = PlanStats { straight: 5, ..PlanStats::default() };
        let _ = PlanStats::default().delta(a);
    }

    #[test]
    fn plan_stats_no_drift_across_snapshot_restore() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 1).unwrap();
        d.read(&mut dev, "v").unwrap();
        let snap = d.snapshot();
        let at_snap = d.plan_stats();
        d.read(&mut dev, "v").unwrap();
        d.read(&mut dev, "v").unwrap();
        let after = d.plan_stats();
        assert_eq!(after.delta(at_snap).total(), 2);
        // Restore rewinds the counters to exactly the snapshot's epoch:
        // deltas taken across restore boundaries stay drift-free.
        d.restore(&snap);
        assert_eq!(d.plan_stats(), at_snap);
        d.read(&mut dev, "v").unwrap();
        assert_eq!(d.plan_stats().delta(at_snap).total(), 1);
    }

    #[test]
    fn plan_stats_fused_degradation_keeps_delta_consistent() {
        // A write plan with a pre-action (index write folded into the
        // straight line): one dispatch per access, whatever the mode —
        // checked mode runs the same plan and counts it the same way.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register r = base @ 0, pre {idx = 1} : bit[8];
                 register x = base @ 1 : bit[8];
                 variable idx = x : int(8);
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        let before = d.plan_stats();
        d.write(&mut dev, "v", 0x11).unwrap();
        d.set_debug_checks(true);
        d.write(&mut dev, "v", 0x22).unwrap();
        let delta = d.plan_stats().delta(before);
        assert_eq!(delta, PlanStats { straight: 2, ..PlanStats::default() });
        assert_eq!(dev.ops(), 4, "two index strobes, two data writes");
    }

    #[test]
    fn hits_count_variants_and_skip_rejected_accesses() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        let vid = d.var_id("v").unwrap();
        let (read, write) =
            (d.ir().points(AccessRef::ReadVar(vid)), d.ir().points(AccessRef::WriteVar(vid)));
        assert_eq!((read.clone(), write.clone()), (0..1, 1..2), "one point per variant, in order");
        assert_eq!(d.hits(), [0, 0]);
        d.write(&mut dev, "v", 7).unwrap();
        d.read(&mut dev, "v").unwrap();
        // A rejected access dispatches nothing, so it counts nothing.
        assert!(d.read_indexed(&mut dev, "v", &[1]).is_err());
        d.set_debug_checks(true);
        d.read(&mut dev, "v").unwrap();
        assert_eq!(d.hits(), [2, 1]);
        assert_eq!(d.plan_stats(), PlanStats { straight: 3, ..PlanStats::default() });
        assert!(d.superplan_hits().is_empty());
        // The hit table is state: snapshots carry it, restore rewinds it.
        let snap = d.snapshot();
        d.read(&mut dev, "v").unwrap();
        assert_eq!(d.hits()[read.start], 3);
        d.restore(&snap);
        assert_eq!(d.hits(), [2, 1]);
    }
}
