//! Plan steps and plans: the compiled form of every access, and the
//! one definition of what each step means.

use crate::{RegIr, VarIr};
use devil_sema::model::{Offset, RegId, VarId};

/// A value available to a plan step at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanValue {
    /// The value being written by the access (the stub's argument).
    Input,
    /// A constant folded at lowering time.
    Const(u64),
    /// The caller's family argument `args[i]`.
    Arg(usize),
}

impl PlanValue {
    /// Resolves the value against the call's arguments and input.
    #[inline]
    pub fn resolve(self, args: &[u64], input: u64) -> u64 {
        match self {
            PlanValue::Input => input,
            PlanValue::Const(c) => c,
            PlanValue::Arg(i) => args[i],
        }
    }

    /// The value with `Input` replaced by a fused op's operand; an
    /// error when the op has no operand to substitute.
    pub fn subst_input(self, operand: Option<PlanValue>) -> Result<PlanValue, String> {
        match self {
            PlanValue::Input => {
                operand.ok_or_else(|| "reads an input this op does not have".into())
            }
            other => Ok(other),
        }
    }
}

/// The mask of the low `width` bits: a `width`-bit register's,
/// variable's or segment's raw-value space.
#[inline]
pub fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The per-dimension values of the mixed-radix variant index `idx`
/// over `dims`, first dimension most significant: the inverse of
/// [`AccessPlan::select_variant`]'s index accumulation.
pub fn decompose(dims: &[SelectorDim], mut idx: usize) -> Vec<u64> {
    let mut values = vec![0u64; dims.len()];
    for (v, dim) in values.iter_mut().zip(dims).rev() {
        *v = (idx % dim.radix) as u64;
        idx /= dim.radix;
    }
    values
}

/// A plan step's port offset.
#[derive(Clone, Copy, Debug)]
pub enum PlanOffset {
    /// A constant offset.
    Const(u64),
    /// The caller's family argument `args[i]`.
    Arg(usize),
}

impl PlanOffset {
    /// Resolves the offset against the call's arguments.
    #[inline]
    pub fn resolve(self, args: &[u64]) -> u64 {
        match self {
            PlanOffset::Const(c) => c,
            PlanOffset::Arg(i) => args[i],
        }
    }
}

/// One family-parameter dimension of a register's slot range.
#[derive(Clone, Debug)]
pub struct FamilyDim {
    /// Slots advanced per domain-index increment.
    pub stride: usize,
    /// The parameter domain as `(lo, hi, index_base)` inclusive ranges.
    pub ranges: Vec<(u64, u64, usize)>,
    /// Total number of domain values.
    pub count: usize,
}

impl FamilyDim {
    /// The dense domain index of `v`, or `None` outside the domain.
    #[inline]
    pub fn index_of(&self, v: u64) -> Option<usize> {
        self.ranges
            .iter()
            .find(|&&(lo, hi, _)| (lo..=hi).contains(&v))
            .map(|&(lo, _, base)| base + (v - lo) as usize)
    }
}

/// The flat cache-slot range of a register family: instance slots are
/// `base + Σ index(argᵢ)·strideᵢ` — pure arithmetic, no hashing.
#[derive(Clone, Debug)]
pub struct FamilySlots {
    /// First slot of the range.
    pub base: usize,
    /// Number of slots (the product of the domain sizes).
    pub count: usize,
    /// One dimension per family parameter.
    pub dims: Vec<FamilyDim>,
}

impl FamilySlots {
    /// The flat slot of one instance; `None` when an argument falls
    /// outside the declared domain.
    pub fn slot_of(&self, args: &[u64]) -> Option<usize> {
        if args.len() != self.dims.len() {
            return None;
        }
        let mut slot = self.base;
        for (dim, &a) in self.dims.iter().zip(args) {
            slot += dim.index_of(a)? * dim.stride;
        }
        Some(slot)
    }
}

/// A plan step's cache slot, resolved from family arguments.
#[derive(Clone, Debug)]
pub enum PlanSlot {
    /// A concrete register's slot.
    Fixed(usize),
    /// A family instance: `base` plus one domain-index times stride per
    /// argument dimension (constant arguments are folded into `base`).
    Indexed {
        /// Folded base slot.
        base: usize,
        /// `(argument index, dimension)` pairs.
        dims: Vec<(usize, FamilyDim)>,
    },
}

impl PlanSlot {
    /// Resolves the slot. Plan compilation proved every reachable
    /// argument indexable, so resolution cannot fail on validated args.
    #[inline]
    pub fn resolve(&self, args: &[u64]) -> usize {
        match self {
            PlanSlot::Fixed(s) => *s,
            PlanSlot::Indexed { base, dims } => {
                let mut slot = *base;
                for (arg, dim) in dims {
                    slot += dim.index_of(args[*arg]).expect("family argument validated by caller")
                        * dim.stride;
                }
                slot
            }
        }
    }

    /// The flat slot, when the slot resolves without family arguments.
    pub fn fixed(&self) -> Option<usize> {
        match self {
            PlanSlot::Fixed(s) => Some(*s),
            PlanSlot::Indexed { base, dims } if dims.is_empty() => Some(*base),
            PlanSlot::Indexed { .. } => None,
        }
    }

    /// The inclusive-exclusive range of flat slots the slot may
    /// resolve to.
    pub fn span(&self) -> (usize, usize) {
        match self {
            PlanSlot::Fixed(i) => (*i, i + 1),
            PlanSlot::Indexed { base, dims } => {
                let span: usize =
                    dims.iter().map(|(_, d)| d.count.saturating_sub(1) * d.stride).sum();
                (*base, base + span + 1)
            }
        }
    }

    /// Conservative may-alias test: whether the two slots' spans meet.
    pub(crate) fn may_alias(&self, other: &PlanSlot) -> bool {
        let (al, ah) = self.span();
        let (bl, bh) = other.span();
        al < bh && bl < ah
    }
}

/// One value-bearing segment of a [`Compose`] (constant values are
/// folded into [`Compose::const_or`] instead).
#[derive(Clone, Debug)]
pub struct WriteSeg {
    /// Register-bit placement.
    pub seg: FieldSeg,
    /// The inserted value (`Input` or `Arg`).
    pub value: PlanValue,
}

/// The composition of a register's new cached raw value:
/// `(cached & keep_and) | const_or | segs…`, exactly the reference
/// interpreter's store/compose pipeline folded into constants. A
/// [`PlanStep::Write`] also sends the value to the device; a
/// [`PlanStep::Store`] only caches it.
#[derive(Clone, Debug)]
pub struct Compose {
    /// Cached bits to keep (clears the stored segments and, for
    /// writes, trigger neighbours' bits).
    pub keep_and: u64,
    /// Folded constants: constant-valued segment inserts plus, for
    /// writes, trigger-neutral substitutions.
    pub const_or: u64,
    /// Runtime-valued segment inserts.
    pub segs: Vec<WriteSeg>,
}

impl Compose {
    /// The composed raw value over the `cached` one, with runtime
    /// segments resolved against the call's arguments and input.
    #[inline]
    pub fn apply(&self, cached: u64, args: &[u64], input: u64) -> u64 {
        let mut raw = (cached & self.keep_and) | self.const_or;
        for ws in &self.segs {
            raw |= ws.seg.insert(ws.value.resolve(args, input));
        }
        raw
    }

    /// Whether the composition leaves the cached value as it is (a
    /// write that only flushes the cache).
    pub fn is_identity(&self) -> bool {
        self.keep_and == u64::MAX && self.const_or == 0 && self.segs.is_empty()
    }

    /// The runtime-valued segment bits, split by value source:
    /// `(input-valued bits, argument-valued bits)`.
    pub fn value_masks(&self) -> (u64, u64) {
        let mut seg_in = 0u64;
        let mut seg_arg = 0u64;
        for ws in &self.segs {
            match ws.value {
                PlanValue::Input => seg_in |= ws.seg.reg_mask(),
                PlanValue::Arg(_) => seg_arg |= ws.seg.reg_mask(),
                PlanValue::Const(_) => {}
            }
        }
        (seg_in, seg_arg)
    }

    /// The composition with `Input` segments reading a fused op's
    /// operand instead (see [`PlanValue::subst_input`]). A segment whose
    /// operand is a constant folds into [`Compose::const_or`], so the
    /// result keeps only runtime-valued segments.
    pub fn subst_input(&self, operand: Option<PlanValue>) -> Result<Compose, String> {
        let mut out =
            Compose { keep_and: self.keep_and, const_or: self.const_or, segs: Vec::new() };
        for ws in &self.segs {
            match ws.value.subst_input(operand)? {
                PlanValue::Const(c) => out.const_or |= ws.seg.insert(c),
                value => out.segs.push(WriteSeg { seg: ws.seg, value }),
            }
        }
        Ok(out)
    }
}

/// A register access of a compiled plan.
#[derive(Clone, Debug)]
pub struct AccessStep {
    /// The accessed register.
    pub reg: RegId,
    /// Cache slot of the accessed instance.
    pub slot: PlanSlot,
    /// Port index.
    pub port: u32,
    /// Port offset.
    pub offset: PlanOffset,
    /// Access width in bits.
    pub size: u32,
}

/// One straight-line step of a compiled plan.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// Device read into the register's cache slot.
    Read(AccessStep),
    /// Composed device write updating the cache slot: the slot takes
    /// the composed value, the device `(composed & out_and) | out_or`.
    Write {
        /// The written register.
        access: AccessStep,
        /// The new cached value.
        compose: Compose,
        /// Register AND-mask applied to the outgoing value only.
        out_and: u64,
        /// Register OR-mask (forced-1 bits) applied to the outgoing
        /// value only.
        out_or: u64,
    },
    /// Cache-only store into a register's slot (no device access).
    /// Emitted for a written variable (or an action-assigned structure
    /// field) whose bits land on a register the flattened serialization
    /// order does not flush — the reference interpreter still stores
    /// those bits up front (`store_var_bits`), and later composes must
    /// see them.
    Store(PlanSlot, Compose),
    /// Private-memory update (a folded mem-variable action). The cell
    /// stores `value & mask`, masked to its variable's raw width like
    /// a register field, so a cell never holds a value outside the
    /// raw space its guards enumerate.
    SetCell {
        /// Target memory cell.
        cell: usize,
        /// Stored value (constants arrive pre-masked).
        value: PlanValue,
        /// The owning variable's raw-width mask ([`VarIr::raw_mask`]).
        mask: u64,
    },
    /// Vectored block read: one `Bus::ins`-style transaction filling
    /// the caller's block-in buffer. Only emitted by superplan fusion
    /// ([`DeviceIr::fuse`](crate::DeviceIr::fuse)); the transfer
    /// bypasses the cache, exactly like the runtime's unfused block
    /// path.
    BlockIn {
        /// Port index.
        port: u32,
        /// Constant port offset.
        offset: u64,
        /// Word width in bits.
        size: u32,
    },
    /// Vectored block write from the caller's block-out buffer.
    BlockOut {
        /// Port index.
        port: u32,
        /// Constant port offset.
        offset: u64,
        /// Word width in bits.
        size: u32,
    },
    /// Assembles a fused read op's value from fixed cache slots into
    /// the superplan's output vector, in place — emitted immediately
    /// after the op's own steps, so a later fused op overwriting a
    /// shared slot (the IDE status register) cannot corrupt it.
    Assemble {
        /// Output vector index.
        out: u32,
        /// `(slot, segment)` assembly pairs.
        segs: Vec<(usize, FieldSeg)>,
    },
}

impl PlanStep {
    pub(crate) fn slot(&self) -> Option<&PlanSlot> {
        match self {
            PlanStep::Read(a) | PlanStep::Write { access: a, .. } => Some(&a.slot),
            PlanStep::Store(slot, _) => Some(slot),
            PlanStep::SetCell { .. }
            | PlanStep::BlockIn { .. }
            | PlanStep::BlockOut { .. }
            | PlanStep::Assemble { .. } => None,
        }
    }
}

/// The vectored-transfer target of a `block` variable: one whole
/// register, bound in the transfer's direction at a constant offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockBinding {
    /// The transferred register.
    pub reg: RegId,
    /// Port index.
    pub port: u32,
    /// Constant port offset.
    pub offset: u64,
    /// Word width in bits.
    pub size: u32,
}

/// Why a variable cannot take a vectored block transfer (see
/// [`DeviceIr::block_binding`](crate::DeviceIr::block_binding)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockIneligible {
    /// The variable lacks the `block` attribute or spans several
    /// registers.
    NotBlock,
    /// The variable covers only part of its register.
    Partial,
    /// The register has no binding in the transfer's direction.
    NoBinding,
    /// The register's port offset depends on family arguments.
    ParametricOffset,
    /// The register runs pre/post/set actions, which a vectored
    /// transfer (a superplan's or the plan executor's) cannot; the
    /// binding is otherwise eligible.
    Actions(BlockBinding),
}

/// Block eligibility of `var` over its device's `regs`, checked in the
/// order the variants of [`BlockIneligible`] are listed.
pub(crate) fn block_binding(
    var: &VarIr,
    regs: &[RegIr],
    write: bool,
) -> Result<BlockBinding, BlockIneligible> {
    let [seg] = &var.segs[..] else { return Err(BlockIneligible::NotBlock) };
    if !var.behavior.block {
        return Err(BlockIneligible::NotBlock);
    }
    let reg = &regs[seg.reg.0 as usize];
    if seg.seg.width() != reg.size {
        return Err(BlockIneligible::Partial);
    }
    let binding = if write { &reg.write } else { &reg.read };
    let Some(binding) = binding else { return Err(BlockIneligible::NoBinding) };
    let Offset::Const(offset) = binding.offset else {
        return Err(BlockIneligible::ParametricOffset);
    };
    let b = BlockBinding { reg: seg.reg, port: binding.port.0, offset, size: reg.size };
    if reg.has_actions() {
        return Err(BlockIneligible::Actions(b));
    }
    Ok(b)
}

/// Where a [`PlanGuard`] (and the matching [`SelectorDim`] bits) reads
/// the tested value from at dispatch time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardSource {
    /// A flat cache slot: the cached raw bits, masked. Never-cached
    /// slots compare as 0 — exactly the reference interpreter's
    /// `assemble_cached` default for unread registers.
    Slot(usize),
    /// A private memory cell, compared whole (cells hold values masked
    /// to their variable's raw width).
    Cell(usize),
    /// The value being written by the access itself. Used when a write
    /// order's condition tests the variable being written: the general
    /// path stores the new bits before evaluating, so the guard must
    /// see the caller's input, not the (pre-store) cache.
    Input,
}

/// One run-time guard of a plan variant: the variant applies when the
/// bits read from `source`, masked by `mask`, equal `expected`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanGuard {
    /// Where the tested bits come from.
    pub source: GuardSource,
    /// Tested bits (register bits for slots, value bits for cells and
    /// input).
    pub mask: u64,
    /// Expected masked value.
    pub expected: u64,
}

impl PlanGuard {
    /// Whether the guard holds for the given cache/memory/input state.
    #[inline]
    pub fn holds(&self, slots: &[u64], slot_valid: &[bool], mem: &[u64], input: u64) -> bool {
        let raw = match self.source {
            GuardSource::Slot(s) => {
                if slot_valid[s] {
                    slots[s]
                } else {
                    0
                }
            }
            GuardSource::Cell(c) => mem[c],
            GuardSource::Input => input,
        };
        raw & self.mask == self.expected
    }
}

/// A debug-mode write check: a variable a plan writes and the value
/// source its store uses (see [`PlanVariant::checks`]).
pub type WriteCheck = (VarId, PlanValue);

/// One straight-line version of a (possibly guard-split) plan: a step
/// range in the device's [plan arena](crate::DeviceIr::plan_arena).
/// The guards selecting it are derived from the plan's selector
/// ([`AccessPlan::guards`]).
#[derive(Clone, Debug)]
pub struct PlanVariant {
    /// The paper's debug-mode write checks for this variant: every
    /// variable the variant writes — the accessed one and those written
    /// by folded actions, in execution order — with the value source
    /// the steps store. Checked mode validates each against its
    /// variable's type before the first step runs. Constant values that
    /// pass statically are left out.
    pub checks: Vec<WriteCheck>,
    /// First step in the arena.
    pub start: u32,
    /// Number of steps.
    pub len: u32,
}

/// One tested variable of a guard-split plan's variant selector: where
/// its value assembles from at dispatch time, and the size of its
/// raw-value space.
#[derive(Clone, Debug)]
pub struct SelectorDim {
    /// `(slot, segment)` pairs assembling the tested value from flat
    /// cache slots (uncached slots contribute 0, as in the general
    /// interpreter). Empty for memory-cell tested variables.
    pub segs: Vec<(usize, FieldSeg)>,
    /// Value bits sourced from the access's own input instead of the
    /// cache (a write order testing the variable being written): each
    /// segment maps input bits (`reg_lo..=reg_hi`) to tested-value bits
    /// (`var_lo`). The reference interpreter stores the written bits before
    /// evaluating conditions, so these bits must come from the caller's
    /// value, not the pre-store cache.
    pub input_segs: Vec<FieldSeg>,
    /// Tested-value bits covered by `input_segs` (cleared out of the
    /// cache-assembled value before the input bits are OR-ed in).
    pub input_mask: u64,
    /// Memory cell holding the tested value (`segs` empty). Cells store
    /// values masked to their variable's width, so the cell always
    /// indexes inside the enumerated `radix`.
    pub cell: Option<usize>,
    /// `2^width` — the mixed-radix base of this dimension.
    pub radix: usize,
}

impl SelectorDim {
    /// The guards pinning this dimension to the tested value `v`: a
    /// whole-cell compare for a cell-tested dimension, else one masked
    /// slot compare per cache segment (input-shadowed bits excluded,
    /// fully shadowed segments skipped) followed by one input compare
    /// per input segment.
    pub fn guards(&self, v: u64) -> impl Iterator<Item = PlanGuard> + '_ {
        let cell = self.cell.map(|c| PlanGuard {
            source: GuardSource::Cell(c),
            mask: u64::MAX,
            expected: v,
        });
        // Selection clears `input_mask` out of the assembled value, so
        // those value positions never read the cache; `insert` maps the
        // remaining value positions back to register bits.
        let slots = self.segs.iter().filter_map(move |&(slot, seg)| {
            let mask = seg.insert(!self.input_mask);
            (mask != 0).then(|| PlanGuard {
                source: GuardSource::Slot(slot),
                mask,
                expected: seg.insert(v) & mask,
            })
        });
        let input = self.input_segs.iter().map(move |seg| PlanGuard {
            source: GuardSource::Input,
            mask: seg.reg_mask(),
            expected: seg.insert(v),
        });
        cell.into_iter().chain(slots).chain(input)
    }
}

/// A precompiled access plan for one variable or structure direction.
///
/// Compiled whenever the whole access — including pre/post/set actions
/// and structure flushes it triggers — is statically a straight line of
/// register accesses and memory-cell updates for **every** combination
/// of the values its serialization conditionals test. Unconditional
/// accesses compile a single unguarded variant; conditional orders
/// guard-split into one variant per tested-value combination —
/// including orders testing the variable being written (input-sourced
/// guards), memory-cell tested variables (cell-sourced guards), and
/// nested conditional orders reached through pre/post/set actions
/// (their guard domains inline into the outer enumeration when the
/// tested value is statically known or still entry-state at the
/// evaluation point). Action values read from other variables, hashed
/// family caches, mid-access-modified tested variables, guard domains
/// past the guard-domain cap and over-budget expansions compile no
/// plan — each recorded in
/// [`DeviceIr::plan_fallbacks`](crate::DeviceIr::plan_fallbacks), and
/// rejected by the runtime as unplanned, so nothing bails silently.
#[derive(Clone, Debug, Default)]
pub struct AccessPlan {
    /// Straight-line variants. The guard enumeration is exhaustive over
    /// the tested variables' raw-value spaces, so exactly one variant
    /// matches any cache state, and variants are laid out in
    /// mixed-radix order of the tested values (first tested variable
    /// most significant) so selection is an indexed lookup.
    pub variants: Vec<PlanVariant>,
    /// The tested variables' value sources, one dimension per tested
    /// variable in enumeration order. Empty for unconditional plans.
    pub selector: Vec<SelectorDim>,
    /// `(slot, segment)` pairs assembling the read value from the cache
    /// (empty for write plans; shared by all variants).
    pub assemble: Vec<(PlanSlot, FieldSeg)>,
    /// For a memory-cell variable's read plan: the cell served directly
    /// (`assemble` empty, no steps).
    pub cell: Option<usize>,
    /// The deepest action-recursion level the reference interpreter
    /// would reach executing this access from depth 0 (the maximum over
    /// all variants). The runtime rejects a plan past its recursion
    /// limit with `RecursionLimit`, so a plan can never succeed where
    /// the reference would not.
    pub max_depth: u32,
    /// The device-wide dispatch point of variant 0: variant `i` is
    /// point `first_point + i` (see [`DeviceIr::points`](crate::DeviceIr::points)).
    pub first_point: u32,
}

impl AccessPlan {
    /// The dispatch points of this plan's variants, in variant order.
    pub fn points(&self) -> std::ops::Range<usize> {
        let first = self.first_point as usize;
        first..first + self.variants.len()
    }

    /// Variant `k`'s guards, all of which hold exactly when selection
    /// picks `k`: each selector dimension's guards for its digit of `k`
    /// (first dimension most significant), in dimension order. Empty
    /// for an unconditional plan.
    pub fn guards(&self, k: usize) -> impl Iterator<Item = PlanGuard> + '_ {
        let places: usize = self.selector.iter().map(|d| d.radix).product();
        self.selector
            .iter()
            .scan(places, move |place, dim| {
                *place /= dim.radix;
                Some(dim.guards((k / *place % dim.radix) as u64))
            })
            .flatten()
    }

    /// Selects the variant matching the given cache/memory/input
    /// state, with its mixed-radix index (`first_point + index` is the
    /// dispatch point the runtime counts): the tested variables
    /// assemble from their sources and index the variant table
    /// directly — O(tested segments), never a scan over the variants,
    /// so a wide guard domain costs no more to dispatch than a narrow
    /// one. Unconditional plans return their single variant without
    /// touching the cache. Selection is total over lowered IR: segment
    /// extracts and masked cells stay below each dimension's radix, so
    /// `None` only means a corrupted plan.
    #[inline]
    pub fn select_variant(
        &self,
        slots: &[u64],
        slot_valid: &[bool],
        mem: &[u64],
        input: u64,
    ) -> Option<(usize, &PlanVariant)> {
        if self.selector.is_empty() {
            return self.variants.first().map(|v| (0, v));
        }
        let mut idx = 0usize;
        for dim in &self.selector {
            let mut v = if let Some(cell) = dim.cell {
                mem[cell]
            } else {
                let mut v = 0u64;
                for &(slot, seg) in &dim.segs {
                    let raw = if slot_valid[slot] { slots[slot] } else { 0 };
                    v |= seg.extract(raw);
                }
                v
            };
            if dim.input_mask != 0 {
                v &= !dim.input_mask;
                for seg in &dim.input_segs {
                    v |= seg.extract(input);
                }
            }
            if v >= dim.radix as u64 {
                return None;
            }
            idx = idx * dim.radix + v as usize;
        }
        let variant = self.variants.get(idx)?;
        debug_assert!(
            self.guards(idx).all(|g| g.holds(slots, slot_valid, mem, input)),
            "selector index and guard list disagree"
        );
        Some((idx, variant))
    }
}

/// One bit segment tying a register to a variable.
///
/// Register bits `reg_lo..=reg_hi` correspond to variable bits starting
/// at `var_lo` (inclusive, same length, same order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldSeg {
    /// The owning variable.
    pub var: VarId,
    /// Most significant register bit of the segment.
    pub reg_hi: u32,
    /// Least significant register bit of the segment.
    pub reg_lo: u32,
    /// Variable bit corresponding to `reg_lo`.
    pub var_lo: u32,
}

impl FieldSeg {
    /// Number of bits in the segment.
    pub fn width(&self) -> u32 {
        self.reg_hi - self.reg_lo + 1
    }

    /// Extracts this segment from a raw register value, positioned at
    /// the variable's bit offsets.
    pub fn extract(&self, reg_raw: u64) -> u64 {
        ((reg_raw >> self.reg_lo) & width_mask(self.width())) << self.var_lo
    }

    /// Positions variable bits into register bit positions.
    pub fn insert(&self, var_val: u64) -> u64 {
        ((var_val >> self.var_lo) & width_mask(self.width())) << self.reg_lo
    }

    /// The register-bit mask covered by this segment.
    pub fn reg_mask(&self) -> u64 {
        width_mask(self.width()) << self.reg_lo
    }
}
