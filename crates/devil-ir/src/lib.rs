//! Lowering of checked Devil specifications to access plans.
//!
//! The IR sits between the semantic model and the two back ends (the
//! `devil-runtime` interpreter and the `devil-codegen` stub emitters).
//! It precomputes everything an access needs:
//!
//! * per-register **write composition**: forced-bit masks and the bit
//!   segments each variable owns,
//! * per-variable **segment maps** (register bits ↔ variable bits,
//!   across concatenations),
//! * **access orders** honouring `serialized as` plans (with their
//!   conditional steps) and the default chunk/field orders,
//! * **cache layout**: one slot per register, including an indexed
//!   **slot range** per register family (base + stride arithmetic over
//!   the parameter domains, so family instances cache without hashing)
//!   and one cell per private memory variable,
//! * **precompiled plans**: a compile-time symbolic execution of the
//!   reference interpreter flattens each access — including foldable
//!   pre/post/set actions, structure flushes and family indexing —
//!   into straight-line [`PlanStep`] lists,
//! * **guard-split variants**: conditional serialization orders
//!   (`if (sngl == CASCADED) icw3`) are compiled by enumerating the raw
//!   cache values of the tested variables and emitting one straight-line
//!   variant per combination; a [`PlanGuard`] list selects the variant
//!   from flat cache slots at run time,
//! * **plan arena**: every variant's steps live in one contiguous
//!   per-device `Vec<PlanStep>` ([`DeviceIr::plan_arena`]); a variant is
//!   a `(start, len)` range into it, so dispatch is an index and
//!   execution walks a single cache-friendly slice.

#![forbid(unsafe_code)]

use devil_sema::model::{
    Action, ActionTarget, ActionValue, Behavior, CheckedDevice, ChunkArg, CondSem, FamilyParam,
    Neutral, Offset, PortBinding, RegId, SerStep, StructId, TypeSem, VarId,
};
use std::sync::Arc;

/// Cap on the number of flat cache slots allocated to one register
/// family (the product of its parameter-domain sizes). Accesses to
/// families with larger domains compile no plan (see
/// [`DeviceIr::plan_fallbacks`]); only the reference interpreter's
/// hashed cache serves them.
const FAMILY_SLOT_CAP: u128 = 4096;

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

/// The lowered device: everything indexed and precomputed.
#[derive(Clone, Debug)]
pub struct DeviceIr {
    /// Device name.
    pub name: String,
    /// Port descriptors, indexed by the model's `PortId`.
    pub ports: Vec<PortIr>,
    /// Registers, indexed by the model's `RegId`.
    pub regs: Vec<RegIr>,
    /// Variables, indexed by the model's `VarId`.
    pub vars: Vec<VarIr>,
    /// Structures, indexed by the model's `StructId`.
    pub structs: Vec<StructIr>,
    /// Number of memory cells (private unmapped variables).
    pub mem_cells: usize,
    /// Number of flat cache slots: one per non-family register plus one
    /// per family-register instance (domains up to the slot cap).
    pub cache_slots: usize,
    /// The plan arena: every compiled variant's steps, contiguous.
    /// Plans reference `(start, len)` ranges into it, so executing a
    /// variant walks one slice and dispatch never chases a pointer.
    /// Shared via `Arc` so cloning a `DeviceIr` never copies the steps.
    pub plan_arena: Arc<[PlanStep]>,
    /// Accesses lowering could not plan, with causes (see
    /// [`DeviceIr::plan_fallbacks`]).
    plan_fallbacks: Vec<PlanFallback>,
    /// Reverse slot map: the concrete register owning each flat cache
    /// slot (`None` for slots inside a family's indexed range). The
    /// emitters use this to name guard and assemble slots.
    slot_owners: Vec<Option<RegId>>,
    /// Reverse memory-cell map: the private variable owning each cell.
    mem_owners: Vec<VarId>,
    /// Interned name table: `(name, id)` sorted by name, for
    /// hash-free variable resolution.
    var_names: Vec<(String, VarId)>,
    /// Interned register names, sorted.
    reg_names: Vec<(String, RegId)>,
    /// Interned structure names, sorted.
    struct_names: Vec<(String, StructId)>,
    /// Fused driver-declared hot sequences (see [`DeviceIr::fuse`]).
    superplans: Vec<Superplan>,
}

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
}

/// The inclusive-exclusive slot range a [`PlanSlot`] may resolve to.
fn slot_span(s: &PlanSlot) -> (usize, usize) {
    match s {
        PlanSlot::Fixed(i) => (*i, i + 1),
        PlanSlot::Indexed { base, dims } => {
            let span: usize = dims.iter().map(|(_, d)| d.count.saturating_sub(1) * d.stride).sum();
            (*base, base + span + 1)
        }
    }
}

/// Conservative may-alias test between two plan slots.
fn slots_may_alias(a: &PlanSlot, b: &PlanSlot) -> bool {
    let (al, ah) = slot_span(a);
    let (bl, bh) = slot_span(b);
    al < bh && bl < ah
}

/// One value-bearing segment of a write step (constant values are
/// folded into [`WriteCompose::const_or`] instead).
#[derive(Clone, Debug)]
pub struct WriteSeg {
    /// Register-bit placement.
    pub seg: FieldSeg,
    /// The inserted value (`Input` or `Arg`).
    pub value: PlanValue,
}

/// Write composition of one plan step: the raw value sent to the
/// device is `((cached & keep_and) | const_or | segs…) & out_and |
/// out_or`, exactly the reference interpreter's store/compose/mask
/// pipeline folded into constants.
#[derive(Clone, Debug)]
pub struct WriteCompose {
    /// Cached bits to keep (clears written segments and trigger
    /// neighbours' bits).
    pub keep_and: u64,
    /// Folded constants: trigger-neutral substitutions plus
    /// constant-valued segment inserts.
    pub const_or: u64,
    /// Runtime-valued segment inserts.
    pub segs: Vec<WriteSeg>,
    /// Register AND-mask applied to the outgoing write.
    pub out_and: u64,
    /// Register OR-mask applied to the outgoing write.
    pub out_or: u64,
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

/// Cache-only masked store: updates a register's cached raw value
/// without a device access. Emitted for a written variable (or an
/// action-assigned structure field) whose bits land on a register the
/// flattened serialization order does not flush — the reference interpreter
/// still stores those bits up front (`store_var_bits`), and later
/// composes must see them.
#[derive(Clone, Debug)]
pub struct StoreCompose {
    /// Cached bits to keep (clears the stored segments).
    pub keep_and: u64,
    /// Folded constant bits of the stored segments.
    pub const_or: u64,
    /// Runtime-valued segment inserts.
    pub segs: Vec<WriteSeg>,
}

/// One straight-line step of a compiled plan.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// Device read into the register's cache slot.
    Read(AccessStep),
    /// Composed, masked device write updating the cache slot.
    Write(AccessStep, WriteCompose),
    /// Cache-only store into a register's slot (no device access).
    Store(PlanSlot, StoreCompose),
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
    /// ([`DeviceIr::fuse`]); the transfer bypasses the cache, exactly
    /// like the runtime's unfused block path.
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
    fn slot(&self) -> Option<&PlanSlot> {
        match self {
            PlanStep::Read(a) | PlanStep::Write(a, _) => Some(&a.slot),
            PlanStep::Store(slot, _) => Some(slot),
            PlanStep::SetCell { .. }
            | PlanStep::BlockIn { .. }
            | PlanStep::BlockOut { .. }
            | PlanStep::Assemble { .. } => None,
        }
    }
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

/// One straight-line version of a (possibly guard-split) plan: a
/// conjunction of slot guards plus a step range in the device's
/// [plan arena](DeviceIr::plan_arena).
#[derive(Clone, Debug)]
pub struct PlanVariant {
    /// Guards selecting this variant; all must hold. Empty for the
    /// single variant of an unconditional access. Selection does not
    /// scan these — [`AccessPlan::select_variant`] indexes by the
    /// assembled tested values — but they document each variant's
    /// domain and back the debug cross-check.
    pub guards: Vec<PlanGuard>,
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
/// past [`GUARD_DOMAIN_CAP`] and over-budget expansions compile no
/// plan — each recorded in [`DeviceIr::plan_fallbacks`], and rejected
/// by the runtime as unplanned, so nothing bails silently.
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
}

impl AccessPlan {
    /// Selects the variant matching the given cache/memory/input
    /// state: the tested variables assemble from their sources and
    /// index the mixed-radix variant table directly — O(tested
    /// segments), never a scan over the variants, so a wide guard
    /// domain costs no more to dispatch than a narrow one.
    /// Unconditional plans return their single variant without touching
    /// the cache. Selection is total over lowered IR: segment extracts
    /// and masked cells stay below each dimension's radix, so `None`
    /// only means a corrupted plan.
    #[inline]
    pub fn select_variant(
        &self,
        slots: &[u64],
        slot_valid: &[bool],
        mem: &[u64],
        input: u64,
    ) -> Option<&PlanVariant> {
        self.select_variant_indexed(slots, slot_valid, mem, input).map(|(_, v)| v)
    }

    /// [`AccessPlan::select_variant`] with the computed mixed-radix
    /// variant index exposed. The index is what coverage-guided
    /// harnesses key on: `(access, index)` names one straight-line
    /// variant of the compiled plan surface.
    #[inline]
    pub fn select_variant_indexed(
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
            variant.guards.iter().all(|g| g.holds(slots, slot_valid, mem, input)),
            "selector index and guard list disagree"
        );
        Some((idx, variant))
    }
}

/// A port descriptor.
#[derive(Clone, Debug)]
pub struct PortIr {
    /// Port name (parameter name in the spec).
    pub name: String,
    /// Access width in bits.
    pub width: u32,
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
        let w = self.width();
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        ((reg_raw >> self.reg_lo) & mask) << self.var_lo
    }

    /// Positions variable bits into register bit positions.
    pub fn insert(&self, var_val: u64) -> u64 {
        let w = self.width();
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        ((var_val >> self.var_lo) & mask) << self.reg_lo
    }

    /// The register-bit mask covered by this segment.
    pub fn reg_mask(&self) -> u64 {
        let w = self.width();
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        mask << self.reg_lo
    }
}

/// A lowered register.
#[derive(Clone, Debug)]
pub struct RegIr {
    /// Register name.
    pub name: String,
    /// Size in bits (== the bound port's access width).
    pub size: u32,
    /// Read binding (port index + offset), if readable.
    pub read: Option<PortBinding>,
    /// Write binding, if writable.
    pub write: Option<PortBinding>,
    /// OR-mask applied on writes (forced-1 bits).
    pub or_mask: u64,
    /// AND-mask applied on writes (clears forced-0 bits).
    pub and_mask: u64,
    /// Family parameters (empty for concrete registers).
    pub params: Vec<FamilyParam>,
    /// Pre-access actions. `Arc`-shared: the reference interpreter takes
    /// a handle per register access, which must not allocate.
    pub pre: Arc<[Action]>,
    /// Post-access actions.
    pub post: Arc<[Action]>,
    /// Private-state updates on access.
    pub set: Arc<[Action]>,
    /// Every variable segment laid over this register.
    pub fields: Vec<FieldSeg>,
    /// Whether any variable on this register is volatile (the register's
    /// cached value may go stale on its own).
    pub volatile: bool,
    /// Flat cache slot for non-family registers; `None` for families.
    pub slot: Option<usize>,
    /// Indexed slot range for family registers whose domain fits the
    /// slot cap; `None` for concrete registers and oversized families
    /// (which only the reference interpreter caches, in a hashed map).
    pub family_slots: Option<FamilySlots>,
}

/// A lowered variable.
#[derive(Clone, Debug)]
pub struct VarIr {
    /// Variable name.
    pub name: String,
    /// Hidden from the functional interface.
    pub private: bool,
    /// Bit width.
    pub width: u32,
    /// The variable's type.
    pub ty: TypeSem,
    /// Behaviour flags.
    pub behavior: Behavior,
    /// Trigger neutral value.
    pub neutral: Option<Neutral>,
    /// Family parameters (variable arrays).
    pub params: Vec<FamilyParam>,
    /// Register segments backing the variable, with the family arguments
    /// used for each segment's register.
    pub segs: Vec<VarSeg>,
    /// Register access order for reads. `Arc`-shared: the general
    /// interpreter takes a handle per access, which must not allocate
    /// or deep-copy the variable.
    pub read_order: Arc<[SerStep]>,
    /// Register access order for writes.
    pub write_order: Arc<[SerStep]>,
    /// Private-state updates when the variable is written.
    pub set: Arc<[Action]>,
    /// Cell index for unmapped private memory variables.
    pub mem_cell: Option<usize>,
    /// Parent structure for fields.
    pub parent: Option<StructId>,
    /// Whether the variable is readable.
    pub readable: bool,
    /// Whether the variable is writable.
    pub writable: bool,
    /// Precompiled read plan, when the access qualifies. Shared via
    /// `Arc` so cloning a `VarIr` (the reference interpreter does)
    /// never deep-copies a plan.
    pub read_plan: Option<Arc<AccessPlan>>,
    /// Precompiled write plan, when the access qualifies.
    pub write_plan: Option<Arc<AccessPlan>>,
    /// `(slot, segment)` pairs assembling the variable from fixed cache
    /// slots — the hash-free cached-getter path for structure fields.
    pub slot_assemble: Option<Vec<(usize, FieldSeg)>>,
}

impl RegIr {
    /// Whether the register can be read.
    pub fn readable(&self) -> bool {
        self.read.is_some()
    }

    /// Whether the register can be written.
    pub fn writable(&self) -> bool {
        self.write.is_some()
    }
}

impl VarIr {
    /// The variable's raw-value mask (`2^width - 1`): what a memory
    /// cell keeps of a stored value.
    pub fn raw_mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// One register segment of a variable, with family arguments.
#[derive(Clone, Debug)]
pub struct VarSeg {
    /// The backing register.
    pub reg: RegId,
    /// Family arguments used to address the register.
    pub args: Vec<ChunkArg>,
    /// The bit correspondence.
    pub seg: FieldSeg,
}

/// A lowered structure.
#[derive(Clone, Debug)]
pub struct StructIr {
    /// Structure name.
    pub name: String,
    /// Member variables. `Arc`-shared, like the orders below: the
    /// reference interpreter takes handles per access, never a clone.
    pub fields: Arc<[VarId]>,
    /// Register access order for a structure read.
    pub read_order: Arc<[SerStep]>,
    /// Register access order for a structure write.
    pub write_order: Arc<[SerStep]>,
    /// Precompiled straight-line structure read (the Figure 3 hot
    /// loop), when every step — index-register pre-writes included —
    /// is statically decidable.
    pub read_plan: Option<Arc<AccessPlan>>,
    /// Precompiled structure write (cache-composed flush).
    pub write_plan: Option<Arc<AccessPlan>>,
}

/// Lowers a checked device to IR.
pub fn lower(model: &CheckedDevice) -> DeviceIr {
    let ports =
        model.ports.iter().map(|p| PortIr { name: p.name.clone(), width: p.width }).collect();

    // Registers: masks, flat cache slots and (initially empty) field
    // lists. Non-family registers get one slot each; families with
    // enumerable domains get a contiguous indexed range.
    let mut cache_slots = 0usize;
    let mut regs: Vec<RegIr> = model
        .registers
        .iter()
        .map(|r| {
            let (or_mask, and_mask) = r.forced_masks();
            let (slot, family_slots) = if r.params.is_empty() {
                let s = cache_slots;
                cache_slots += 1;
                (Some(s), None)
            } else {
                (None, family_slot_range(&r.params, &mut cache_slots))
            };
            RegIr {
                name: r.name.clone(),
                size: r.size,
                read: r.read.clone(),
                write: r.write.clone(),
                or_mask,
                and_mask,
                params: r.params.clone(),
                pre: r.pre.clone().into(),
                post: r.post.clone().into(),
                set: r.set.clone().into(),
                fields: Vec::new(),
                volatile: false,
                slot,
                family_slots,
            }
        })
        .collect();

    // Variables: segment maps; fill register field lists as we go.
    let mut mem_cells = 0usize;
    let mut vars: Vec<VarIr> = Vec::with_capacity(model.variables.len());
    for (vi, v) in model.variables.iter().enumerate() {
        let vid = VarId(vi as u32);
        let width = v.width();
        let mut segs: Vec<VarSeg> = Vec::new();
        if let Some(chunks) = &v.bits {
            // Walk chunks MSB-first; var bit positions count down.
            let mut next_hi = width as i64 - 1;
            for chunk in chunks {
                for &(hi, lo) in &chunk.ranges {
                    let w = (hi - lo + 1) as i64;
                    let var_lo = (next_hi - w + 1) as u32;
                    let seg = FieldSeg { var: vid, reg_hi: hi, reg_lo: lo, var_lo };
                    regs[chunk.reg.0 as usize].fields.push(seg);
                    if v.behavior.volatile {
                        regs[chunk.reg.0 as usize].volatile = true;
                    }
                    segs.push(VarSeg { reg: chunk.reg, args: chunk.args.clone(), seg });
                    next_hi -= w;
                }
            }
            debug_assert_eq!(next_hi, -1, "segment walk must cover the variable exactly");
        }
        let mem_cell = if v.bits.is_none() {
            let c = mem_cells;
            mem_cells += 1;
            Some(c)
        } else {
            None
        };
        // Access orders: explicit plan or default (distinct registers in
        // chunk order — MSB first for reads *and* writes; the paper's
        // 8237 example overrides reads with `serialized as`).
        let default_order: Vec<SerStep> = {
            let mut seen: Vec<RegId> = Vec::new();
            for s in &segs {
                if !seen.contains(&s.reg) {
                    seen.push(s.reg);
                }
            }
            seen.into_iter().map(SerStep::Reg).collect()
        };
        let (read_order, write_order): (Arc<[SerStep]>, Arc<[SerStep]>) = match &v.serialized {
            Some(plan) => (plan.steps.clone().into(), plan.steps.clone().into()),
            None => (default_order.clone().into(), default_order.into()),
        };
        let readable =
            v.bits.as_ref().is_none_or(|cs| cs.iter().all(|c| model.reg(c.reg).readable()));
        let writable =
            v.bits.as_ref().is_none_or(|cs| cs.iter().all(|c| model.reg(c.reg).writable()));
        // Memory cells have no register bits to assemble: they must
        // keep `None` so cached getters read the cell, not an empty
        // (always-0) segment list.
        let slot_assemble = if mem_cell.is_some() {
            None
        } else {
            segs.iter().map(|s| regs[s.reg.0 as usize].slot.map(|sl| (sl, s.seg))).collect()
        };
        vars.push(VarIr {
            name: v.name.clone(),
            private: v.private,
            width,
            ty: v.ty.clone(),
            behavior: v.behavior,
            neutral: v.neutral,
            params: v.params.clone(),
            segs,
            read_order,
            write_order,
            set: v.set.clone().into(),
            mem_cell,
            parent: v.parent,
            readable,
            writable,
            read_plan: None,
            write_plan: None,
            slot_assemble,
        });
    }

    // Structures: default order = registers of fields in field order.
    let mut structs: Vec<StructIr> = model
        .structures
        .iter()
        .map(|s| {
            let default_order: Vec<SerStep> = {
                let mut seen: Vec<RegId> = Vec::new();
                for &fid in &s.fields {
                    for seg in &vars[fid.0 as usize].segs {
                        if !seen.contains(&seg.reg) {
                            seen.push(seg.reg);
                        }
                    }
                }
                seen.into_iter().map(SerStep::Reg).collect()
            };
            let (read_order, write_order): (Arc<[SerStep]>, Arc<[SerStep]>) = match &s.serialized {
                Some(plan) => (plan.steps.clone().into(), plan.steps.clone().into()),
                None => (default_order.clone().into(), default_order.into()),
            };
            StructIr {
                name: s.name.clone(),
                fields: s.fields.clone().into(),
                read_order,
                write_order,
                read_plan: None,
                write_plan: None,
            }
        })
        .collect();

    // Final pass: symbolically execute every access now that registers,
    // variables and structures (and thus trigger layouts and flush
    // orders) are fully known. All compiled variants append their steps
    // to one shared arena.
    let mut arena: Vec<PlanStep> = Vec::new();
    let mut plan_fallbacks: Vec<PlanFallback> = Vec::new();
    let env = CompileEnv { vars: &vars, regs: &regs, structs: &structs, cache_slots, mem_cells };
    let mut var_plans = Vec::with_capacity(vars.len());
    for vi in 0..vars.len() {
        var_plans.push(compile_var_plans(VarId(vi as u32), &env, &mut arena, &mut plan_fallbacks));
    }
    let mut struct_plans = Vec::with_capacity(structs.len());
    for si in 0..structs.len() {
        struct_plans.push(compile_struct_plans(
            StructId(si as u32),
            &env,
            &mut arena,
            &mut plan_fallbacks,
        ));
    }
    for (vi, (read_plan, write_plan)) in var_plans.into_iter().enumerate() {
        vars[vi].read_plan = read_plan;
        vars[vi].write_plan = write_plan;
    }
    for (si, (read_plan, write_plan)) in struct_plans.into_iter().enumerate() {
        structs[si].read_plan = read_plan;
        structs[si].write_plan = write_plan;
    }

    let mut var_names: Vec<(String, VarId)> =
        vars.iter().enumerate().map(|(i, v)| (v.name.clone(), VarId(i as u32))).collect();
    var_names.sort_by(|a, b| a.0.cmp(&b.0));
    let mut reg_names: Vec<(String, RegId)> =
        regs.iter().enumerate().map(|(i, r)| (r.name.clone(), RegId(i as u32))).collect();
    reg_names.sort_by(|a, b| a.0.cmp(&b.0));
    let mut slot_owners: Vec<Option<RegId>> = vec![None; cache_slots];
    for (ri, r) in regs.iter().enumerate() {
        if let Some(s) = r.slot {
            slot_owners[s] = Some(RegId(ri as u32));
        }
    }
    let mut mem_owners: Vec<VarId> = vec![VarId(0); mem_cells];
    for (vi, v) in vars.iter().enumerate() {
        if let Some(c) = v.mem_cell {
            mem_owners[c] = VarId(vi as u32);
        }
    }

    let mut struct_names: Vec<(String, StructId)> = structs
        .iter()
        .enumerate()
        .map(|(i, s): (usize, &StructIr)| (s.name.clone(), StructId(i as u32)))
        .collect();
    struct_names.sort_by(|a, b| a.0.cmp(&b.0));

    // Fallbacks sort by (access, cause): compilation visits accesses in
    // declaration order, but consumers (manifests, diagnostics) need an
    // order that is stable under refactors of the compile passes.
    plan_fallbacks.sort_by(|a, b| (&a.access, &a.cause).cmp(&(&b.access, &b.cause)));

    DeviceIr {
        name: model.name.clone(),
        ports,
        regs,
        vars,
        structs,
        mem_cells,
        cache_slots,
        plan_arena: arena.into(),
        plan_fallbacks,
        slot_owners,
        mem_owners,
        var_names,
        reg_names,
        struct_names,
        superplans: Vec::new(),
    }
}

/// Allocates the indexed slot range of one register family, or `None`
/// when the domain product exceeds [`FAMILY_SLOT_CAP`].
fn family_slot_range(params: &[FamilyParam], cache_slots: &mut usize) -> Option<FamilySlots> {
    let counts: Vec<u128> = params
        .iter()
        .map(|p| p.values.iter().map(|&(lo, hi)| (hi - lo) as u128 + 1).sum())
        .collect();
    let total: u128 = counts.iter().product();
    if total == 0 || total > FAMILY_SLOT_CAP {
        return None;
    }
    // Row-major: the last parameter varies fastest.
    let mut dims: Vec<FamilyDim> = Vec::with_capacity(params.len());
    let mut stride = total as usize;
    for (p, &count) in params.iter().zip(&counts) {
        stride /= count as usize;
        let mut ranges = Vec::with_capacity(p.values.len());
        let mut base = 0usize;
        for &(lo, hi) in &p.values {
            ranges.push((lo, hi, base));
            base += (hi - lo) as usize + 1;
        }
        dims.push(FamilyDim { stride, ranges, count: count as usize });
    }
    let base = *cache_slots;
    *cache_slots += total as usize;
    Some(FamilySlots { base, count: total as usize, dims })
}

/// The immutable inputs of plan compilation for one device.
struct CompileEnv<'a> {
    vars: &'a [VarIr],
    regs: &'a [RegIr],
    structs: &'a [StructIr],
    cache_slots: usize,
    mem_cells: usize,
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
            if self.guarded.iter().flatten().any(|g| slots_may_alias(g, slot)) {
                return self.fail("touches a register slot pending its own composed write");
            }
        }
        match &step {
            PlanStep::Read(a) => {
                let slot = a.slot.clone();
                self.sym_clobber(&slot);
            }
            PlanStep::Write(a, c) => {
                let slot = a.slot.clone();
                let (seg_in, seg_arg) = seg_value_masks(&c.segs);
                let (keep_and, const_or) = (c.keep_and, c.const_or);
                self.sym_write(&slot, keep_and, const_or, seg_in, seg_arg);
            }
            PlanStep::Store(slot, c) => {
                let slot = slot.clone();
                let (seg_in, seg_arg) = seg_value_masks(&c.segs);
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
        let (lo, hi) = slot_span(slot);
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
    fn compose_one(&self, vid: VarId, rid: RegId, value: PlanValue) -> WriteCompose {
        let reg = &self.env.regs[rid.0 as usize];
        let var = &self.env.vars[vid.0 as usize];
        let mut clear = 0u64;
        let mut const_or = 0u64;
        let mut segs = Vec::new();
        for s in &var.segs {
            if s.reg == rid {
                clear |= s.seg.reg_mask();
                match value {
                    PlanValue::Const(c) => const_or |= s.seg.insert(c),
                    v => segs.push(WriteSeg { seg: s.seg, value: v }),
                }
            }
        }
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
                    clear |= field.reg_mask();
                    const_or |= field.insert(nv);
                }
            }
        }
        WriteCompose {
            keep_and: !clear,
            const_or,
            segs,
            out_and: reg.and_mask,
            out_or: reg.or_mask,
        }
    }

    /// Simulates one register write: pre-actions, composed masked
    /// write, post/set actions. `unguard` is the index of the caller's
    /// pending-slot entry to release just before the write emits.
    fn write_reg(
        &mut self,
        rid: RegId,
        reg_args: &[PlanValue],
        compose: WriteCompose,
        unguard: Option<usize>,
        depth: u32,
    ) -> Option<()> {
        self.note_depth(depth)?;
        let reg = &self.env.regs[rid.0 as usize];
        let (pre, post, set) = (reg.pre.clone(), reg.post.clone(), reg.set.clone());
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
        self.emit(PlanStep::Write(AccessStep { reg: rid, slot, port, offset, size }, compose))?;
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
            let (clear, const_or, segs) =
                gather_reg_compose(var.segs.iter().map(|s| (s, value)), rid);
            self.emit(PlanStep::Store(slot, StoreCompose { keep_and: !clear, const_or, segs }))?;
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
            let vars = self.env.vars;
            let (clear, const_or, segs) = gather_reg_compose(
                assigned
                    .iter()
                    .flat_map(|&(fid, v)| vars[fid.0 as usize].segs.iter().map(move |s| (s, v))),
                rid,
            );
            self.emit(PlanStep::Store(slot, StoreCompose { keep_and: !clear, const_or, segs }))?;
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
            let reg = &self.env.regs[rid.0 as usize];
            let vars = self.env.vars;
            let (clear, const_or, segs) = gather_reg_compose(
                assigned
                    .iter()
                    .flat_map(|&(fid, v)| vars[fid.0 as usize].segs.iter().map(move |s| (s, v))),
                rid,
            );
            let compose = WriteCompose {
                keep_and: !clear,
                const_or,
                segs,
                out_and: reg.and_mask,
                out_or: reg.or_mask,
            };
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
fn needs_check(var: &VarIr, value: PlanValue) -> bool {
    !matches!(value, PlanValue::Const(c) if var.ty.valid_write(c))
}

/// A masked memory-cell store of `var`'s value, constants folded.
fn set_cell(var: &VarIr, cell: usize, value: PlanValue) -> PlanStep {
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

/// Accumulates one register's write-composition pieces — cleared bits,
/// folded constants, runtime segment inserts — over `(segment, value)`
/// pairs, keeping only segments on `rid`. Shared by the fused-write
/// and cache-only-store builders so segment-to-register attribution
/// cannot diverge between them.
fn gather_reg_compose<'s>(
    pairs: impl Iterator<Item = (&'s VarSeg, PlanValue)>,
    rid: RegId,
) -> (u64, u64, Vec<WriteSeg>) {
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
    (clear, const_or, segs)
}

/// The union of a write step's runtime-valued segment masks, split by
/// value source: `(input-valued bits, argument-valued bits)`.
fn seg_value_masks(segs: &[WriteSeg]) -> (u64, u64) {
    let mut seg_in = 0u64;
    let mut seg_arg = 0u64;
    for ws in segs {
        match ws.value {
            PlanValue::Input => seg_in |= ws.seg.reg_mask(),
            PlanValue::Arg(_) => seg_arg |= ws.seg.reg_mask(),
            PlanValue::Const(_) => {}
        }
    }
    (seg_in, seg_arg)
}

/// Everything needed to enumerate, guard and select one tested
/// variable of a guard-split plan.
struct DimInfo {
    /// Memory cell holding the tested value, for cell-tested variables.
    cell: Option<usize>,
    /// `(slot, segment, cache-sourced register-bit mask)` — the mask
    /// excludes bits the written variable owns (those come from the
    /// input at evaluation time).
    cache_segs: Vec<(usize, FieldSeg, u64)>,
    /// Input-bit → value-bit segments (written-variable overlap).
    input_segs: Vec<FieldSeg>,
    /// Tested-value bits sourced from the input.
    input_mask: u64,
    /// `2^width`.
    radix: usize,
}

/// Describes how one tested variable's value is obtained at dispatch
/// time, or why it cannot be (the loud fallback cause).
fn dim_info(
    tv: VarId,
    vars: &[VarIr],
    regs: &[RegIr],
    written: Option<VarId>,
) -> Result<DimInfo, String> {
    let var = &vars[tv.0 as usize];
    if !var.params.is_empty() {
        return Err(format!("condition tests parameterized variable `{}`", var.name));
    }
    if var.width >= 64 {
        return Err(format!("condition tests 64-bit-wide variable `{}`", var.name));
    }
    let radix = 1usize << var.width;
    if let Some(cell) = var.mem_cell {
        return Ok(DimInfo {
            cell: Some(cell),
            cache_segs: Vec::new(),
            input_segs: Vec::new(),
            input_mask: 0,
            radix,
        });
    }
    let w_segs: &[VarSeg] = written.map_or(&[], |w| &vars[w.0 as usize].segs[..]);
    let mut cache_segs = Vec::new();
    let mut input_segs = Vec::new();
    let mut input_mask = 0u64;
    for seg in &var.segs {
        let Some(slot) = fixed_slot(regs, seg) else {
            return Err(format!("tested variable `{}` has no fixed cache slot", var.name));
        };
        let mut cmask = seg.seg.reg_mask();
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
            let w = hi - lo + 1;
            let m = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            input_mask |= m << out_lo;
            cmask &= !(ws.seg.reg_mask() & seg.seg.reg_mask());
        }
        cache_segs.push((slot, seg.seg, cmask));
    }
    Ok(DimInfo { cell: None, cache_segs, input_segs, input_mask, radix })
}

/// The guards pinning one dimension to the enumerated value `v`.
fn dim_guards(dim: &DimInfo, v: u64, out: &mut Vec<PlanGuard>) {
    if let Some(cell) = dim.cell {
        out.push(PlanGuard { source: GuardSource::Cell(cell), mask: u64::MAX, expected: v });
        return;
    }
    for &(slot, seg, cmask) in &dim.cache_segs {
        if cmask != 0 {
            out.push(PlanGuard {
                source: GuardSource::Slot(slot),
                mask: cmask,
                expected: seg.insert(v) & cmask,
            });
        }
    }
    for seg in &dim.input_segs {
        out.push(PlanGuard {
            source: GuardSource::Input,
            mask: seg.reg_mask(),
            expected: seg.insert(v),
        });
    }
}

fn selector_dim(dim: &DimInfo) -> SelectorDim {
    SelectorDim {
        segs: dim.cache_segs.iter().map(|&(s, seg, _)| (s, seg)).collect(),
        input_segs: dim.input_segs.clone(),
        input_mask: dim.input_mask,
        cell: dim.cell,
        radix: dim.radix,
    }
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
#[allow(clippy::type_complexity)]
fn compile_guarded(
    env: &CompileEnv,
    order: &[SerStep],
    written: Option<VarId>,
    params: &[FamilyParam],
    arena: &mut Vec<PlanStep>,
    body: &mut dyn FnMut(&mut PlanBuilder, &[RegId]) -> Option<()>,
) -> Result<(Vec<SelectorDim>, Vec<PlanVariant>, u32), String> {
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
            let mut guards = Vec::new();
            for (dim, &(_, v)) in dims.iter().zip(&assign) {
                dim_guards(dim, v, &mut guards);
            }
            let start = arena.len() as u32;
            arena.extend(b.steps);
            variants.push(PlanVariant {
                guards,
                checks: b.checks,
                start,
                len: arena.len() as u32 - start,
            });
            // Mixed-radix increment, last dimension fastest.
            let mut i = assign.len();
            loop {
                if i == 0 {
                    return Ok((dims.iter().map(selector_dim).collect(), variants, max_depth));
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
fn order_usable(regs: &[RegIr], steps: &[SerStep], write: bool) -> bool {
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
    if let [seg] = &var.segs[..] {
        let reg = &regs[seg.reg.0 as usize];
        let actions = !(reg.pre.is_empty() && reg.post.is_empty() && reg.set.is_empty());
        if var.behavior.block && seg.seg.width() == reg.size && actions {
            record(format!("block {}", var.name), "block transfer on a register with actions");
        }
    }
    if var.parent.is_some() && var.mem_cell.is_none() && var.slot_assemble.is_none() {
        record(format!("field {}", var.name), "field lands on a family register");
    }
}

/// Compiles the read/write plans for one variable, when the access
/// qualifies (see [`AccessPlan`]). Compiled steps land in `arena`;
/// failures land in `fallbacks` with their cause. Memory-cell
/// variables compile too: reads serve the cell directly, writes store
/// it and fold the variable's set actions.
fn compile_var_plans(
    vid: VarId,
    env: &CompileEnv,
    arena: &mut Vec<PlanStep>,
    fallbacks: &mut Vec<PlanFallback>,
) -> (Option<Arc<AccessPlan>>, Option<Arc<AccessPlan>>) {
    let var = &env.vars[vid.0 as usize];
    record_planless_fallbacks(var, env.regs, fallbacks);
    if var.mem_cell.is_some() {
        if !var.params.is_empty() {
            // A cell is one value: a family of them has no per-argument
            // storage for a plan to address.
            for (dir, on) in [("read", var.readable), ("write", var.writable)] {
                if on {
                    fallbacks.push(PlanFallback {
                        access: format!("{dir} {}", var.name),
                        cause: "memory-cell variable takes family arguments".into(),
                    });
                }
            }
            return (None, None);
        }
        let cell = var.mem_cell;
        let read = var.readable.then(|| {
            Arc::new(AccessPlan {
                variants: vec![PlanVariant {
                    guards: Vec::new(),
                    checks: Vec::new(),
                    start: arena.len() as u32,
                    len: 0,
                }],
                selector: Vec::new(),
                assemble: Vec::new(),
                cell,
                max_depth: 0,
            })
        });
        // The write compiles through the guard-split driver even though
        // a cell has no order of its own: set actions may reach nested
        // conditional orders, whose entry-state tested variables then
        // become selector dimensions (and whose bail causes are
        // recorded) exactly like register-backed writes.
        let write = if var.writable {
            match compile_guarded(env, &[], None, &var.params, arena, &mut |b, _order| {
                b.write_var_ordered(vid, PlanValue::Input, &[], &[], 0)
            }) {
                Ok((selector, variants, max_depth)) => Some(Arc::new(AccessPlan {
                    variants,
                    selector,
                    assemble: Vec::new(),
                    cell: None,
                    max_depth,
                })),
                Err(cause) => {
                    fallbacks.push(PlanFallback { access: format!("write {}", var.name), cause });
                    None
                }
            }
        } else {
            None
        };
        return (read, write);
    }
    let args: Vec<PlanValue> = (0..var.params.len()).map(PlanValue::Arg).collect();
    let read = if var.readable {
        let b = PlanBuilder::new(env, &var.params, Vec::new());
        let assemble: Option<Vec<(PlanSlot, FieldSeg)>> = var
            .segs
            .iter()
            .map(|s| b.slot_for(s.reg, &chunk_args(&s.args, &args)).map(|slot| (slot, s.seg)))
            .collect();
        match assemble {
            None => {
                fallbacks.push(PlanFallback {
                    access: format!("read {}", var.name),
                    cause: "assembles from a hashed family cache".into(),
                });
                None
            }
            Some(assemble) => match compile_guarded(
                env,
                &var.read_order,
                None,
                &var.params,
                arena,
                &mut |b, order| b.read_var_ordered(vid, &args, order),
            ) {
                Ok((selector, variants, max_depth)) => Some(Arc::new(AccessPlan {
                    variants,
                    selector,
                    assemble,
                    cell: None,
                    max_depth,
                })),
                Err(cause) => {
                    fallbacks.push(PlanFallback { access: format!("read {}", var.name), cause });
                    None
                }
            },
        }
    } else {
        None
    };
    let write = if var.writable {
        match compile_guarded(
            env,
            &var.write_order,
            Some(vid),
            &var.params,
            arena,
            &mut |b, order| b.write_var_ordered(vid, PlanValue::Input, &args, order, 0),
        ) {
            Ok((selector, variants, max_depth)) => Some(Arc::new(AccessPlan {
                variants,
                selector,
                assemble: Vec::new(),
                cell: None,
                max_depth,
            })),
            Err(cause) => {
                fallbacks.push(PlanFallback { access: format!("write {}", var.name), cause });
                None
            }
        }
    } else {
        None
    };
    (read, write)
}

/// Compiles the read/write plans for one structure (an [`AccessPlan`]
/// with an empty assemble list — field getters use
/// [`VarIr::slot_assemble`] instead). Conditional orders guard-split:
/// the reference interpreter evaluates every condition against the cache before
/// the first access, which is exactly the state the entry guards see.
fn compile_struct_plans(
    sid: StructId,
    env: &CompileEnv,
    arena: &mut Vec<PlanStep>,
    fallbacks: &mut Vec<PlanFallback>,
) -> (Option<Arc<AccessPlan>>, Option<Arc<AccessPlan>>) {
    let st = &env.structs[sid.0 as usize];
    let read = match compile_guarded(env, &st.read_order, None, &[], arena, &mut |b, order| {
        b.read_struct_ordered(order)
    }) {
        Ok((selector, variants, max_depth)) => Some(Arc::new(AccessPlan {
            variants,
            selector,
            assemble: Vec::new(),
            cell: None,
            max_depth,
        })),
        Err(cause) => {
            if order_usable(env.regs, &st.read_order, false) {
                fallbacks.push(PlanFallback { access: format!("read struct {}", st.name), cause });
            }
            None
        }
    };
    let write = match compile_guarded(env, &st.write_order, None, &[], arena, &mut |b, order| {
        b.flush_struct_ordered(sid, &[], order, 0)
    }) {
        Ok((selector, variants, max_depth)) => Some(Arc::new(AccessPlan {
            variants,
            selector,
            assemble: Vec::new(),
            cell: None,
            max_depth,
        })),
        Err(cause) => {
            if order_usable(env.regs, &st.write_order, true) {
                fallbacks.push(PlanFallback { access: format!("write struct {}", st.name), cause });
            }
            None
        }
    };
    (read, write)
}

impl DeviceIr {
    /// Looks a variable up by name (binary search over the interned
    /// name table — no hashing, no linear scan).
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.var_names
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.var_names[i].1)
    }

    /// Looks a structure up by name.
    pub fn struct_id(&self, name: &str) -> Option<StructId> {
        self.struct_names
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.struct_names[i].1)
    }

    /// Looks a register up by name.
    pub fn reg_id(&self, name: &str) -> Option<RegId> {
        self.reg_names
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.reg_names[i].1)
    }

    /// The variable for an id.
    pub fn var(&self, id: VarId) -> &VarIr {
        &self.vars[id.0 as usize]
    }

    /// The register for an id.
    pub fn reg(&self, id: RegId) -> &RegIr {
        &self.regs[id.0 as usize]
    }

    /// The structure for an id.
    pub fn strct(&self, id: StructId) -> &StructIr {
        &self.structs[id.0 as usize]
    }

    /// The arena slice holding one plan variant's steps.
    #[inline]
    pub fn variant_steps(&self, v: &PlanVariant) -> &[PlanStep] {
        &self.plan_arena[v.start as usize..(v.start + v.len) as usize]
    }

    /// The concrete register owning a flat cache slot, or `None` for
    /// slots inside a family's indexed range. This is how the stub
    /// emitters name the cache field behind a [`PlanGuard`] or an
    /// assemble entry.
    #[inline]
    pub fn slot_owner(&self, slot: usize) -> Option<RegId> {
        self.slot_owners.get(slot).copied().flatten()
    }

    /// The private variable owning a memory cell.
    #[inline]
    pub fn mem_owner(&self, cell: usize) -> Option<VarId> {
        self.mem_owners.get(cell).copied()
    }

    /// The register family whose indexed slot range contains `slot`,
    /// with the slot's offset into the range. Complements
    /// [`DeviceIr::slot_owner`], which names only concrete registers —
    /// together they give every flat cache slot a provenance.
    pub fn family_slot_owner(&self, slot: usize) -> Option<(RegId, usize)> {
        for (ri, r) in self.regs.iter().enumerate() {
            if let Some(fs) = &r.family_slots {
                if (fs.base..fs.base + fs.count).contains(&slot) {
                    return Some((RegId(ri as u32), slot - fs.base));
                }
            }
        }
        None
    }

    /// Human-readable provenance of a flat cache slot: the owning
    /// register's name, with the instance index for family ranges.
    /// Diagnostics and manifests use this so a slot number is never the
    /// only handle on a finding.
    pub fn slot_name(&self, slot: usize) -> String {
        if let Some(rid) = self.slot_owner(slot) {
            return self.reg(rid).name.clone();
        }
        if let Some((rid, idx)) = self.family_slot_owner(slot) {
            return format!("{}[{idx}]", self.reg(rid).name);
        }
        format!("slot#{slot}")
    }

    /// Human-readable provenance of a private memory cell: the owning
    /// variable's name.
    pub fn cell_name(&self, cell: usize) -> String {
        match self.mem_owner(cell) {
            Some(vid) => self.var(vid).name.clone(),
            None => format!("cell#{cell}"),
        }
    }

    /// Every access lowering could not plan, with its cause.
    /// Whether any register a structure's order names (both branches of
    /// conditionals included) supports the direction. A structure none
    /// of whose registers can be read (written) rejects that access as
    /// a direction error; otherwise a missing plan is an
    /// [unplanned](DeviceIr::plan_fallbacks) access.
    pub fn struct_supports(&self, sid: StructId, write: bool) -> bool {
        let st = self.strct(sid);
        order_usable(&self.regs, if write { &st.write_order } else { &st.read_order }, write)
    }

    /// Fallbacks are loud: a spec whose concrete surface should be
    /// fully plan-backed can assert this list empty, and a capped shape
    /// (guard domain, step budget, recursion depth) names the cap it
    /// hit instead of silently losing its fast path.
    pub fn plan_fallbacks(&self) -> &[PlanFallback] {
        &self.plan_fallbacks
    }

    /// Resolves a register binding's offset for concrete family args.
    pub fn resolve_offset(&self, binding: &PortBinding, args: &[u64]) -> u64 {
        match binding.offset {
            Offset::Const(c) => c,
            Offset::Param(i) => args[i],
        }
    }

    /// The fused superplans declared on this device, in declaration
    /// order (`fuse`'s returned index).
    pub fn superplans(&self) -> &[Superplan] {
        &self.superplans
    }

    /// Looks a superplan up by name.
    pub fn superplan_id(&self, name: &str) -> Option<usize> {
        self.superplans.iter().position(|sp| sp.name == name)
    }
}

/// One driver-declared operation of a fusable hot sequence.
#[derive(Clone, Debug)]
pub enum FuseOp {
    /// A cache-only structure-field store (`set_field`). Only legal in
    /// the leading stage prefix, before any device-touching op.
    SetField {
        /// The stored field.
        var: VarId,
        /// Its value (`Const` or a superplan operand `Arg`).
        value: PlanValue,
    },
    /// A plain variable write (no family arguments).
    Write {
        /// The written variable.
        var: VarId,
        /// The written value (`Const` or `Arg`).
        value: PlanValue,
    },
    /// A plain variable read; its value lands in the superplan's
    /// output vector, in op order.
    Read {
        /// The read variable.
        var: VarId,
    },
    /// A structure flush (`write_struct`).
    WriteStruct {
        /// The flushed structure.
        strct: StructId,
    },
    /// A block read of a `block` variable filling the caller's
    /// block-in buffer.
    ReadBlock {
        /// The block variable.
        var: VarId,
    },
    /// A block write of a `block` variable from the caller's block-out
    /// buffer.
    WriteBlock {
        /// The block variable.
        var: VarId,
    },
}

/// One device transaction of a superplan variant's declared shape: what
/// the fused body puts on the bus, in order. Property tests fold a
/// shape through the harness port map and `hwsim::CostModel` to predict
/// the exact ledger delta and sim-time advance of a fused dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeOp {
    /// Port index.
    pub port: u32,
    /// Access width in bits.
    pub size: u32,
    /// Write (out) rather than read (in).
    pub write: bool,
    /// A vectored block transaction (word count = the caller's buffer
    /// length) rather than a single access.
    pub block: bool,
}

/// A fused hot sequence: the stage prefix, one guard-selected
/// straight-line body per tested-value combination, and the declared
/// bus shape of each body.
///
/// Fusion is pure dispatch batching: a fused body issues the identical
/// device-op stream the unfused op-by-op sequence would, so ledgers and
/// device state are bit-identical by construction — the win is one
/// selector evaluation and one arena walk instead of N.
#[derive(Clone, Debug)]
pub struct Superplan {
    /// Superplan name (the driver's handle).
    pub name: String,
    /// The declared op sequence: what the reference interpreter runs op
    /// by op, and what checked mode validates read outputs against.
    pub ops: Vec<FuseOp>,
    /// Unconditional stage prefix (the leading `SetField` ops as
    /// cache/cell stores), executed before selection — exactly where
    /// the unfused sequence stores them.
    pub stage: PlanVariant,
    /// Selector (concatenated per-op dims) and fused variants.
    pub plan: AccessPlan,
    /// Number of `Read` ops — the required output-vector length.
    pub outputs: usize,
    /// Required operand count (`1 +` the highest `Arg` index used).
    pub args: usize,
    /// Per-variant bus shape, aligned with `plan.variants`.
    pub shape: Vec<Vec<ShapeOp>>,
}

/// Fused variants larger than this abort fusion loudly.
const SUPERPLAN_STEP_BUDGET: usize = 256;

/// Superplans with more guard-selected variants than this abort.
const SUPERPLAN_VARIANT_CAP: usize = 512;

/// Per-op inputs to the fused cross-product enumeration.
struct FuseOpBody {
    /// The op's selector dims (absolute slots/cells, no remapping).
    dims: Vec<SelectorDim>,
    /// Materialized variants in the op's own mixed-radix order:
    /// `(guards, checks, steps)` with `PlanValue::Input` rewritten to
    /// the op's operand and read outputs assembled in place.
    variants: Vec<(Vec<PlanGuard>, Vec<WriteCheck>, Vec<PlanStep>)>,
}

impl DeviceIr {
    /// Fuses a driver-declared hot sequence into a superplan: one
    /// up-front guard evaluation (the per-op selectors concatenated
    /// into one mixed-radix lookup) and one contiguous arena range per
    /// tested-value combination, with block ops lowered to vectored
    /// [`PlanStep::BlockIn`]/[`PlanStep::BlockOut`] steps.
    ///
    /// Returns the superplan's index, or a loud error naming what made
    /// the sequence unfusable. Fusion requires every constituent access
    /// to be plan-backed, argument-free, and hazard-free: an earlier
    /// op's steps must not write a later op's selector sources, because
    /// the fused body selects every variant at entry while the unfused
    /// sequence selects per-op.
    pub fn fuse(&mut self, name: &str, ops: Vec<FuseOp>) -> Result<usize, String> {
        if self.superplan_id(name).is_some() {
            return Err(format!("superplan {name} already declared"));
        }
        let err = |op: usize, what: &str| format!("superplan {name} op {op}: {what}");

        // Phase A: the stage prefix. Leading `SetField` ops become
        // unconditional cache/cell stores, replicating the general
        // interpreter's `store_var_bits` (which both the unfused
        // sequence and a struct write's own staging perform up front).
        let mut stage_steps: Vec<PlanStep> = Vec::new();
        let mut stage_checks: Vec<WriteCheck> = Vec::new();
        let mut tail_start = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let FuseOp::SetField { var, value } = op else { break };
            tail_start = i + 1;
            self.check_operand(*value).map_err(|e| err(i, &e))?;
            let v = self.var(*var);
            if v.parent.is_none() {
                return Err(err(i, &format!("{} is not a structure field", v.name)));
            }
            if !v.params.is_empty() {
                return Err(err(i, &format!("{} takes family arguments", v.name)));
            }
            if needs_check(v, *value) {
                stage_checks.push((*var, *value));
            }
            if let Some(cell) = v.mem_cell {
                stage_steps.push(set_cell(v, cell, *value));
                continue;
            }
            for seg in &v.segs {
                let Some(slot) = self.reg(seg.reg).slot else {
                    return Err(err(i, &format!("{} lands on a family register", v.name)));
                };
                let compose = match value {
                    PlanValue::Const(c) => StoreCompose {
                        keep_and: !seg.seg.reg_mask(),
                        const_or: seg.seg.insert(*c),
                        segs: Vec::new(),
                    },
                    PlanValue::Arg(a) => StoreCompose {
                        keep_and: !seg.seg.reg_mask(),
                        const_or: 0,
                        segs: vec![WriteSeg { seg: seg.seg, value: PlanValue::Arg(*a) }],
                    },
                    PlanValue::Input => unreachable!("check_operand rejects Input"),
                };
                stage_steps.push(PlanStep::Store(PlanSlot::Fixed(slot), compose));
            }
        }

        // Phase B: the tail ops. Each contributes its selector dims and
        // its materialized variants; `SetField` past the prefix,
        // missing plans, family arguments and input-tested selectors
        // are loud errors.
        let mut bodies: Vec<FuseOpBody> = Vec::new();
        let mut max_depth = 1u32;
        let mut outputs = 0usize;
        let mut block_in_ops = 0usize;
        let mut block_out_ops = 0usize;
        for (i, op) in ops.iter().enumerate().skip(tail_start) {
            let body = match op {
                FuseOp::SetField { .. } => {
                    return Err(err(i, "set_field after a device-touching op (stage prefix only)"));
                }
                FuseOp::Write { var, value } => {
                    self.check_operand(*value).map_err(|e| err(i, &e))?;
                    let v = self.var(*var);
                    if !v.params.is_empty() {
                        return Err(err(i, &format!("{} takes family arguments", v.name)));
                    }
                    let Some(plan) = v.write_plan.clone() else {
                        return Err(err(i, &format!("{} has no write plan", v.name)));
                    };
                    max_depth = max_depth.max(plan.max_depth);
                    self.op_body(&plan, Some(*value), None).map_err(|e| err(i, &e))?
                }
                FuseOp::Read { var } => {
                    let v = self.var(*var);
                    if !v.params.is_empty() {
                        return Err(err(i, &format!("{} takes family arguments", v.name)));
                    }
                    if !v.behavior.volatile && !v.behavior.read_trigger {
                        // An idempotent read may be served from the
                        // cache unfused; a fused body always runs its
                        // steps, so the op streams could diverge.
                        return Err(err(i, &format!("{} is idempotent (cache-served)", v.name)));
                    }
                    let Some(plan) = v.read_plan.clone() else {
                        return Err(err(i, &format!("{} has no read plan", v.name)));
                    };
                    if plan.cell.is_some() {
                        return Err(err(i, &format!("{} is a memory cell", v.name)));
                    }
                    max_depth = max_depth.max(plan.max_depth);
                    let out = outputs as u32;
                    outputs += 1;
                    self.op_body(&plan, None, Some(out)).map_err(|e| err(i, &e))?
                }
                FuseOp::WriteStruct { strct } => {
                    let Some(plan) = self.strct(*strct).write_plan.clone() else {
                        return Err(err(i, "structure has no write plan"));
                    };
                    max_depth = max_depth.max(plan.max_depth);
                    self.op_body(&plan, None, None).map_err(|e| err(i, &e))?
                }
                FuseOp::ReadBlock { var } => {
                    block_in_ops += 1;
                    if block_in_ops > 1 {
                        return Err(err(i, "more than one block read (one block-in buffer)"));
                    }
                    let (port, offset, size) =
                        self.block_binding(*var, /*write=*/ false).map_err(|e| err(i, &e))?;
                    FuseOpBody {
                        dims: Vec::new(),
                        variants: vec![(
                            Vec::new(),
                            Vec::new(),
                            vec![PlanStep::BlockIn { port, offset, size }],
                        )],
                    }
                }
                FuseOp::WriteBlock { var } => {
                    block_out_ops += 1;
                    if block_out_ops > 1 {
                        return Err(err(i, "more than one block write (one block-out buffer)"));
                    }
                    let (port, offset, size) =
                        self.block_binding(*var, /*write=*/ true).map_err(|e| err(i, &e))?;
                    FuseOpBody {
                        dims: Vec::new(),
                        variants: vec![(
                            Vec::new(),
                            Vec::new(),
                            vec![PlanStep::BlockOut { port, offset, size }],
                        )],
                    }
                }
            };
            bodies.push(body);
        }
        if bodies.is_empty() {
            return Err(format!("superplan {name} has no device-touching ops"));
        }

        // Hazard check: a later op's selector sources must be untouched
        // by every earlier tail op's steps (any variant), or the fused
        // entry-time selection could disagree with unfused per-op
        // selection. Stage stores are exempt — both paths stage first.
        for k in 1..bodies.len() {
            for dim in &bodies[k].dims {
                for earlier in &bodies[..k] {
                    for (_, _, steps) in &earlier.variants {
                        for step in steps {
                            let clobbers = match step {
                                PlanStep::SetCell { cell, .. } => Some(*cell) == dim.cell,
                                _ => step.slot().is_some_and(|s| {
                                    dim.segs.iter().any(|&(slot, _)| {
                                        slots_may_alias(s, &PlanSlot::Fixed(slot))
                                    })
                                }),
                            };
                            if clobbers {
                                return Err(format!(
                                    "superplan {name}: an earlier op writes a later op's \
                                     selector source (fused selection is entry-time)"
                                ));
                            }
                        }
                    }
                }
            }
        }

        // Cross product: one fused variant per combination of every
        // op's tested values, in concatenated mixed-radix order.
        let dims: Vec<SelectorDim> = bodies.iter().flat_map(|b| b.dims.iter().cloned()).collect();
        let total: usize = dims
            .iter()
            .try_fold(1usize, |acc, d| {
                acc.checked_mul(d.radix).filter(|&t| t <= SUPERPLAN_VARIANT_CAP)
            })
            .ok_or_else(|| {
                format!("superplan {name}: selector space exceeds {SUPERPLAN_VARIANT_CAP} variants")
            })?;

        let mut arena: Vec<PlanStep> = self.plan_arena.to_vec();
        let stage = PlanVariant {
            guards: Vec::new(),
            checks: stage_checks,
            start: arena.len() as u32,
            len: stage_steps.len() as u32,
        };
        arena.extend(stage_steps);

        let mut variants: Vec<PlanVariant> = Vec::with_capacity(total);
        let mut shape: Vec<Vec<ShapeOp>> = Vec::with_capacity(total);
        for combo in 0..total {
            // Decompose the combo into per-dim values (first dim most
            // significant, matching `select_variant`'s accumulation).
            let mut values = vec![0u64; dims.len()];
            let mut rest = combo;
            for (d, dim) in dims.iter().enumerate().rev() {
                values[d] = (rest % dim.radix) as u64;
                rest /= dim.radix;
            }
            let mut guards: Vec<PlanGuard> = Vec::new();
            let mut checks: Vec<WriteCheck> = Vec::new();
            let mut steps: Vec<PlanStep> = Vec::new();
            let mut dim_base = 0usize;
            for body in &bodies {
                let local =
                    body.dims.iter().enumerate().fold(0usize, |idx, (d, dim)| {
                        idx * dim.radix + values[dim_base + d] as usize
                    });
                dim_base += body.dims.len();
                let (g, c, s) = &body.variants[local];
                guards.extend_from_slice(g);
                checks.extend_from_slice(c);
                steps.extend_from_slice(s);
            }
            if steps.len() > SUPERPLAN_STEP_BUDGET {
                return Err(format!(
                    "superplan {name}: {} steps exceed the {SUPERPLAN_STEP_BUDGET}-step budget",
                    steps.len()
                ));
            }
            shape.push(steps.iter().filter_map(shape_of).collect());
            variants.push(PlanVariant {
                guards,
                checks,
                start: arena.len() as u32,
                len: steps.len() as u32,
            });
            arena.extend(steps);
        }
        self.plan_arena = arena.into();

        let args = superplan_arity(&ops);
        self.superplans.push(Superplan {
            name: name.to_string(),
            ops,
            stage,
            plan: AccessPlan {
                variants,
                selector: dims,
                assemble: Vec::new(),
                cell: None,
                max_depth,
            },
            outputs,
            args,
            shape,
        });
        Ok(self.superplans.len() - 1)
    }

    /// Rejects `Input` operands: a superplan has no single "input", its
    /// operands are the `Arg` vector.
    fn check_operand(&self, value: PlanValue) -> Result<(), String> {
        match value {
            PlanValue::Input => Err("operand must be Const or Arg".into()),
            PlanValue::Const(_) | PlanValue::Arg(_) => Ok(()),
        }
    }

    /// Materializes one constituent plan for fusion: per-variant steps
    /// with `Input` rewritten to the op's operand, read outputs
    /// assembled in place, and everything argument-free.
    fn op_body(
        &self,
        plan: &AccessPlan,
        value: Option<PlanValue>,
        out: Option<u32>,
    ) -> Result<FuseOpBody, String> {
        // Classify the dims. A dim testing the written value itself
        // (write-trigger / neutral-value plans) is resolved *statically*
        // when the op's operand is a compile-time constant — the fused
        // body pins that op's variant at fuse time, exactly the variant
        // `select_variant` would pick at run time for that input.
        // A non-constant operand stays a loud error: entry-time
        // selection has no per-op input to test.
        let mut fixed: Vec<Option<u64>> = Vec::with_capacity(plan.selector.len());
        for dim in &plan.selector {
            if dim.input_mask == 0 {
                fixed.push(None);
                continue;
            }
            // Sound only when the input bits shadow every cache-sourced
            // bit: `select_variant` clears `input_mask` out of the
            // assembled value before OR-ing the input segments in, so a
            // cell source or any cache bit outside the mask would make
            // selection depend on device state too.
            let cache_bits = dim.segs.iter().fold(0u64, |acc, (_, seg)| {
                let w = seg.width();
                let m = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                acc | (m << seg.var_lo)
            });
            if dim.cell.is_some() || cache_bits & !dim.input_mask != 0 {
                return Err("selector mixes the written value with device state".into());
            }
            let Some(PlanValue::Const(c)) = value else {
                return Err("selector tests the written value itself".into());
            };
            let v = dim.input_segs.iter().fold(0u64, |acc, seg| acc | seg.extract(c));
            if v >= dim.radix as u64 {
                return Err("constant operand falls outside the tested domain".into());
            }
            fixed.push(Some(v));
        }
        let dims: Vec<SelectorDim> = plan
            .selector
            .iter()
            .zip(&fixed)
            .filter(|(_, f)| f.is_none())
            .map(|(d, _)| d.clone())
            .collect();
        let assemble: Option<Vec<(usize, FieldSeg)>> = match out {
            None => None,
            Some(_) => Some(
                plan.assemble
                    .iter()
                    .map(|(slot, seg)| match slot {
                        PlanSlot::Fixed(s) => Ok((*s, *seg)),
                        PlanSlot::Indexed { .. } => Err("assembles from a family slot".to_string()),
                    })
                    .collect::<Result<_, _>>()?,
            ),
        };
        // Enumerate the dynamic combos; splice the statically-resolved
        // dim values back in to index the plan's full variant table.
        let total: usize = dims.iter().map(|d| d.radix).product();
        let mut variants = Vec::with_capacity(total);
        for combo in 0..total {
            let mut dynv = vec![0u64; dims.len()];
            let mut rest = combo;
            for (d, dim) in dims.iter().enumerate().rev() {
                dynv[d] = (rest % dim.radix) as u64;
                rest /= dim.radix;
            }
            let mut idx = 0usize;
            let mut dd = 0usize;
            for (dim, f) in plan.selector.iter().zip(&fixed) {
                let v = match f {
                    Some(v) => *v,
                    None => {
                        dd += 1;
                        dynv[dd - 1]
                    }
                };
                idx = idx * dim.radix + v as usize;
            }
            let v = &plan.variants[idx];
            let mut checks = Vec::with_capacity(v.checks.len());
            for &(cv, cval) in &v.checks {
                let cval = subst_input(cval, value)?;
                if needs_check(self.var(cv), cval) {
                    checks.push((cv, cval));
                }
            }
            let mut steps = Vec::with_capacity(v.len as usize + 1);
            for step in self.variant_steps(v) {
                steps.push(materialize_step(step, value)?);
            }
            if let (Some(out), Some(assemble)) = (out, &assemble) {
                steps.push(PlanStep::Assemble { out, segs: assemble.clone() });
            }
            // Input-sourced guards are exactly the statically-resolved
            // ones: they hold for the pinned constant by construction,
            // and the fused selector evaluates with no input.
            let guards: Vec<PlanGuard> = v
                .guards
                .iter()
                .filter(|g| !matches!(g.source, GuardSource::Input))
                .copied()
                .collect();
            variants.push((guards, checks, steps));
        }
        Ok(FuseOpBody { dims, variants })
    }

    /// Resolves a `block` variable's port binding for fusion, with the
    /// exact eligibility rules of the runtime's block path — plus
    /// action-free registers, since a fused body interprets no actions.
    fn block_binding(&self, vid: VarId, write: bool) -> Result<(u32, u64, u32), String> {
        let v = self.var(vid);
        if !v.behavior.block || v.segs.len() != 1 {
            return Err(format!("{} is not a block variable", v.name));
        }
        let seg = &v.segs[0];
        let reg = self.reg(seg.reg);
        if seg.seg.width() != reg.size {
            return Err(format!("{} does not cover its register", v.name));
        }
        if !reg.pre.is_empty() || !reg.post.is_empty() || !reg.set.is_empty() {
            return Err(format!("{}'s register has actions", reg.name));
        }
        let binding = if write { &reg.write } else { &reg.read };
        let Some(binding) = binding else {
            return Err(format!(
                "{} is not {} ",
                v.name,
                if write { "writable" } else { "readable" }
            ));
        };
        let Offset::Const(offset) = binding.offset else {
            return Err(format!("{}'s port offset is parametric", reg.name));
        };
        Ok((binding.port.0, offset, reg.size))
    }
}

/// Validates and rewrites one constituent step for a fused body: fixed
/// slots, constant offsets, and `Input` values substituted with the
/// op's operand.
fn materialize_step(step: &PlanStep, value: Option<PlanValue>) -> Result<PlanStep, String> {
    let fixed = |slot: &PlanSlot| -> Result<PlanSlot, String> {
        match slot {
            PlanSlot::Fixed(s) => Ok(PlanSlot::Fixed(*s)),
            PlanSlot::Indexed { base, dims } if dims.is_empty() => Ok(PlanSlot::Fixed(*base)),
            PlanSlot::Indexed { .. } => Err("step addresses a family slot".into()),
        }
    };
    let subst = |v: PlanValue| subst_input(v, value);
    let access = |a: &AccessStep| -> Result<AccessStep, String> {
        let PlanOffset::Const(off) = a.offset else {
            return Err("step offset is parametric".into());
        };
        Ok(AccessStep {
            reg: a.reg,
            slot: fixed(&a.slot)?,
            port: a.port,
            offset: PlanOffset::Const(off),
            size: a.size,
        })
    };
    Ok(match step {
        PlanStep::Read(a) => PlanStep::Read(access(a)?),
        PlanStep::Write(a, c) => PlanStep::Write(
            access(a)?,
            WriteCompose {
                keep_and: c.keep_and,
                const_or: c.const_or,
                segs: c
                    .segs
                    .iter()
                    .map(|ws| Ok(WriteSeg { seg: ws.seg, value: subst(ws.value)? }))
                    .collect::<Result<_, String>>()?,
                out_and: c.out_and,
                out_or: c.out_or,
            },
        ),
        PlanStep::Store(slot, c) => PlanStep::Store(
            fixed(slot)?,
            StoreCompose {
                keep_and: c.keep_and,
                const_or: c.const_or,
                segs: c
                    .segs
                    .iter()
                    .map(|ws| Ok(WriteSeg { seg: ws.seg, value: subst(ws.value)? }))
                    .collect::<Result<_, String>>()?,
            },
        ),
        PlanStep::SetCell { cell, value: v, mask } => {
            PlanStep::SetCell { cell: *cell, value: subst(*v)?, mask: *mask }
        }
        PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } | PlanStep::Assemble { .. } => {
            return Err("nested superplan step".into());
        }
    })
}

/// `v` with `Input` replaced by a fused op's operand.
fn subst_input(v: PlanValue, value: Option<PlanValue>) -> Result<PlanValue, String> {
    match v {
        PlanValue::Input => value.ok_or_else(|| "reads an input this op does not have".into()),
        other => Ok(other),
    }
}

/// The declared-shape entry of one fused step, if it touches the bus.
fn shape_of(step: &PlanStep) -> Option<ShapeOp> {
    match step {
        PlanStep::Read(a) => {
            Some(ShapeOp { port: a.port, size: a.size, write: false, block: false })
        }
        PlanStep::Write(a, _) => {
            Some(ShapeOp { port: a.port, size: a.size, write: true, block: false })
        }
        PlanStep::BlockIn { port, size, .. } => {
            Some(ShapeOp { port: *port, size: *size, write: false, block: true })
        }
        PlanStep::BlockOut { port, size, .. } => {
            Some(ShapeOp { port: *port, size: *size, write: true, block: true })
        }
        PlanStep::Store(..) | PlanStep::SetCell { .. } | PlanStep::Assemble { .. } => None,
    }
}

/// `1 +` the highest `Arg` index a superplan's ops reference.
fn superplan_arity(ops: &[FuseOp]) -> usize {
    ops.iter()
        .filter_map(|op| match op {
            FuseOp::SetField { value, .. } | FuseOp::Write { value, .. } => match value {
                PlanValue::Arg(i) => Some(i + 1),
                _ => None,
            },
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir_for(src: &str) -> DeviceIr {
        let model = devil_sema::check_source(src, &[]).expect("spec must check");
        lower(&model)
    }

    /// The arena steps of a plan's only, unguarded variant.
    fn steps<'a>(ir: &'a DeviceIr, plan: &AccessPlan) -> &'a [PlanStep] {
        assert_eq!(plan.variants.len(), 1, "expected a straight-line plan");
        assert!(plan.variants[0].guards.is_empty(), "expected an unguarded plan");
        ir.variant_steps(&plan.variants[0])
    }

    const BUSMOUSE: &str = r#"
device logitech_busmouse (base : bit[8] port @ {0..3}) {
  register sig_reg = base @ 1 : bit[8];
  variable signature = sig_reg, volatile, write trigger : int(8);
  register cr = write base @ 3, mask '1001000*' : bit[8];
  variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
  register interrupt_reg = write base @ 2, mask '000*0000' : bit[8];
  variable interrupt = interrupt_reg[4] : { ENABLE => '0', DISABLE => '1' };
  register index_reg = write base @ 2, mask '1**00000' : bit[8];
  private variable index = index_reg[6..5] : int(2);
  register x_low  = read base @ 0, pre {index = 0}, mask '....****' : bit[8];
  register x_high = read base @ 0, pre {index = 1}, mask '....****' : bit[8];
  register y_low  = read base @ 0, pre {index = 2}, mask '....****' : bit[8];
  register y_high = read base @ 0, pre {index = 3}, mask '***.****' : bit[8];
  structure mouse_state = {
    variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
    variable dy = y_high[3..0] # y_low[3..0], volatile : signed int(8);
    variable buttons = y_high[7..5], volatile : int(3);
  };
}
"#;

    #[test]
    fn busmouse_segments() {
        let ir = ir_for(BUSMOUSE);
        let dx = ir.var(ir.var_id("dx").unwrap());
        assert_eq!(dx.width, 8);
        assert_eq!(dx.segs.len(), 2);
        // x_high[3..0] is the high nibble of dx.
        let hi = &dx.segs[0];
        assert_eq!(ir.reg(hi.reg).name, "x_high");
        assert_eq!((hi.seg.reg_hi, hi.seg.reg_lo, hi.seg.var_lo), (3, 0, 4));
        let lo = &dx.segs[1];
        assert_eq!(ir.reg(lo.reg).name, "x_low");
        assert_eq!((lo.seg.reg_hi, lo.seg.reg_lo, lo.seg.var_lo), (3, 0, 0));
    }

    #[test]
    fn busmouse_shared_register_fields() {
        let ir = ir_for(BUSMOUSE);
        // y_high carries dy's high nibble and buttons.
        let y_high = ir.reg(ir.reg_id("y_high").unwrap());
        assert_eq!(y_high.fields.len(), 2);
        assert!(y_high.volatile);
        let buttons_id = ir.var_id("buttons").unwrap();
        let btn_seg = y_high.fields.iter().find(|f| f.var == buttons_id).unwrap();
        assert_eq!((btn_seg.reg_hi, btn_seg.reg_lo, btn_seg.var_lo), (7, 5, 0));
    }

    #[test]
    fn busmouse_structure_read_order_dedups_registers() {
        let ir = ir_for(BUSMOUSE);
        let st = ir.strct(ir.struct_id("mouse_state").unwrap());
        // x_high, x_low, y_high, y_low — four distinct registers even
        // though dy and buttons share y_high.
        assert_eq!(st.read_order.len(), 4);
        let names: Vec<&str> = st
            .read_order
            .iter()
            .map(|s| match s {
                SerStep::Reg(r) => ir.reg(*r).name.as_str(),
                _ => panic!("unexpected conditional"),
            })
            .collect();
        assert_eq!(names, ["x_high", "x_low", "y_high", "y_low"]);
    }

    #[test]
    fn forced_masks_lowered() {
        let ir = ir_for(BUSMOUSE);
        let cr = ir.reg(ir.reg_id("cr").unwrap());
        assert_eq!(cr.or_mask, 0b1001_0000);
        assert_eq!(cr.and_mask, 0b1001_0001);
        let idx = ir.reg(ir.reg_id("index_reg").unwrap());
        assert_eq!(idx.or_mask, 0b1000_0000);
        assert_eq!(idx.and_mask, 0b1110_0000);
    }

    #[test]
    fn field_seg_extract_insert_inverse() {
        let seg = FieldSeg { var: VarId(0), reg_hi: 6, reg_lo: 5, var_lo: 0 };
        assert_eq!(seg.width(), 2);
        assert_eq!(seg.reg_mask(), 0b0110_0000);
        let reg_raw = 0b0100_0000u64;
        assert_eq!(seg.extract(reg_raw), 0b10);
        assert_eq!(seg.insert(0b10), 0b0100_0000);
        // extract ∘ insert = identity on in-range values.
        for v in 0..4u64 {
            assert_eq!(seg.extract(seg.insert(v)), v);
        }
    }

    #[test]
    fn serialized_variable_order_respected() {
        let ir = ir_for(
            r#"device d (data : bit[8] port @ {0..0}, ctl : bit[8] port @ {1..1}) {
                 register ff = write ctl @ 1, mask '0000000*' : bit[8];
                 private variable flip_flop = ff[0] : bool;
                 register cnt_low = data @ 0, pre {flip_flop = *} : bit[8];
                 register cnt_high = data @ 0 : bit[8];
                 variable x = cnt_high # cnt_low : int(16) serialized as {cnt_low; cnt_high;};
               }"#,
        );
        let x = ir.var(ir.var_id("x").unwrap());
        let names: Vec<&str> = x
            .read_order
            .iter()
            .map(|s| match s {
                SerStep::Reg(r) => ir.reg(*r).name.as_str(),
                _ => panic!(),
            })
            .collect();
        // Default order would be cnt_high (MSB) first; the plan says
        // cnt_low first.
        assert_eq!(names, ["cnt_low", "cnt_high"]);
        // Segment map still places cnt_high at the top byte.
        assert_eq!(x.segs[0].seg.var_lo, 8);
        assert_eq!(x.segs[1].seg.var_lo, 0);
    }

    #[test]
    fn memory_variables_get_cells() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        assert_eq!(ir.mem_cells, 1);
        let xm = ir.var(ir.var_id("xm").unwrap());
        assert_eq!(xm.mem_cell, Some(0));
        assert!(xm.readable && xm.writable);
        let ia = ir.var(ir.var_id("IA").unwrap());
        assert_eq!(ia.mem_cell, None);
    }

    #[test]
    fn directions_lowered() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register ro = read base @ 0 : bit[8];
                 register wo = write base @ 1 : bit[8];
                 variable vr = ro, volatile : int(8);
                 variable vw = wo : int(8);
               }"#,
        );
        let vr = ir.var(ir.var_id("vr").unwrap());
        assert!(vr.readable && !vr.writable);
        let vw = ir.var(ir.var_id("vw").unwrap());
        assert!(!vw.readable && vw.writable);
    }

    #[test]
    fn multi_range_atom_orders_msb_first() {
        // XA = r[2,7..4]: bit 2 is the variable's MSB (bit 4), then
        // bits 7..4 follow.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '****.*.*' : bit[8];
                 variable XA = r[2,7..4] : int(5);
                 variable other = r[0] : bool;
               }"#,
        );
        let xa = ir.var(ir.var_id("XA").unwrap());
        assert_eq!(xa.segs.len(), 2);
        assert_eq!(
            (xa.segs[0].seg.reg_hi, xa.segs[0].seg.reg_lo, xa.segs[0].seg.var_lo),
            (2, 2, 4)
        );
        assert_eq!(
            (xa.segs[1].seg.reg_hi, xa.segs[1].seg.reg_lo, xa.segs[1].seg.var_lo),
            (7, 4, 0)
        );
    }

    #[test]
    fn plans_compiled_for_simple_variables() {
        let ir = ir_for(BUSMOUSE);
        // `config` lives alone on `cr`, which has no actions.
        let config = ir.var(ir.var_id("config").unwrap());
        assert!(config.read_plan.is_none(), "cr is write-only");
        let plan = config.write_plan.as_ref().expect("cr write plan");
        let wsteps = steps(&ir, plan);
        assert_eq!(wsteps.len(), 1);
        let PlanStep::Write(step, compose) = &wsteps[0] else { panic!("write step") };
        assert!(matches!(step.offset, PlanOffset::Const(3)));
        assert_eq!(compose.out_or, 0b1001_0000);
        assert_eq!(compose.out_and, 0b1001_0001);
        assert_eq!(compose.segs.len(), 1);
        assert_eq!(compose.segs[0].value, PlanValue::Input);
        // `signature` reads a plain register: read plan with one step.
        let sig = ir.var(ir.var_id("signature").unwrap());
        let rp = sig.read_plan.as_ref().expect("sig_reg read plan");
        let rsteps = steps(&ir, rp);
        assert_eq!(rsteps.len(), 1);
        assert!(
            matches!(&rsteps[0], PlanStep::Read(a) if matches!(a.offset, PlanOffset::Const(1)))
        );
        assert_eq!(rp.assemble.len(), 1);
    }

    #[test]
    fn plans_fold_index_register_pre_actions() {
        // dx is backed by registers with `index = N` pre-actions; the
        // symbolic executor folds those into constant index writes.
        let ir = ir_for(BUSMOUSE);
        let dx = ir.var(ir.var_id("dx").unwrap());
        let rp = dx.read_plan.as_ref().expect("dx read plan folds pre-actions");
        let rsteps = steps(&ir, rp);
        // write index=1, read x_high, write index=0, read x_low.
        assert_eq!(rsteps.len(), 4);
        let idx_reg = ir.reg_id("index_reg").unwrap();
        let PlanStep::Write(a0, c0) = &rsteps[0] else { panic!("index write first") };
        assert_eq!(a0.reg, idx_reg);
        // index=1 folded: bits 6..5 get 0b01.
        assert_eq!(c0.const_or, 0b0010_0000);
        assert!(c0.segs.is_empty(), "constant fully folded");
        assert!(matches!(&rsteps[1], PlanStep::Read(a) if ir.reg(a.reg).name == "x_high"));
        let PlanStep::Write(_, c2) = &rsteps[2] else { panic!() };
        assert_eq!(c2.const_or, 0, "index=0 folds to zero bits");
        assert!(matches!(&rsteps[3], PlanStep::Read(a) if ir.reg(a.reg).name == "x_low"));
        // dx is read-only (its registers are read-only): no write plan.
        assert!(dx.write_plan.is_none());
    }

    #[test]
    fn struct_plans_flatten_the_figure_3_loop() {
        let ir = ir_for(BUSMOUSE);
        let st = ir.strct(ir.struct_id("mouse_state").unwrap());
        let plan = st.read_plan.as_ref().expect("mouse_state read plan");
        let rsteps = steps(&ir, plan);
        // 4 index writes + 4 data reads, interleaved.
        assert_eq!(rsteps.len(), 8);
        let kinds: Vec<bool> = rsteps.iter().map(|s| matches!(s, PlanStep::Write(..))).collect();
        assert_eq!(kinds, [true, false, true, false, true, false, true, false]);
        // Registers are read-only: no write plan for the structure.
        assert!(st.write_plan.is_none());
        // Fields assemble from fixed slots without name resolution.
        let dx = ir.var(ir.var_id("dx").unwrap());
        assert_eq!(dx.slot_assemble.as_ref().map(Vec::len), Some(2));
    }

    #[test]
    fn plans_fold_trigger_neutrals() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL <=> '11', START <=> '01', STOP <=> '10', NOP <=> '00' };
                 variable page = cmd[7..2] : int(6);
               }"#,
        );
        let page = ir.var(ir.var_id("page").unwrap());
        let plan = page.write_plan.as_ref().expect("page write plan");
        let PlanStep::Write(_, c) = &steps(&ir, plan)[0] else { panic!() };
        // st's bits are cleared from the cached value and replaced by
        // the neutral pattern '11'.
        assert_eq!(c.keep_and & 0b11, 0, "st bits cleared");
        assert_eq!(c.const_or, 0b11, "neutral folded in");
        // st's own plan keeps page's cached bits.
        let st = ir.var(ir.var_id("st").unwrap());
        let sp = st.write_plan.as_ref().expect("st write plan");
        let PlanStep::Write(_, sc) = &steps(&ir, sp)[0] else { panic!() };
        assert_eq!(sc.keep_and & 0b1111_1100, 0b1111_1100);
        assert_eq!(sc.const_or, 0);
    }

    #[test]
    fn family_registers_get_indexed_slot_ranges() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..4}) {
                 register plain = base @ 4 : bit[8];
                 variable v = plain : int(8);
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable f(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
        // One slot for `plain` plus four for the family instances.
        assert_eq!(ir.cache_slots, 5);
        assert!(ir.reg(ir.reg_id("plain").unwrap()).slot.is_some());
        let r = ir.reg(ir.reg_id("r").unwrap());
        assert!(r.slot.is_none());
        let fam = r.family_slots.as_ref().expect("indexed family slots");
        assert_eq!(fam.count, 4);
        assert_eq!(fam.slot_of(&[0]), Some(fam.base));
        assert_eq!(fam.slot_of(&[3]), Some(fam.base + 3));
        assert_eq!(fam.slot_of(&[4]), None, "outside the domain");
    }

    #[test]
    fn sparse_family_domains_index_densely() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..17, 25}) {
                 register x(i : int{0..17, 25}) = base @ i : bit[8];
                 variable xv(i : int{0..17, 25}) = x(i), volatile : int(8);
               }"#,
        );
        let x = ir.reg(ir.reg_id("x").unwrap());
        let fam = x.family_slots.as_ref().unwrap();
        assert_eq!(fam.count, 19);
        assert_eq!(fam.slot_of(&[17]), Some(fam.base + 17));
        assert_eq!(fam.slot_of(&[25]), Some(fam.base + 18), "sparse value packs densely");
        assert_eq!(fam.slot_of(&[20]), None);
    }

    #[test]
    fn family_variables_compile_parameterized_plans() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable v(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
        let v = ir.var(ir.var_id("v").unwrap());
        let rp = v.read_plan.as_ref().expect("family read plan");
        let rsteps = steps(&ir, rp);
        assert_eq!(rsteps.len(), 1);
        let PlanStep::Read(a) = &rsteps[0] else { panic!() };
        assert!(matches!(a.offset, PlanOffset::Arg(0)));
        let PlanSlot::Indexed { dims, .. } = &a.slot else { panic!("indexed slot") };
        assert_eq!(dims.len(), 1);
        assert_eq!(rp.assemble.len(), 1);
        let wp = v.write_plan.as_ref().expect("family write plan");
        assert!(matches!(
            &steps(&ir, wp)[0],
            PlanStep::Write(a, _) if matches!(a.offset, PlanOffset::Arg(0))
        ));
    }

    #[test]
    fn indexed_pre_actions_fold_into_plans() {
        // CS4236B-style: the indexed-register automaton (control write
        // with the parameter value, set-action on a memory cell, data
        // read) flattens to three straight-line steps.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 private variable xm : bool;
                 register control = base @ 0, mask '000*****', set {xm = false} : bit[8];
                 variable IA = control[4..0] : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 variable ID(i : int{0..31}) = I(i), volatile : int(8);
               }"#,
        );
        let id = ir.var(ir.var_id("ID").unwrap());
        let rp = id.read_plan.as_ref().expect("ID read plan");
        let rsteps = steps(&ir, rp);
        assert_eq!(rsteps.len(), 3);
        let PlanStep::Write(a, c) = &rsteps[0] else { panic!("control write first") };
        assert_eq!(ir.reg(a.reg).name, "control");
        assert_eq!(c.segs.len(), 1);
        assert_eq!(c.segs[0].value, PlanValue::Arg(0), "IA gets the family argument");
        assert!(matches!(
            &rsteps[1],
            PlanStep::SetCell { cell: 0, value: PlanValue::Const(0), .. }
        ));
        assert!(matches!(&rsteps[2], PlanStep::Read(a) if ir.reg(a.reg).name == "I"));
    }

    #[test]
    fn conditional_struct_writes_guard_split_into_variants() {
        // The 8259A shape: `if (sngl == CASCADED) icw3` splits the
        // write into one straight-line variant per tested cache value,
        // selected by a slot guard on icw1's bit 0.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register icw1 = write base @ 0 : bit[8];
                 register icw3 = write base @ 1 : bit[8];
                 structure init = {
                   variable sngl = icw1[0] : { SINGLE => '1', CASCADED => '0' };
                   variable rest = icw1[7..1] : int(7);
                   variable v3 = icw3 : int(8);
                 } serialized as { icw1; if (sngl == CASCADED) icw3; };
               }"#,
        );
        let st = ir.strct(ir.struct_id("init").unwrap());
        // Registers are write-only, so the read direction has no plan
        // in any variant.
        assert!(st.read_plan.is_none());
        let wp = st.write_plan.as_ref().expect("conditional write must guard-split");
        assert_eq!(wp.variants.len(), 2, "one variant per sngl cache value");
        let icw1_slot = ir.reg(ir.reg_id("icw1").unwrap()).slot.unwrap();
        // sngl == 0 (CASCADED): guard expects bit 0 clear, icw3 written.
        let cascaded = &wp.variants[0];
        assert_eq!(
            cascaded.guards,
            vec![PlanGuard { source: GuardSource::Slot(icw1_slot), mask: 1, expected: 0 }]
        );
        assert_eq!(ir.variant_steps(cascaded).len(), 2, "icw1 + icw3");
        // sngl == 1 (SINGLE): icw3 skipped.
        let single = &wp.variants[1];
        assert_eq!(
            single.guards,
            vec![PlanGuard { source: GuardSource::Slot(icw1_slot), mask: 1, expected: 1 }]
        );
        assert_eq!(ir.variant_steps(single).len(), 1, "icw1 only");
        assert!(matches!(
            &ir.variant_steps(single)[0],
            PlanStep::Write(a, _) if a.reg == ir.reg_id("icw1").unwrap()
        ));
    }

    #[test]
    fn two_conditionals_enumerate_the_cross_product() {
        // The full 8259A shape: sngl and ic4 (1 bit each) give 2×2
        // variants with 5/4/4/3 steps.
        let ir = ir_for(include_str!("../../../specs/pic8259.dil"));
        let st = ir.strct(ir.struct_id("init").unwrap());
        let wp = st.write_plan.as_ref().expect("pic8259 init must guard-split");
        assert_eq!(wp.variants.len(), 4);
        let lens: Vec<u32> = wp.variants.iter().map(|v| v.len).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [3, 4, 4, 5], "icw3/icw4 skipped per combination: {lens:?}");
        // Both guards test icw1's flat slot.
        let icw1_slot = ir.reg(ir.reg_id("icw1").unwrap()).slot.unwrap();
        for v in &wp.variants {
            assert_eq!(v.guards.len(), 2);
            assert!(v.guards.iter().all(|g| g.source == GuardSource::Slot(icw1_slot)));
        }
        // The fully-populated variant (CASCADED + IC4) writes all five
        // registers in spec order.
        let full = wp.variants.iter().find(|v| v.len == 5).unwrap();
        let names: Vec<&str> = ir
            .variant_steps(full)
            .iter()
            .map(|s| match s {
                PlanStep::Write(a, _) => ir.reg(a.reg).name.as_str(),
                _ => panic!("flush is all writes"),
            })
            .collect();
        assert_eq!(names, ["icw1", "icw2", "icw3", "icw4", "ocw1"]);
        // Indexed selection: every cache state picks the variant whose
        // guards hold — no scan over the variant table.
        assert_eq!(wp.selector.len(), 2);
        let mut slots = vec![0u64; ir.cache_slots];
        let mut valid = vec![false; ir.cache_slots];
        let mem = vec![0u64; ir.mem_cells];
        for raw in 0u64..4 {
            slots[icw1_slot] = raw;
            valid[icw1_slot] = true;
            let v = wp.select_variant(&slots, &valid, &mem, 0).expect("selection is total");
            assert!(v.guards.iter().all(|g| g.holds(&slots, &valid, &mem, 0)), "raw {raw:#b}");
        }
        // Uncached slots read as 0, exactly the reference interpreter's default:
        // sngl=CASCADED (icw3 written), ic4=NO (icw4 skipped).
        valid[icw1_slot] = false;
        assert_eq!(wp.select_variant(&slots, &valid, &mem, 0).unwrap().len, 4);
    }

    #[test]
    fn nested_conditional_orders_fold_assigned_constants() {
        // `data`'s pre-action writes the struct, whose order is
        // conditional — but the action assigns `sel` a constant, so the
        // condition folds statically: the nested flush inlines into a
        // single straight-line variant (formerly a general-interpreter
        // fallback, pinned by devil-fuzz's fallback tests).
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..2}) {
                 register a = write base @ 0 : bit[8];
                 register c = write base @ 1 : bit[8];
                 structure s = {
                   variable sel = a[0] : bool;
                   variable rest = a[7..1] : int(7);
                   variable v = c : int(8);
                 } serialized as { a; if (sel == true) c; };
                 register data = read base @ 2, pre {s = {sel => true; rest => 1; v => 2}} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        let payload = ir.var(ir.var_id("payload").unwrap());
        let rp = payload.read_plan.as_ref().expect("assigned-constant condition must fold");
        let rsteps = steps(&ir, rp);
        // sel=1 takes the `c` branch: flush a, flush c, read data.
        assert_eq!(rsteps.len(), 3);
        let PlanStep::Write(a0, c0) = &rsteps[0] else { panic!("a flush first") };
        assert_eq!(ir.reg(a0.reg).name, "a");
        assert_eq!(c0.const_or, 0b11, "sel=1 and rest=1 folded");
        assert!(matches!(&rsteps[1], PlanStep::Write(a, _) if ir.reg(a.reg).name == "c"));
        assert!(matches!(&rsteps[2], PlanStep::Read(a) if ir.reg(a.reg).name == "data"));
        // The struct's own top-level write still guard-splits.
        let st = ir.strct(ir.struct_id("s").unwrap());
        assert!(st.write_plan.is_some());
        assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());
    }

    #[test]
    fn nested_conditionals_on_unassigned_fields_join_the_outer_enumeration() {
        // The pre-action assigns `rest` and `v` but not `sel`: the
        // nested condition still tests entry state, so `sel` becomes an
        // outer selector dimension and the read guard-splits.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..2}) {
                 register a = write base @ 0 : bit[8];
                 register c = write base @ 1 : bit[8];
                 structure s = {
                   variable sel = a[0] : bool;
                   variable rest = a[7..1] : int(7);
                   variable v = c : int(8);
                 } serialized as { a; if (sel == true) c; };
                 register data = read base @ 2, pre {s = {rest => 1; v => 2}} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        let payload = ir.var(ir.var_id("payload").unwrap());
        let rp = payload.read_plan.as_ref().expect("entry-tested nested condition must inline");
        assert_eq!(rp.variants.len(), 2, "one variant per cached sel value");
        assert_eq!(rp.selector.len(), 1);
        let a_slot = ir.reg(ir.reg_id("a").unwrap()).slot.unwrap();
        assert_eq!(
            rp.selector[0].segs,
            vec![(a_slot, ir.var(ir.var_id("sel").unwrap()).segs[0].seg)]
        );
        // sel == 0: `c` is skipped by the flush, but the assigned `v`
        // still stores cache-only; then a flushed, data read.
        let v0 = ir.variant_steps(&rp.variants[0]);
        assert_eq!(v0.len(), 3);
        assert!(matches!(&v0[0], PlanStep::Store(..)), "{v0:?}");
        assert!(matches!(&v0[1], PlanStep::Write(a, _) if ir.reg(a.reg).name == "a"));
        assert!(matches!(&v0[2], PlanStep::Read(..)));
        // sel == 1: a, c, data — all device-visible.
        let v1 = ir.variant_steps(&rp.variants[1]);
        assert_eq!(v1.len(), 3);
        assert!(v1.iter().all(|s| !matches!(s, PlanStep::Store(..))));
        assert_eq!(
            rp.variants[1].guards,
            vec![PlanGuard { source: GuardSource::Slot(a_slot), mask: 1, expected: 1 }]
        );
    }

    #[test]
    fn self_written_tested_variables_guard_on_the_input() {
        // The write order tests the variable being written: the general
        // path stores the bits before evaluating, so variant selection
        // must read the caller's value — an input-sourced guard. The
        // skipped-flush variant still stores the bits cache-only.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = write base @ 0 : bit[8];
                 variable rest = a[7..1] : int(7);
                 variable w = a[0] : bool serialized as { if (w == true) a; };
               }"#,
        );
        let w = ir.var(ir.var_id("w").unwrap());
        let wp = w.write_plan.as_ref().expect("self-tested write must guard on the input");
        assert_eq!(wp.variants.len(), 2);
        assert_eq!(wp.selector.len(), 1);
        assert_eq!(wp.selector[0].input_mask, 1, "bit 0 comes from the input");
        assert_eq!(
            wp.variants[1].guards,
            vec![PlanGuard { source: GuardSource::Input, mask: 1, expected: 1 }]
        );
        // w == 0: no flush, but the bit still lands in the cache.
        let v0 = ir.variant_steps(&wp.variants[0]);
        assert_eq!(v0.len(), 1);
        assert!(matches!(&v0[0], PlanStep::Store(PlanSlot::Fixed(_), c) if c.keep_and == !1));
        // w == 1: the composed device write (store fused in).
        let v1 = ir.variant_steps(&wp.variants[1]);
        assert_eq!(v1.len(), 1);
        assert!(matches!(&v1[0], PlanStep::Write(..)));
        assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());
    }

    #[test]
    fn nested_conditionals_testing_the_written_variable_guard_on_the_input() {
        // Register `a`'s set action flushes the struct, whose order
        // tests `w` — the very variable being written. The nested
        // condition is evaluated after the reference interpreter stored w's
        // bits, so the discovered dimension must source them from the
        // input, not the entry cache.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register a = write base @ 0, set {s = {v => 5}} : bit[8];
                 register c = write base @ 1 : bit[8];
                 structure s = {
                   variable w = a[0] : bool;
                   variable rest = a[7..1] : int(7);
                   variable v = c : int(8);
                 } serialized as { if (w == true) c; };
               }"#,
        );
        let w = ir.var(ir.var_id("w").unwrap());
        let wp = w.write_plan.as_ref().expect("input-stored nested condition must inline");
        assert_eq!(wp.variants.len(), 2);
        assert_eq!(wp.selector[0].input_mask, 1, "w's bit comes from the input");
        assert_eq!(
            wp.variants[1].guards,
            vec![PlanGuard { source: GuardSource::Input, mask: 1, expected: 1 }]
        );
        // w == 0: w's own flush of a, then the action's struct flush
        // skips c — the assigned v stores cache-only.
        let v0 = ir.variant_steps(&wp.variants[0]);
        assert_eq!(v0.len(), 2, "{v0:?}");
        assert!(matches!(&v0[0], PlanStep::Write(a, _) if ir.reg(a.reg).name == "a"));
        assert!(matches!(&v0[1], PlanStep::Store(..)), "{v0:?}");
        // w == 1: a, then the struct flush writes c (v=5 folded).
        let v1 = ir.variant_steps(&wp.variants[1]);
        assert_eq!(v1.len(), 2, "{v1:?}");
        let PlanStep::Write(a2, c2) = &v1[1] else { panic!("{v1:?}") };
        assert_eq!(ir.reg(a2.reg).name, "c");
        assert_eq!(c2.const_or, 5);
        assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());
        // Equivalence for this shape is covered end to end by the
        // differential fuzzer's synthetic list; here, sanity-check the
        // entry dim discovered for `rest`'s write too (w untouched →
        // slot-sourced guard).
        let rest = ir.var(ir.var_id("rest").unwrap());
        let rp = rest.write_plan.as_ref().expect("entry-tested nested condition must inline");
        assert_eq!(rp.variants.len(), 2);
        assert_eq!(rp.selector[0].input_mask, 0, "w read from the entry cache");
    }

    #[test]
    fn family_instances_do_not_alias_across_guards() {
        // `t` lives on instance f(0), the written `w` on f(1): same
        // register id, different slots. The store to f(1) cannot touch
        // t's bits, so the guard must stay cache-sourced (a slot guard
        // on f(0)'s slot), not input-sourced.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register f(i : int{0..1}) = write base @ i : bit[8];
                 variable t = f(0)[0] : bool;
                 variable rest0 = f(0)[7..1] : int(7);
                 variable w = f(1)[0] : bool serialized as { if (t == true) f; };
                 variable rest1 = f(1)[7..1] : int(7);
               }"#,
        );
        let w = ir.var(ir.var_id("w").unwrap());
        let wp = w.write_plan.as_ref().expect("distinct-instance tested var must compile");
        assert_eq!(wp.variants.len(), 2);
        assert_eq!(wp.selector[0].input_mask, 0, "t's bit comes from the cache, not the input");
        let f0_slot = ir.reg(ir.reg_id("f").unwrap()).family_slots.as_ref().unwrap().base;
        assert_eq!(
            wp.variants[1].guards,
            vec![PlanGuard { source: GuardSource::Slot(f0_slot), mask: 1, expected: 1 }]
        );
        // t == 0: no flush, w's bit stores cache-only into f(1)'s slot.
        let v0 = ir.variant_steps(&wp.variants[0]);
        assert_eq!(v0.len(), 1);
        assert!(
            matches!(&v0[0], PlanStep::Store(PlanSlot::Fixed(s), _) if *s == f0_slot + 1),
            "{v0:?}"
        );
    }

    #[test]
    fn variables_spanning_family_instances_keep_the_general_path() {
        // `w`'s two segments land on different instances of `f`, but a
        // serialization order names registers, not instances — neither
        // the fused flush nor a cache-only store can attribute the bits
        // per instance, so the write bails loudly.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register f(i : int{0..1}) = write base @ i : bit[8];
                 variable t = f(0)[1] : bool;
                 variable rest0 = f(0)[7..2] : int(6);
                 variable w = f(1)[0] # f(0)[0] : int(2) serialized as { if (t == true) f; };
                 variable rest1 = f(1)[7..1] : int(7);
               }"#,
        );
        let w = ir.var(ir.var_id("w").unwrap());
        assert!(w.write_plan.is_none(), "multi-instance variable must not plan-compile");
        let fb = ir
            .plan_fallbacks()
            .iter()
            .find(|f| f.access == "write w")
            .expect("the bail must be recorded");
        assert!(fb.cause.contains("multiple instances"), "{}", fb.cause);
    }

    #[test]
    fn mem_cell_tested_variables_guard_on_the_cell() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 private variable m : bool;
                 register a = write base @ 0 : bit[8];
                 register c = write base @ 1 : bit[8];
                 variable resta = a[7..1] : int(7);
                 variable restc = c[7..1] : int(7);
                 variable w = c[0] # a[0] : int(2) serialized as { a; if (m == true) c; };
               }"#,
        );
        let w = ir.var(ir.var_id("w").unwrap());
        let wp = w.write_plan.as_ref().expect("mem-tested write must guard on the cell");
        assert_eq!(wp.variants.len(), 2);
        assert_eq!(wp.selector[0].cell, Some(0));
        assert_eq!(
            wp.variants[1].guards,
            vec![PlanGuard { source: GuardSource::Cell(0), mask: u64::MAX, expected: 1 }]
        );
        // m == 0: only `a` flushes; `c`'s staged bit stores cache-only.
        let v0 = ir.variant_steps(&wp.variants[0]);
        assert!(matches!(&v0[0], PlanStep::Store(..)), "{v0:?}");
        assert!(matches!(&v0[1], PlanStep::Write(..)));
        // m == 1: both registers flush, no cache-only store.
        let v1 = ir.variant_steps(&wp.variants[1]);
        assert_eq!(v1.len(), 2);
        assert!(v1.iter().all(|s| matches!(s, PlanStep::Write(..))));
        // The mem cell itself has plans: a cell-served read and a
        // SetCell write masked to the bool's one bit, so the cell never
        // holds a value the selector's radix does not enumerate.
        let m = ir.var(ir.var_id("m").unwrap());
        assert_eq!(m.read_plan.as_ref().unwrap().cell, Some(0));
        assert!(matches!(
            steps(&ir, m.write_plan.as_ref().unwrap())[0],
            PlanStep::SetCell { cell: 0, value: PlanValue::Input, mask: 1 }
        ));
    }

    #[test]
    fn guard_domains_past_the_cap_keep_the_general_path() {
        // The tested variable is 13 bits wide: 2^13 variants exceed the
        // 4096 guard-domain cap, so the order compiles no plan.
        let ir = ir_for(
            r#"device d (base : bit[16] port @ {0..1}) {
                 register a = write base @ 0 : bit[16];
                 register c = write base @ 1 : bit[16];
                 structure s = {
                   variable wide = a[12..0] : int(13);
                   variable rest = a[15..13] : int(3);
                   variable v = c : int(16);
                 } serialized as { a; if (wide == 5) c; };
               }"#,
        );
        let st = ir.strct(ir.struct_id("s").unwrap());
        assert!(st.write_plan.is_none(), "13-bit guard domain must not split");
        // The bail is loud: the fallback record names the cap.
        let fb = ir
            .plan_fallbacks()
            .iter()
            .find(|f| f.access == "write struct s")
            .expect("cap bail must be recorded");
        assert!(fb.cause.contains("4096"), "cause names the cap: {}", fb.cause);
        // A 12-bit tested field (4096 == the cap) still splits.
        let ir2 = ir_for(
            r#"device d (base : bit[16] port @ {0..1}) {
                 register a = write base @ 0 : bit[16];
                 register c = write base @ 1 : bit[16];
                 structure s = {
                   variable wide = a[11..0] : int(12);
                   variable rest = a[15..12] : int(4);
                   variable v = c : int(16);
                 } serialized as { a; if (wide == 5) c; };
               }"#,
        );
        let st2 = ir2.strct(ir2.struct_id("s").unwrap());
        let wp = st2.write_plan.as_ref().expect("12-bit domain fits the cap");
        assert_eq!(wp.variants.len(), 4096);
    }

    #[test]
    fn variants_share_one_contiguous_arena() {
        let ir = ir_for(BUSMOUSE);
        assert!(!ir.plan_arena.is_empty());
        // Every plan range lies inside the arena, and variants of one
        // plan are laid out back to back.
        let mut plans: Vec<&AccessPlan> = Vec::new();
        for v in &ir.vars {
            plans.extend(v.read_plan.as_deref());
            plans.extend(v.write_plan.as_deref());
        }
        for s in &ir.structs {
            plans.extend(s.read_plan.as_deref());
            plans.extend(s.write_plan.as_deref());
        }
        assert!(!plans.is_empty());
        for plan in plans {
            for pair in plan.variants.windows(2) {
                assert_eq!(pair[0].start + pair[0].len, pair[1].start, "variants contiguous");
            }
            for v in &plan.variants {
                assert!((v.start + v.len) as usize <= ir.plan_arena.len());
            }
        }
    }

    #[test]
    fn memory_variables_compile_cell_plans() {
        // Memory variables dispatch on plans too: reads serve the cell
        // directly, writes fold to a SetCell step.
        let ir2 = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        let xm = ir2.var(ir2.var_id("xm").unwrap());
        let xr = xm.read_plan.as_ref().expect("cell read plan");
        assert_eq!(xr.cell, Some(0));
        assert_eq!(xr.variants[0].len, 0, "cell reads touch no device");
        let xw = xm.write_plan.as_ref().expect("cell write plan");
        assert!(matches!(
            steps(&ir2, xw)[0],
            PlanStep::SetCell { cell: 0, value: PlanValue::Input, .. }
        ));
        // IA's set-action on the memory cell folds into its plans.
        let ia = ir2.var(ir2.var_id("IA").unwrap());
        let rp = ia.read_plan.as_ref().expect("IA read plan");
        let rsteps = steps(&ir2, rp);
        assert_eq!(rsteps.len(), 2);
        assert!(matches!(
            &rsteps[1],
            PlanStep::SetCell { cell: 0, value: PlanValue::Const(0), .. }
        ));
    }

    #[test]
    fn struct_valued_pre_actions_fold() {
        let ir = ir_for(
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
        let payload = ir.var(ir.var_id("payload").unwrap());
        let rp = payload.read_plan.as_ref().expect("payload read plan");
        let rsteps = steps(&ir, rp);
        // idx flush + data read.
        assert_eq!(rsteps.len(), 2);
        let PlanStep::Write(a, c) = &rsteps[0] else { panic!() };
        assert_eq!(ir.reg(a.reg).name, "idx");
        // XA=5 (bits 4..2) and XRAE=1 (bit 0) folded to constants.
        assert_eq!(c.const_or, 0b0001_0101);
        assert!(c.segs.is_empty());
    }

    #[test]
    fn struct_actions_with_partial_write_orders_store_cache_only() {
        // The struct's serialized-as order flushes only `a`, but the
        // action assigns `fb` on register `bq`: the reference interpreter still
        // stores fb's bits into bq's cache. The plan reproduces that
        // with an explicit cache-only `Store` step (formerly a
        // general-path fallback).
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..2}) {
                 register a = write base @ 0 : bit[8];
                 register bq = write base @ 1, mask '****....' : bit[8];
                 structure s = {
                   variable fa = a : int(8);
                   variable fb = bq[7..4] : int(4);
                 } serialized as { a; };
                 register data = read base @ 2, pre {s = {fa => 3; fb => 7}} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        let payload = ir.var(ir.var_id("payload").unwrap());
        let rp = payload.read_plan.as_ref().expect("partial flush order must store cache-only");
        let rsteps = steps(&ir, rp);
        // Store fb's bits into bq's slot, flush a, read data.
        assert_eq!(rsteps.len(), 3);
        let bq_slot = ir.reg(ir.reg_id("bq").unwrap()).slot.unwrap();
        let PlanStep::Store(PlanSlot::Fixed(s), c) = &rsteps[0] else {
            panic!("cache-only store first: {rsteps:?}")
        };
        assert_eq!(*s, bq_slot);
        assert_eq!(c.keep_and, !0xf0, "fb owns bits 7..4");
        assert_eq!(c.const_or, 0x70, "fb => 7 folded");
        assert!(matches!(&rsteps[1], PlanStep::Write(a, _) if ir.reg(a.reg).name == "a"));
        assert!(matches!(&rsteps[2], PlanStep::Read(a) if ir.reg(a.reg).name == "data"));
    }

    #[test]
    fn plans_carry_the_general_paths_depth_accounting() {
        let ir = ir_for(BUSMOUSE);
        // config write: one register, no actions. The reference interpreter
        // enters write_register at depth 1.
        let config = ir.var(ir.var_id("config").unwrap());
        assert_eq!(config.write_plan.as_ref().unwrap().max_depth, 1);
        // dx read folds `index = N` pre-actions: read_register at 0,
        // run_actions at 1, write_id_depth(index) at 2, its
        // write_register at 3.
        let dx = ir.var(ir.var_id("dx").unwrap());
        assert_eq!(dx.read_plan.as_ref().unwrap().max_depth, 3);
    }

    #[test]
    fn interned_lookup_matches_linear_scan() {
        let ir = ir_for(BUSMOUSE);
        for (i, v) in ir.vars.iter().enumerate() {
            assert_eq!(ir.var_id(&v.name), Some(VarId(i as u32)), "{}", v.name);
        }
        for (i, r) in ir.regs.iter().enumerate() {
            assert_eq!(ir.reg_id(&r.name), Some(RegId(i as u32)), "{}", r.name);
        }
        assert_eq!(ir.var_id("nonexistent"), None);
        assert_eq!(ir.struct_id("mouse_state"), Some(StructId(0)));
    }

    #[test]
    fn mem_cell_fields_have_no_slot_assemble() {
        // Regression: a private (memory-cell) structure field used to
        // lower with `slot_assemble = Some([])`, sending the runtime's
        // cached getter down the register-assemble path where it
        // returned 0 instead of the cell value.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0, set {pm = true} : bit[8];
                 structure s = {
                   private variable pm : bool;
                   variable fa = a : int(8);
                 };
               }"#,
        );
        let pm = ir.var(ir.var_id("pm").unwrap());
        assert!(pm.mem_cell.is_some());
        assert!(pm.slot_assemble.is_none(), "mem cells must not fake a register assemble");
        let fa = ir.var(ir.var_id("fa").unwrap());
        assert!(fa.slot_assemble.is_some());
    }

    #[test]
    fn slot_and_cell_owners_invert_the_layout() {
        let ir = ir_for(BUSMOUSE);
        for (ri, r) in ir.regs.iter().enumerate() {
            let slot = r.slot.expect("busmouse registers are concrete");
            assert_eq!(ir.slot_owner(slot), Some(RegId(ri as u32)), "{}", r.name);
        }
        assert_eq!(ir.slot_owner(ir.cache_slots), None);
        let ir2 = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        assert_eq!(ir2.mem_owner(0), Some(ir2.var_id("xm").unwrap()));
        assert_eq!(ir2.mem_owner(1), None);
        // Family ranges own no named slot.
        let ir3 = ir_for(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable v(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
        let fam = ir3.reg(ir3.reg_id("r").unwrap()).family_slots.as_ref().unwrap();
        assert_eq!(ir3.slot_owner(fam.base), None);
    }

    #[test]
    fn family_offsets_resolve() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable v(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
        let r = ir.reg(ir.reg_id("r").unwrap());
        let binding = r.read.as_ref().unwrap();
        assert_eq!(ir.resolve_offset(binding, &[2]), 2);
    }
}
