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
//!   variant per combination; at run time the tested values assemble
//!   from flat cache slots (or cells, or the written input) and index
//!   the variant table ([`AccessPlan::select_variant`]); each variant's
//!   [`PlanGuard`] list is derived from that selector
//!   ([`AccessPlan::guards`]),
//! * **plan arena**: every variant's steps live in one contiguous
//!   per-device `Vec<PlanStep>` ([`DeviceIr::plan_arena`]); a variant is
//!   a `(start, len)` range into it, so dispatch is an index and
//!   execution walks a single cache-friendly slice,
//! * **dispatch points**: every variant of every access numbered once
//!   ([`DeviceIr::points`]) — the index of the runtime's hit table and
//!   the coverage fuzzer's map.

#![forbid(unsafe_code)]

mod compile;
mod fuse;
mod lower;
mod plan;

use compile::order_usable;
pub use compile::PlanFallback;
pub use fuse::{FuseOp, ShapeOp, Superplan};
pub use lower::lower;
pub use plan::{
    decompose, width_mask, AccessPlan, AccessStep, BlockBinding, BlockIneligible, Compose,
    FamilyDim, FamilySlots, FieldSeg, GuardSource, PlanGuard, PlanOffset, PlanSlot, PlanStep,
    PlanValue, PlanVariant, SelectorDim, WriteCheck, WriteSeg,
};

use devil_sema::model::{
    Action, Behavior, ChunkArg, FamilyParam, Neutral, Offset, PortBinding, RegId, SerStep,
    StructId, TypeSem, VarId,
};
use std::ops::Range;
use std::sync::Arc;

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
    /// Variable ids sorted by their names, for hash-free variable
    /// resolution by binary search.
    var_names: Vec<VarId>,
    /// Register ids sorted by their names.
    reg_names: Vec<RegId>,
    /// Structure ids sorted by their names.
    struct_names: Vec<StructId>,
    /// Fused driver-declared hot sequences (see [`DeviceIr::fuse`]).
    superplans: Vec<Superplan>,
    /// Number of dispatch points: every plan variant of every access
    /// (see [`DeviceIr::points`]).
    dispatch_points: usize,
}

/// One dispatchable access: a variable or structure direction, or a
/// fused superplan. Its plan's variants are its dispatch points
/// ([`DeviceIr::points`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessRef {
    /// A variable read.
    ReadVar(VarId),
    /// A variable write.
    WriteVar(VarId),
    /// A structure read.
    ReadStruct(StructId),
    /// A structure write.
    WriteStruct(StructId),
    /// A fused superplan, by [`DeviceIr::superplans`] index.
    Superplan(usize),
}

impl AccessRef {
    /// The access's name, given the name of its variable, structure or
    /// superplan: `read x`, `write x`, `read struct s`, `write struct
    /// s`, `superplan tx`. Diagnostics, fallback records and runtime
    /// errors all name accesses this way.
    pub fn name(self, target: &str) -> String {
        let kind = match self {
            AccessRef::ReadVar(_) => "read",
            AccessRef::WriteVar(_) => "write",
            AccessRef::ReadStruct(_) => "read struct",
            AccessRef::WriteStruct(_) => "write struct",
            AccessRef::Superplan(_) => "superplan",
        };
        format!("{kind} {target}")
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
    /// Register access order, for reads and writes alike: the
    /// `serialized as` plan, or else the distinct backing registers in
    /// chunk order (most significant first). `Arc`-shared: the general
    /// interpreter takes a handle per access, which must not allocate
    /// or deep-copy the variable.
    pub order: Arc<[SerStep]>,
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

    /// Whether an access to the register runs pre, post or set actions.
    pub fn has_actions(&self) -> bool {
        !(self.pre.is_empty() && self.post.is_empty() && self.set.is_empty())
    }
}

impl VarIr {
    /// The variable's raw-value mask (`2^width - 1`): what a memory
    /// cell keeps of a stored value.
    pub fn raw_mask(&self) -> u64 {
        width_mask(self.width)
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
    /// Member variables. `Arc`-shared, like the order below: the
    /// reference interpreter takes handles per access, never a clone.
    pub fields: Arc<[VarId]>,
    /// Register access order of structure reads and writes alike: the
    /// `serialized as` plan, or else the distinct registers of the
    /// fields in field order.
    pub order: Arc<[SerStep]>,
    /// Precompiled straight-line structure read (the Figure 3 hot
    /// loop), when every step — index-register pre-writes included —
    /// is statically decidable.
    pub read_plan: Option<Arc<AccessPlan>>,
    /// Precompiled structure write (cache-composed flush).
    pub write_plan: Option<Arc<AccessPlan>>,
}

impl DeviceIr {
    /// Looks a variable up by name (binary search over the interned
    /// name table — no hashing, no linear scan).
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        let i = self.var_names.binary_search_by(|&id| self.var(id).name.as_str().cmp(name)).ok()?;
        Some(self.var_names[i])
    }

    /// Looks a structure up by name.
    pub fn struct_id(&self, name: &str) -> Option<StructId> {
        let i = self
            .struct_names
            .binary_search_by(|&id| self.strct(id).name.as_str().cmp(name))
            .ok()?;
        Some(self.struct_names[i])
    }

    /// Looks a register up by name.
    pub fn reg_id(&self, name: &str) -> Option<RegId> {
        let i = self.reg_names.binary_search_by(|&id| self.reg(id).name.as_str().cmp(name)).ok()?;
        Some(self.reg_names[i])
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

    /// A variant's bus shape: one [`ShapeOp`] per step that touches the
    /// bus, in step order. For a superplan variant this is the exact
    /// transaction stream of a fused dispatch.
    pub fn shape(&self, v: &PlanVariant) -> impl Iterator<Item = ShapeOp> + '_ {
        self.variant_steps(v).iter().filter_map(fuse::shape_of)
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
    /// Diagnostics use this so a slot number is never the only handle on
    /// a finding.
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

    /// Whether any register a structure's order names (both branches of
    /// conditionals included) supports the direction. A structure none
    /// of whose registers can be read (written) rejects that access as
    /// a direction error; otherwise a missing plan is an
    /// [unplanned](DeviceIr::plan_fallbacks) access.
    pub fn struct_supports(&self, sid: StructId, write: bool) -> bool {
        order_usable(&self.regs, &self.strct(sid).order, write)
    }

    /// Every access lowering could not plan, with its cause.
    /// Fallbacks are loud: a spec whose concrete surface should be
    /// fully plan-backed can assert this list empty, and a capped shape
    /// (guard domain, step budget, recursion depth) names the cap it
    /// hit instead of silently losing its fast path.
    pub fn plan_fallbacks(&self) -> &[PlanFallback] {
        &self.plan_fallbacks
    }

    /// The vectored-transfer target of a block read (`write` false) or
    /// write of `vid`: the one definition of block eligibility. The
    /// plan executor and `fuse` reject every [`BlockIneligible`]
    /// reason; the reference interpreter runs a register's actions, so
    /// it accepts [`BlockIneligible::Actions`].
    pub fn block_binding(&self, vid: VarId, write: bool) -> Result<BlockBinding, BlockIneligible> {
        plan::block_binding(self.var(vid), &self.regs, write)
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

    /// The compiled plan of an access, if it has one.
    pub fn plan(&self, access: AccessRef) -> Option<&AccessPlan> {
        match access {
            AccessRef::ReadVar(v) => self.var(v).read_plan.as_deref(),
            AccessRef::WriteVar(v) => self.var(v).write_plan.as_deref(),
            AccessRef::ReadStruct(s) => self.strct(s).read_plan.as_deref(),
            AccessRef::WriteStruct(s) => self.strct(s).write_plan.as_deref(),
            AccessRef::Superplan(i) => self.superplans.get(i).map(|sp| &sp.plan),
        }
    }

    /// Every planned access with its plan, in the canonical order:
    /// variables (each one's read, then its write), then structures
    /// likewise, then superplans, each in id order. Dispatch points are
    /// numbered in this order, so their ranges follow one another.
    pub fn accesses(&self) -> impl Iterator<Item = (AccessRef, &AccessPlan)> {
        let vars = self.vars.iter().enumerate().flat_map(|(i, v)| {
            let vid = VarId(i as u32);
            [(AccessRef::ReadVar(vid), &v.read_plan), (AccessRef::WriteVar(vid), &v.write_plan)]
        });
        let structs = self.structs.iter().enumerate().flat_map(|(i, s)| {
            let sid = StructId(i as u32);
            [
                (AccessRef::ReadStruct(sid), &s.read_plan),
                (AccessRef::WriteStruct(sid), &s.write_plan),
            ]
        });
        let planned = vars.chain(structs).filter_map(|(a, p)| p.as_deref().map(|p| (a, p)));
        let fused =
            self.superplans.iter().enumerate().map(|(i, sp)| (AccessRef::Superplan(i), &sp.plan));
        planned.chain(fused)
    }

    /// The dispatch points of an access, one per plan variant (empty
    /// for an access without a plan). Point `first_point + i` is
    /// variant `i`; points are numbered once, densely, in
    /// [`DeviceIr::accesses`] order, and [`DeviceIr::fuse`] appends a
    /// superplan's points without renumbering earlier ones.
    pub fn points(&self, access: AccessRef) -> Range<usize> {
        self.plan(access).map_or(0..0, AccessPlan::points)
    }

    /// The number of dispatch points: the length of a runtime hit table.
    pub fn dispatch_points(&self) -> usize {
        self.dispatch_points
    }

    /// The name of an access ([`AccessRef::name`]).
    pub fn access_name(&self, access: AccessRef) -> String {
        access.name(match access {
            AccessRef::ReadVar(v) | AccessRef::WriteVar(v) => &self.var(v).name,
            AccessRef::ReadStruct(s) | AccessRef::WriteStruct(s) => &self.strct(s).name,
            AccessRef::Superplan(i) => &self.superplans[i].name,
        })
    }
}

#[cfg(test)]
mod tests;
