//! What both emitters share: the cache-only field accessors and how a
//! plan slot names its cache field.
//!
//! An access has a stub in both back ends exactly when
//! [`DeviceIr::plan`] is `Some`, lowered from the plan's
//! [`devil_ir::PlanStep`] arena ranges — the steps the plan executor
//! runs. An access without a plan has no stub; the runtime rejects it
//! too (`NotReadable`, `NotWritable` or `Unplanned`). A register family
//! caches in one array per field, laid out like
//! [`devil_ir::FamilySlots`] and indexed through one emitted helper per
//! family that follows [`devil_ir::FamilyDim::index_of`].

use devil_ir::{
    DeviceIr, FamilyDim, FamilySlots, FieldSeg, PlanOffset, PlanSlot, PlanValue, VarIr,
};
use devil_sema::model::Offset;
use std::fmt;

/// Whether a structure field has a cache getter (`get_field_id`
/// semantics): a memory cell, or bits on concrete registers only.
pub fn gets_field(var: &VarIr) -> bool {
    var.parent.is_some() && (var.mem_cell.is_some() || var.slot_assemble.is_some())
}

/// Whether a structure field has a cache stager (`set_field_id`
/// semantics): a memory cell, or bits on concrete registers only.
pub fn stages_field(ir: &DeviceIr, var: &VarIr) -> bool {
    var.parent.is_some()
        && (var.mem_cell.is_some() || var.segs.iter().all(|s| ir.reg(s.reg).slot.is_some()))
}

/// The register families with an indexed slot range: the ones that
/// get a cache array and an index helper.
pub(crate) fn families(ir: &DeviceIr) -> impl Iterator<Item = (&devil_ir::RegIr, &FamilySlots)> {
    ir.regs.iter().filter_map(|r| r.family_slots.as_ref().map(|fs| (r, fs)))
}

/// The cache field behind a plan slot: the owning register's field,
/// and for a family instance the arguments its index helper takes —
/// one operand per family parameter, in parameter order.
pub(crate) struct Field<'a> {
    /// The register the field is named after (`cache_<reg>`).
    pub reg: &'a str,
    /// `None` for a concrete register's field.
    pub args: Option<Vec<PlanValue>>,
}

impl<'a> Field<'a> {
    /// The field of a plan slot. A family instance's arguments are the
    /// stub's own where the plan indexes by one, the constants folded
    /// into the slot elsewhere.
    pub fn of(ir: &'a DeviceIr, slot: &PlanSlot) -> Field<'a> {
        let (base, _) = slot.span();
        if let Some(rid) = ir.slot_owner(base) {
            return Field { reg: &ir.reg(rid).name, args: None };
        }
        let (rid, folded) = ir.family_slot_owner(base).expect("every plan slot has an owner");
        let fs = ir.reg(rid).family_slots.as_ref().expect("a family's slot range");
        let mut by_arg = match slot {
            PlanSlot::Indexed { dims, .. } => dims.iter().peekable(),
            PlanSlot::Fixed(_) => [].iter().peekable(),
        };
        let args = fs
            .dims
            .iter()
            .map(|d| {
                match by_arg.next_if(|(_, pd)| pd.stride == d.stride && pd.ranges == d.ranges) {
                    Some(&(arg, _)) => PlanValue::Arg(arg),
                    None => PlanValue::Const(value_at(d, folded / d.stride % d.count)),
                }
            })
            .collect();
        Field { reg: &ir.reg(rid).name, args: Some(args) }
    }
}

/// A step's port offset as an operand (a family argument or a constant).
pub(crate) fn offset_operand(offset: PlanOffset) -> PlanValue {
    match offset {
        PlanOffset::Const(c) => PlanValue::Const(c),
        PlanOffset::Arg(i) => PlanValue::Arg(i),
    }
}

/// A fixed-slot assemble list (a field getter's, a fused read's) as
/// `(field, segment)` pairs.
pub(crate) fn fixed_pairs<'a>(
    ir: &'a DeviceIr,
    pairs: &'a [(usize, FieldSeg)],
) -> impl Iterator<Item = (Field<'a>, FieldSeg)> {
    pairs.iter().map(move |&(slot, seg)| (Field::of(ir, &PlanSlot::Fixed(slot)), seg))
}

/// The domain value at dense index `idx` of a family dimension: the
/// inverse of [`FamilyDim::index_of`].
fn value_at(dim: &FamilyDim, idx: usize) -> u64 {
    let &(lo, _, base) =
        dim.ranges.iter().rev().find(|&&(_, _, base)| base <= idx).expect("index in domain");
    lo + (idx - base) as u64
}

/// `FamilyDim::index_of` within one range, `base + (v - lo)`, with the
/// back end's integer-literal `suffix`.
pub(crate) struct Dense<'a>(pub &'a str, pub u64, pub usize, pub &'a str);

impl fmt::Display for Dense<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Dense(v, 0, 0, _) => f.write_str(v),
            Dense(v, lo, base, suffix) => write!(f, "{base} + ({v} - {lo:#x}{suffix})"),
        }
    }
}

/// A register primitive's port offset: a concrete register's constant
/// (`Some`), or the name of a family primitive's offset parameter.
pub(crate) struct PortOff<'a>(pub Option<&'a Offset>, pub &'a str);

impl fmt::Display for PortOff<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(Offset::Const(c)) => c.fmt(f),
            Some(Offset::Param(_)) => unreachable!("concrete register with parameterized offset"),
            None => f.write_str(self.1),
        }
    }
}

/// `base` shifted left by `shift` bits (right when negative), as the
/// `(base << k)` / `(base >> k)` expression both emitters print;
/// formatted straight into the caller's buffer.
pub(crate) struct Shift<T>(pub T, pub i64);

impl<T: fmt::Display> fmt::Display for Shift<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Shift(base, shift) = self;
        match shift.cmp(&0) {
            std::cmp::Ordering::Equal => base.fmt(f),
            std::cmp::Ordering::Greater => write!(f, "({base} << {shift})"),
            std::cmp::Ordering::Less => write!(f, "({base} >> {})", -shift),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir_for(src: &str) -> DeviceIr {
        devil_ir::lower(&devil_sema::check_source(src, &[]).unwrap())
    }

    #[test]
    fn shipped_specs_expose_their_plan_surface() {
        let ir = ir_for(include_str!("../../../specs/pic8259.dil"));
        let init = ir.struct_id("init").unwrap();
        assert!(ir.strct(init).write_plan.is_some(), "guard-split init flush has a stub");
        assert!(ir.strct(init).read_plan.is_none(), "icw registers are write-only");
        let ic4 = ir.var(ir.var_id("ic4").unwrap());
        assert!(ic4.write_plan.is_some() && stages_field(&ir, ic4) && gets_field(ic4));
        assert!(ic4.read_plan.is_none(), "no read plan on a write-only register");
        let h = crate::emit_c(&ir, "pic");
        assert!(h.contains("#define pic_put_init()") && !h.contains("pic_get_init"), "{h}");
        assert!(h.contains("#define pic_set_ic4(v)") && !h.contains("pic_read_ic4"), "{h}");
    }

    #[test]
    fn family_backed_plans_emit() {
        // `sel` lives on a family instance: the guard of the conditional
        // flush tests its element of the family's cache array.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register f(i : int{0..1}) = base @ i, mask '.......*' : bit[8];
                 register a = write base @ 2 : bit[8];
                 register c = write base @ 3 : bit[8];
                 structure s = {
                   variable sel = f(1)[0], volatile : bool;
                   variable fa = a : int(8);
                   variable v = c : int(8);
                 } serialized as { a; if (sel == true) c; };
               }"#,
        );
        let sel = ir.var_id("sel").unwrap();
        let slot = ir.var(sel).read_plan.as_deref().expect("sel reads through a plan").assemble[0]
            .0
            .clone();
        let field = Field::of(&ir, &slot);
        assert_eq!((field.reg, field.args), ("f", Some(vec![PlanValue::Const(1)])));
        let h = crate::emit_c(&ir, "d");
        assert!(h.contains("#define d_put_s()"), "{h}");
        assert!(h.contains("(d_cache.cache_f[d__ix_f(0x1ull)] & 0x1ull) == 0x0ull"), "{h}");
        assert!(h.contains("d_cache.cache_f[d__ix_f(0x1ull)] = d__read_f(0x1ull)"), "{h}");
        let m = crate::emit_rust(&ir);
        assert!(m.contains("pub fn put_s(&mut self"), "{m}");
        assert!(m.contains("(self.cache_f[Self::ix_f(0x1)] & 0x1) == 0x0"), "{m}");
        assert!(m.contains("self.read_f(dev, Self::ix_f(0x1), 0x1);"), "{m}");
    }

    #[test]
    fn indexed_slots_name_their_family_arguments() {
        // A two-parameter family addressed with one constant and one
        // argument: the constant is recovered from the folded base, the
        // argument names the stub parameter, in parameter order.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register g(i : int{0..1}, j : int{2..3, 7}) = base @ i : bit[8];
                 variable w(j : int{2..3, 7}) = g(1, j), volatile : int(8);
               }"#,
        );
        let w = ir.var(ir.var_id("w").unwrap());
        let slot = w.read_plan.as_deref().expect("w reads through a plan").assemble[0].0.clone();
        let field = Field::of(&ir, &slot);
        assert_eq!(field.reg, "g");
        assert_eq!(field.args, Some(vec![PlanValue::Const(1), PlanValue::Arg(0)]));
        let fs = ir.reg(ir.reg_id("g").unwrap()).family_slots.as_ref().unwrap();
        assert_eq!(value_at(&fs.dims[1], 2), 7, "the third value of {{2..3, 7}}");
    }

    /// Every `PlanStep` and `GuardSource` kind appears in a spec whose
    /// plans both back ends emit.
    #[test]
    fn every_step_and_guard_kind_has_an_emit_verdict() {
        use devil_ir::{GuardSource, PlanStep};
        // A spec producing Read, Write, Store and SetCell steps plus
        // Slot-, Input- and Cell-sourced guards.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..2}) {
                 private variable pm : bool;
                 register a = write base @ 0, set {pm = true} : bit[8];
                 register c = write base @ 1 : bit[8];
                 register r = read base @ 2 : bit[8];
                 variable rv = r, volatile : int(8);
                 variable t = a[1] : bool;
                 variable resta = a[7..2] : int(6);
                 variable restc = c[7..2] : int(6);
                 variable q = c[0] : bool serialized as { if (t == true) c; };
                 variable w = a[0] : bool serialized as { if (w == true) a; };
                 variable m = c[1] : bool serialized as { if (pm == true) c; };
               }"#,
        );
        let mut kinds = [false; 4]; // Read, Write, Store, SetCell
        let mut sources = [false; 3]; // Slot, Input, Cell
        for (_, plan) in ir.accesses() {
            for (k, variant) in plan.variants.iter().enumerate() {
                for step in ir.variant_steps(variant) {
                    match step {
                        PlanStep::Read(_) => kinds[0] = true,
                        PlanStep::Write { .. } => kinds[1] = true,
                        PlanStep::Store(..) => kinds[2] = true,
                        PlanStep::SetCell { .. } => kinds[3] = true,
                        PlanStep::BlockIn { .. }
                        | PlanStep::BlockOut { .. }
                        | PlanStep::Assemble { .. } => {
                            panic!("fused steps never appear in variable/structure plans")
                        }
                    }
                }
                for g in plan.guards(k) {
                    match g.source {
                        GuardSource::Slot(_) => sources[0] = true,
                        GuardSource::Input => sources[1] = true,
                        GuardSource::Cell(_) => sources[2] = true,
                    }
                }
            }
        }
        assert_eq!(kinds, [true; 4], "spec must exercise every step kind");
        assert_eq!(sources, [true; 3], "spec must exercise every guard source");
        let (h, m) = (crate::emit_c(&ir, "d"), crate::emit_rust(&ir));
        for (vid, var) in ir.vars.iter().enumerate() {
            let vid = devil_sema::model::VarId(vid as u32);
            if var.write_plan.is_some() {
                assert!(h.contains(&format!("#define d_set_{}(v)", var.name)), "{vid:?}: {h}");
                assert!(m.contains(&format!("pub fn set_{}(&mut self", var.name)), "{vid:?}: {m}");
            }
        }
        assert!(h.contains("(d_cache.mem_pm == 0x0ull ?"), "cell guard: {h}");
        assert!(m.contains("if self.mem_pm == 0x0 {"), "cell guard: {m}");
    }

    #[test]
    fn cell_guarded_plans_emit() {
        // Mem-cell tested conditional: the guard tests the cell field
        // both emitters keep for the private variable.
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
        let w = ir.var_id("w").unwrap();
        assert!(ir.var(w).write_plan.is_some(), "cell-guarded plan compiles");
        let h = crate::emit_c(&ir, "d");
        assert!(h.contains("#define d_set_w(v) ( \\\n    (d_cache.mem_m == 0x0ull ?"), "{h}");
        let m = crate::emit_rust(&ir);
        assert!(m.contains("        if self.mem_m == 0x0 {"), "{m}");
    }

    #[test]
    fn memory_cells_round_trip_through_stubs() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        let h = crate::emit_c(&ir, "d");
        assert!(h.contains("#define d_get_xm()") && h.contains("#define d_set_xm(v)"), "{h}");
        assert!(h.contains("#define d_get_IA()"), "set-action folds into IA's plan: {h}");
        assert!(h.contains("#define d_set_IA(v)"), "set-action folds into IA's plan: {h}");
    }
}
