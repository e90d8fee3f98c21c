//! The emitters' view of the precompiled plans: which accesses have a
//! stub at all, and whether a plan can be rendered as straight-line
//! stub code.
//!
//! Both back ends lower stub bodies from [`devil_ir::PlanStep`] arena
//! ranges — the same lowering the plan executor executes — so
//! generated code and interpreter cannot diverge. An access only gets a
//! stub when its plan is *emittable*: every step touches a concrete
//! (non-family) register through a fixed slot and constant offset, every
//! guard tests a slot owned by a concrete register, and the guard-split
//! variant count stays within [`VARIANT_EMIT_CAP`]. Everything else —
//! family registers, hashed caches, the documented guard-split fallback
//! causes — keeps the interpreter API, marked by a comment in the
//! output.

use devil_ir::{
    AccessPlan, DeviceIr, GuardSource, PlanGuard, PlanOffset, PlanSlot, PlanStep, PlanValue,
};
use devil_sema::model::{StructId, VarId};
use std::fmt;

/// Cap on emitted guard-split variants: each variant duplicates its
/// straight-line steps in the stub body, so very wide guard domains
/// (the lowerer allows up to 4096 variants) keep the interpreter API
/// instead of exploding the generated text.
pub const VARIANT_EMIT_CAP: usize = 64;

/// Whether a compiled plan can be lowered to stub text: all steps on
/// concrete registers (fixed slots, constant offsets, no family
/// arguments), every guard source renderable (see [`guard_emittable`]),
/// and a bounded variant count.
pub fn plan_emittable(ir: &DeviceIr, plan: &AccessPlan) -> bool {
    if plan.variants.is_empty() || plan.variants.len() > VARIANT_EMIT_CAP {
        return false;
    }
    plan.variants.iter().enumerate().all(|(k, v)| {
        plan.guards(k).all(|g| guard_emittable(ir, &g))
            && ir.variant_steps(v).iter().all(|step| step_emittable(ir, step))
    }) && plan.assemble.iter().all(|(slot, _)| fixed_owned(ir, slot))
}

/// Whether a step's slot is a concrete register's: resolved without
/// family arguments, with an owner to name its cache field after.
fn fixed_owned(ir: &DeviceIr, slot: &PlanSlot) -> bool {
    slot.fixed().is_some_and(|s| ir.slot_owner(s).is_some())
}

/// Whether a guard's source can be rendered in stub text. Exhaustive
/// over [`GuardSource`] — a future source must be classified here
/// before anything emits, so it can be rejected but never mis-emitted.
fn guard_emittable(ir: &DeviceIr, g: &PlanGuard) -> bool {
    match g.source {
        GuardSource::Slot(s) => ir.slot_owner(s).is_some(),
        // The emitters have no cell-guard form yet: cell-guarded plans
        // stay behind the runtime API rather than being mis-emitted.
        GuardSource::Cell(_) => false,
        // The stub's own value argument; only write plans carry input
        // guards (the lowerer constructs them solely for the variable
        // being written), and write stubs always take `v`.
        GuardSource::Input => true,
    }
}

/// Whether one step can be rendered in stub text. Exhaustive over
/// [`PlanStep`] — a future step kind fails to compile here instead of
/// silently emitting wrong C/Rust.
fn step_emittable(ir: &DeviceIr, step: &PlanStep) -> bool {
    step_verdict(ir, step, false)
}

/// The shared verdict behind [`step_emittable`] and
/// [`superplan_emittable`]. `superplan` relaxes the value rule: a fused
/// body's `Arg` operands become stub parameters (`a0`, `a1`, ...),
/// whereas in variable/structure plans `Arg` marks a family argument no
/// stub can supply. The block and assemble kinds only ever appear in
/// fused bodies (`DeviceIr::fuse` is their sole producer).
fn step_verdict(ir: &DeviceIr, step: &PlanStep, superplan: bool) -> bool {
    let value_ok = |v: &PlanValue| match v {
        PlanValue::Input | PlanValue::Const(_) => true,
        PlanValue::Arg(_) => superplan,
    };
    match step {
        PlanStep::Read(a) => {
            ir.reg(a.reg).slot.is_some() && matches!(a.offset, PlanOffset::Const(_))
        }
        PlanStep::Write { access: a, compose: c, .. } => {
            ir.reg(a.reg).slot.is_some()
                && matches!(a.offset, PlanOffset::Const(_))
                && c.segs.iter().all(|ws| value_ok(&ws.value))
        }
        PlanStep::Store(slot, c) => {
            fixed_owned(ir, slot) && c.segs.iter().all(|ws| value_ok(&ws.value))
        }
        PlanStep::SetCell { value, .. } => value_ok(value),
        // Fused block transfers bind a constant port/offset/size by
        // construction (`DeviceIr::fuse` rejects everything else).
        PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } => superplan,
        // Per-op output assembly: every segment must name a cache field.
        PlanStep::Assemble { segs, .. } => {
            superplan && segs.iter().all(|(s, _)| ir.slot_owner(*s).is_some())
        }
    }
}

/// Whether a fused superplan can be lowered to stub text: same rules as
/// [`plan_emittable`] (owned guard slots, bounded variant count) over
/// the entry stage plus every fused variant, with the superplan's `Arg`
/// operands admitted as stub parameters. Cell-guarded superplans keep
/// the interpreter API like every other cell-guarded plan — the
/// emitted exhaustive chain has no out-of-domain fallback.
pub fn superplan_emittable(ir: &DeviceIr, sp: &devil_ir::Superplan) -> bool {
    if sp.plan.variants.is_empty() || sp.plan.variants.len() > VARIANT_EMIT_CAP {
        return false;
    }
    ir.variant_steps(&sp.stage).iter().all(|s| step_verdict(ir, s, true))
        && sp.plan.variants.iter().enumerate().all(|(k, v)| {
            sp.plan.guards(k).all(|g| guard_emittable(ir, &g))
                && ir.variant_steps(v).iter().all(|s| step_verdict(ir, s, true))
        })
}

/// The fixed slots behind an emittable read plan's assemble list —
/// shared by both back ends so `PlanSlot` handling cannot diverge.
pub fn assemble_slots(plan: &AccessPlan) -> Vec<(usize, devil_ir::FieldSeg)> {
    plan.assemble
        .iter()
        .map(|(slot, seg)| (slot.fixed().expect("emittable plans assemble from fixed slots"), *seg))
        .collect()
}

/// The stub surface one device exposes: which variables and structures
/// get which generated entry points. Shared by the C and Rust emitters
/// and by the compiled-code differential oracle (which must know what
/// it can call).
#[derive(Clone, Debug, Default)]
pub struct StubApi {
    /// Full-access read stubs (the interpreter's `read_id` semantics):
    /// plan-covered register variables plus memory cells.
    pub read_vars: Vec<VarId>,
    /// Write-through stubs (`write_id` semantics): plan-covered
    /// register variables plus set-action-free memory cells.
    pub write_vars: Vec<VarId>,
    /// Cache-assemble getters for structure fields (`get_field_id`).
    pub field_getters: Vec<VarId>,
    /// Cache-staging setters for structure fields (`set_field_id`).
    pub field_stagers: Vec<VarId>,
    /// Structure readers (`read_struct_id`).
    pub read_structs: Vec<StructId>,
    /// Structure flushes (`write_struct_id`).
    pub write_structs: Vec<StructId>,
    /// Fused superplans (`run_superplan` semantics): indices into
    /// [`DeviceIr::superplans`] whose fused body is emittable.
    pub superplans: Vec<usize>,
}

impl StubApi {
    /// Computes the emitted surface of a lowered device.
    pub fn of(ir: &DeviceIr) -> StubApi {
        let mut api = StubApi::default();
        for (vi, var) in ir.vars.iter().enumerate() {
            let vid = VarId(vi as u32);
            if var.params.is_empty() {
                let emittable = |plan: &Option<std::sync::Arc<AccessPlan>>| -> bool {
                    plan.as_deref().is_some_and(|p| plan_emittable(ir, p))
                };
                if var.readable && (var.mem_cell.is_some() || emittable(&var.read_plan)) {
                    api.read_vars.push(vid);
                }
                let mem_write_ok = var.mem_cell.is_some() && var.set.is_empty();
                if var.writable && (mem_write_ok || emittable(&var.write_plan)) {
                    api.write_vars.push(vid);
                }
            }
            if var.parent.is_some() {
                if var.mem_cell.is_some() || var.slot_assemble.is_some() {
                    api.field_getters.push(vid);
                }
                let stageable =
                    var.mem_cell.is_some() || var.segs.iter().all(|s| ir.reg(s.reg).slot.is_some());
                if stageable {
                    api.field_stagers.push(vid);
                }
            }
        }
        for (si, st) in ir.structs.iter().enumerate() {
            let sid = StructId(si as u32);
            if st.read_plan.as_deref().is_some_and(|p| plan_emittable(ir, p)) {
                api.read_structs.push(sid);
            }
            if st.write_plan.as_deref().is_some_and(|p| plan_emittable(ir, p)) {
                api.write_structs.push(sid);
            }
        }
        for (si, sp) in ir.superplans().iter().enumerate() {
            if superplan_emittable(ir, sp) {
                api.superplans.push(si);
            }
        }
        api
    }

    /// Whether `vid` has a full-read stub.
    pub fn reads_var(&self, vid: VarId) -> bool {
        self.read_vars.contains(&vid)
    }

    /// Whether `vid` has a write-through stub.
    pub fn writes_var(&self, vid: VarId) -> bool {
        self.write_vars.contains(&vid)
    }

    /// Whether `vid` has a cache-assemble field getter.
    pub fn gets_field(&self, vid: VarId) -> bool {
        self.field_getters.contains(&vid)
    }

    /// Whether `vid` has a cache-staging field setter.
    pub fn stages_field(&self, vid: VarId) -> bool {
        self.field_stagers.contains(&vid)
    }

    /// Whether superplan `sid` has a fused stub.
    pub fn emits_superplan(&self, sid: usize) -> bool {
        self.superplans.contains(&sid)
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
        let api = StubApi::of(&ir);
        let init = ir.struct_id("init").unwrap();
        assert!(api.write_structs.contains(&init), "guard-split init flush is emittable");
        assert!(api.read_structs.is_empty(), "icw registers are write-only");
        let ic4 = ir.var_id("ic4").unwrap();
        assert!(api.writes_var(ic4) && api.stages_field(ic4) && api.gets_field(ic4));
        assert!(!api.reads_var(ic4), "no read plan on a write-only register");
    }

    #[test]
    fn family_backed_plans_are_not_emittable() {
        // `sel` lives on a family instance: its guard slot has no
        // concrete owner, so the conditional flush keeps the
        // interpreter API even though the plan itself compiled.
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
        let api = StubApi::of(&ir);
        assert!(api.write_structs.is_empty());
        if let Some(plan) = ir.strct(ir.struct_id("s").unwrap()).write_plan.as_deref() {
            assert!(!plan_emittable(&ir, plan));
        }
    }

    /// Audit: every `PlanStep` and `GuardSource` kind has an explicit
    /// emittability verdict, exercised end to end through specs that
    /// produce each kind. The matches in `step_emittable` and
    /// `guard_emittable` are exhaustive (no `_` arm), so adding a step
    /// or source kind breaks this crate's build until it is classified
    /// — it can be rejected, but never silently mis-emitted.
    #[test]
    fn every_step_and_guard_kind_has_an_emit_verdict() {
        use devil_ir::{GuardSource, PlanGuard, PlanStep};
        // A spec producing Read, Write, Store and SetCell steps plus
        // Slot- and Input-sourced guards, all emittable.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..2}) {
                 private variable pm : bool;
                 register a = write base @ 0, set {pm = true} : bit[8];
                 register c = write base @ 1 : bit[8];
                 register r = read base @ 2 : bit[8];
                 variable rv = r, volatile : int(8);
                 variable t = a[1] : bool;
                 variable resta = a[7..2] : int(6);
                 variable restc = c[7..1] : int(7);
                 variable q = c[0] : bool serialized as { if (t == true) c; };
                 variable w = a[0] : bool serialized as { if (w == true) a; };
               }"#,
        );
        let mut kinds = [false; 4]; // Read, Write, Store, SetCell
        let mut sources = [false; 2]; // Slot, Input
        let mut all_plans: Vec<&devil_ir::AccessPlan> = Vec::new();
        for v in &ir.vars {
            all_plans.extend(v.read_plan.as_deref());
            all_plans.extend(v.write_plan.as_deref());
        }
        for plan in &all_plans {
            assert!(plan_emittable(&ir, plan), "concrete-surface plans must emit");
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
                        GuardSource::Cell(_) => panic!("no cell guard in this spec"),
                    }
                }
            }
        }
        assert_eq!(
            kinds, [true; 4],
            "spec must exercise every step kind (Read/Write/Store/SetCell)"
        );
        assert_eq!(sources, [true; 2], "spec must exercise Slot and Input guard sources");
        // The remaining source kind, Cell, is the rejected one: a
        // cell-guarded plan compiles for the interpreter but keeps the
        // interpreter API in both emitters.
        let cell_guard = PlanGuard { source: GuardSource::Cell(0), mask: u64::MAX, expected: 1 };
        assert!(!guard_emittable(&ir, &cell_guard));
        let slot_guard = PlanGuard {
            source: GuardSource::Slot(ir.reg(ir.reg_id("a").unwrap()).slot.unwrap()),
            mask: 1,
            expected: 1,
        };
        assert!(guard_emittable(&ir, &slot_guard));
        let input_guard = PlanGuard { source: GuardSource::Input, mask: 1, expected: 0 };
        assert!(guard_emittable(&ir, &input_guard));
    }

    #[test]
    fn cell_guarded_plans_keep_the_interpreter_api() {
        // Mem-cell tested conditional: the plan compiles (the
        // interpreter dispatches on it) but neither emitter renders it.
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
        let plan = ir.var(w).write_plan.as_deref().expect("cell-guarded plan compiles");
        assert!(!plan_emittable(&ir, plan), "cell guards must be rejected, not mis-emitted");
        let api = StubApi::of(&ir);
        assert!(!api.writes_var(w));
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
        let api = StubApi::of(&ir);
        let xm = ir.var_id("xm").unwrap();
        assert!(api.reads_var(xm) && api.writes_var(xm), "plain cell round-trips");
        let ia = ir.var_id("IA").unwrap();
        assert!(api.reads_var(ia) && api.writes_var(ia), "set-action folds into IA's plan");
    }
}
