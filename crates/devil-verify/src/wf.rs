//! Step well-formedness: every arena step checked against the device's
//! declared domains, and the reverse provenance maps checked against
//! the registers and variables they index.
//!
//! Four families of proof obligations:
//!
//! * **owner maps** — `slot_owner` must be the exact inverse of the
//!   concrete registers' slot assignments, every flat slot must have a
//!   provenance (concrete or family range, never both), and `mem_owner`
//!   must be the exact inverse of the variables' cell assignments;
//! * **access domains** — a `Read`/`Write` step must use its register's
//!   declared binding (port and width) and address a slot the register
//!   actually owns;
//! * **compose masks** — every constant and segment a store or write
//!   composes must stay within the owning register's raw width, and
//!   stored segments must be cleared out of the kept bits (the
//!   store-compose algebra relies on the disjointness); a memory-cell
//!   store must mask to exactly its variable's raw width, which is what
//!   makes cell-guarded selection exhaustive (see [`crate::guards`]);
//! * **gated reads** — a superplan `Assemble` step reads slots raw, so
//!   every assembled slot must be written by a preceding step of the
//!   same fused body (stage included); variable read plans are exempt —
//!   the runtime gates their assembly dynamically (`serve_cached`
//!   requires every assemble slot valid before skipping the steps).

use crate::{spans_overlap, DiagClass, Diagnostic};
use devil_ir::{width_mask, AccessRef, Compose, DeviceIr, PlanStep, RegIr};
use devil_sema::model::RegId;

/// Checks the reverse provenance maps.
fn check_owner_maps(ir: &DeviceIr, diagnostics: &mut Vec<Diagnostic>) {
    let mut diag = |detail: String| {
        diagnostics.push(Diagnostic {
            class: DiagClass::OwnerMap,
            access: "device".into(),
            detail,
        });
    };
    for (ri, r) in ir.regs.iter().enumerate() {
        let rid = RegId(ri as u32);
        if let Some(s) = r.slot {
            if s >= ir.cache_slots {
                diag(format!("register {} claims slot {s} beyond {}", r.name, ir.cache_slots));
            } else if ir.slot_owner(s) != Some(rid) {
                diag(format!("slot_owner({s}) does not name its register {}", r.name));
            }
        }
        if let Some(fs) = &r.family_slots {
            if fs.base + fs.count > ir.cache_slots {
                diag(format!(
                    "family {} claims slots {}..{} beyond {}",
                    r.name,
                    fs.base,
                    fs.base + fs.count,
                    ir.cache_slots
                ));
            }
        }
    }
    for s in 0..ir.cache_slots {
        match (ir.slot_owner(s), ir.family_slot_owner(s)) {
            (Some(rid), _) if ir.reg(rid).slot != Some(s) => {
                diag(format!(
                    "slot_owner({s}) names {} which owns {:?}",
                    ir.reg(rid).name,
                    ir.reg(rid).slot
                ));
            }
            (None, None) => diag(format!("slot {s} has no owning register")),
            _ => {}
        }
    }
    for (vi, v) in ir.vars.iter().enumerate() {
        if let Some(c) = v.mem_cell {
            if c >= ir.mem_cells {
                diag(format!("variable {} claims cell {c} beyond {}", v.name, ir.mem_cells));
            } else if ir.mem_owner(c).map(|vid| vid.0 as usize) != Some(vi) {
                diag(format!("mem_owner({c}) does not name its variable {}", v.name));
            }
        }
    }
    for c in 0..ir.mem_cells {
        match ir.mem_owner(c) {
            Some(vid) if ir.var(vid).mem_cell == Some(c) => {}
            Some(vid) => diag(format!(
                "mem_owner({c}) names {} which owns {:?}",
                ir.var(vid).name,
                ir.var(vid).mem_cell
            )),
            None => diag(format!("cell {c} has no owning variable")),
        }
    }
}

/// Whether `rid` owns every slot `span` can resolve to.
fn reg_owns_span(ir: &DeviceIr, rid: RegId, span: (usize, usize)) -> bool {
    let r = ir.reg(rid);
    if r.slot.is_some_and(|s| span == (s, s + 1)) {
        return true;
    }
    r.family_slots.as_ref().is_some_and(|fs| fs.base <= span.0 && span.1 <= fs.base + fs.count)
}

/// Checks step `si`'s composition into register `r`: constants and
/// segments inside the register's raw width, and every stored segment
/// cleared out of the kept bits.
fn check_compose(si: usize, r: &RegIr, c: &Compose, diag: &mut dyn FnMut(DiagClass, String)) {
    let wm = width_mask(r.size);
    if c.const_or & !wm != 0 {
        diag(
            DiagClass::StoreMask,
            format!(
                "step {si}: composed constant {:#x} exceeds {}-bit {}",
                c.const_or, r.size, r.name
            ),
        );
    }
    for ws in &c.segs {
        let m = ws.seg.reg_mask();
        if m & !wm != 0 {
            diag(
                DiagClass::StoreMask,
                format!("step {si}: segment mask {m:#x} exceeds {}-bit {}", r.size, r.name),
            );
        }
        if m & c.keep_and != 0 {
            diag(
                DiagClass::StoreMask,
                format!("step {si}: kept bits overlap stored segment {m:#x} on {}", r.name),
            );
        }
    }
}

/// Checks one access/compose step's domains and masks, plus the
/// owner of any slot it stores to.
fn check_steps(
    ir: &DeviceIr,
    access: &str,
    in_superplan: bool,
    steps: &[PlanStep],
    written: &mut Vec<(usize, usize)>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let mut diag = |class: DiagClass, detail: String| {
        diagnostics.push(Diagnostic { class, access: access.to_string(), detail });
    };
    for (si, step) in steps.iter().enumerate() {
        match step {
            PlanStep::Read(a) | PlanStep::Write { access: a, .. } => {
                let Some(r) = ir.regs.get(a.reg.0 as usize) else {
                    diag(DiagClass::OwnerMap, format!("step {si} accesses unknown register"));
                    continue;
                };
                let binding = if matches!(step, PlanStep::Read(_)) { &r.read } else { &r.write };
                match binding {
                    None => diag(
                        DiagClass::BlockBounds,
                        format!("step {si}: register {} has no such binding", r.name),
                    ),
                    Some(b) if b.port.0 != a.port => diag(
                        DiagClass::BlockBounds,
                        format!(
                            "step {si}: register {} is bound to port {} not {}",
                            r.name, b.port.0, a.port
                        ),
                    ),
                    Some(_) => {}
                }
                if a.size != r.size {
                    diag(
                        DiagClass::BlockBounds,
                        format!(
                            "step {si}: {}-bit access to {}-bit register {}",
                            a.size, r.size, r.name
                        ),
                    );
                }
                match ir.ports.get(a.port as usize) {
                    Some(p) if p.width == a.size => {}
                    Some(p) => diag(
                        DiagClass::BlockBounds,
                        format!(
                            "step {si}: {}-bit access on {}-bit port {}",
                            a.size, p.width, p.name
                        ),
                    ),
                    None => diag(
                        DiagClass::BlockBounds,
                        format!("step {si}: port {} out of range", a.port),
                    ),
                }
                let span = a.slot.span();
                if !reg_owns_span(ir, a.reg, span) {
                    diag(
                        DiagClass::OwnerMap,
                        format!(
                            "step {si}: register {} does not own slot span {}..{}",
                            r.name, span.0, span.1
                        ),
                    );
                }
                if let PlanStep::Write { compose, out_or, .. } = step {
                    if out_or & !width_mask(r.size) != 0 {
                        diag(
                            DiagClass::StoreMask,
                            format!(
                                "step {si}: forced bits {out_or:#x} exceed {}-bit {}",
                                r.size, r.name
                            ),
                        );
                    }
                    check_compose(si, r, compose, &mut diag);
                }
                written.push(span);
            }
            PlanStep::Store(slot, c) => {
                let span = slot.span();
                let owner = ir
                    .slot_owner(span.0)
                    .or_else(|| ir.family_slot_owner(span.0).map(|(rid, _)| rid));
                match owner {
                    None => diag(
                        DiagClass::OwnerMap,
                        format!("step {si}: store to unowned slot {}", span.0),
                    ),
                    Some(rid) => {
                        let r = ir.reg(rid);
                        if !reg_owns_span(ir, rid, span) {
                            diag(
                                DiagClass::OwnerMap,
                                format!(
                                    "step {si}: store span {}..{} crosses out of {}",
                                    span.0, span.1, r.name
                                ),
                            );
                        }
                        check_compose(si, r, c, &mut diag);
                    }
                }
                written.push(span);
            }
            PlanStep::SetCell { cell, value, mask } => {
                if *cell >= ir.mem_cells {
                    diag(
                        DiagClass::OwnerMap,
                        format!("step {si}: set of cell {cell} beyond {}", ir.mem_cells),
                    );
                } else if let Some(owner) = ir.mem_owner(*cell).map(|v| ir.var(v)) {
                    let stray = match value {
                        devil_ir::PlanValue::Const(c) => c & !owner.raw_mask(),
                        _ => 0,
                    };
                    if *mask != owner.raw_mask() || stray != 0 {
                        diag(
                            DiagClass::StoreMask,
                            format!(
                                "step {si}: cell {} stores under mask {mask:#x}, not its \
                                 {}-bit width",
                                ir.cell_name(*cell),
                                owner.width
                            ),
                        );
                    }
                }
            }
            PlanStep::BlockIn { port, size, .. } | PlanStep::BlockOut { port, size, .. } => {
                if !in_superplan {
                    diag(
                        DiagClass::BlockBounds,
                        format!("step {si}: block transfer outside a superplan body"),
                    );
                }
                match ir.ports.get(*port as usize) {
                    Some(p) if p.width == *size => {}
                    Some(p) => diag(
                        DiagClass::BlockBounds,
                        format!(
                            "step {si}: {size}-bit block words on {}-bit port {}",
                            p.width, p.name
                        ),
                    ),
                    None => diag(
                        DiagClass::BlockBounds,
                        format!("step {si}: block port {port} out of range"),
                    ),
                }
            }
            PlanStep::Assemble { segs, .. } => {
                if !in_superplan {
                    diag(
                        DiagClass::UngatedRead,
                        format!("step {si}: assemble outside a superplan body"),
                    );
                    continue;
                }
                // Fused assembly reads slots raw, with no validity
                // gate: prove every read slot was written earlier in
                // this body (the zero-invariant alone would mask a
                // fusion that forgot the read step).
                for &(slot, _) in segs {
                    let span = (slot, slot + 1);
                    if !written.iter().any(|w| spans_overlap(*w, span)) {
                        diag(
                            DiagClass::UngatedRead,
                            format!(
                                "step {si}: assembles {} with no preceding read/store \
                                 in the fused body",
                                ir.slot_name(slot)
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Runs the well-formedness pass.
pub fn check(ir: &DeviceIr, diagnostics: &mut Vec<Diagnostic>) {
    check_owner_maps(ir, diagnostics);
    for (access, plan) in ir.accesses() {
        let name = ir.access_name(access);
        // Variant ranges must stay inside the arena before anything
        // dereferences them.
        let arena = ir.plan_arena.len() as u32;
        let stage = match access {
            AccessRef::Superplan(si) => Some(&ir.superplans()[si].stage),
            _ => None,
        };
        let ranges = plan.variants.iter().chain(stage);
        let mut bad_range = false;
        for (idx, v) in ranges.enumerate() {
            if v.start + v.len > arena {
                diagnostics.push(Diagnostic {
                    class: DiagClass::OwnerMap,
                    access: name.clone(),
                    detail: format!(
                        "variant {idx} range {}..{} exceeds the {arena}-step arena",
                        v.start,
                        v.start + v.len
                    ),
                });
                bad_range = true;
            }
        }
        if bad_range {
            continue;
        }
        for (idx, v) in plan.variants.iter().enumerate() {
            // Superplan bodies see the stage's writes first, exactly as
            // execution orders them.
            let mut written: Vec<(usize, usize)> = Vec::new();
            if let Some(stage) = stage {
                check_steps(
                    ir,
                    &name,
                    true,
                    ir.variant_steps(stage),
                    &mut written,
                    &mut Vec::new(), // stage re-checked once below
                );
            }
            check_steps(
                ir,
                &format!("{name} variant {idx}"),
                stage.is_some(),
                ir.variant_steps(v),
                &mut written,
                diagnostics,
            );
        }
        if let Some(stage) = stage {
            let mut written = Vec::new();
            check_steps(
                ir,
                &format!("{name} stage"),
                true,
                ir.variant_steps(stage),
                &mut written,
                diagnostics,
            );
        }
        // A variable read plan assembles through the runtime's dynamic
        // validity gate; still, the assembled slots must be owned.
        for (slot, _) in &plan.assemble {
            let span = slot.span();
            if ir.slot_owner(span.0).is_none() && ir.family_slot_owner(span.0).is_none() {
                diagnostics.push(Diagnostic {
                    class: DiagClass::UngatedRead,
                    access: name.clone(),
                    detail: format!("assembles from unowned slot {}", span.0),
                });
            }
        }
    }
}
