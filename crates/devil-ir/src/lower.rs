//! Lowering: the checked model's registers, variables and structures
//! as indexed IR with its flat cache-slot layout, then every access
//! compiled to plans.

use crate::compile::{compile_struct_plans, compile_var_plans, CompileEnv};
use crate::{
    AccessPlan, DeviceIr, FamilyDim, FamilySlots, FieldSeg, PlanFallback, PlanStep, PortIr, RegIr,
    StructIr, VarIr, VarSeg,
};
use devil_sema::model::{CheckedDevice, FamilyParam, RegId, SerStep, StructId, VarId};
use std::sync::Arc;

/// Cap on the number of flat cache slots allocated to one register
/// family (the product of its parameter-domain sizes). Accesses to
/// families with larger domains compile no plan (see
/// [`DeviceIr::plan_fallbacks`]); only the reference interpreter's
/// hashed cache serves them.
const FAMILY_SLOT_CAP: u128 = 4096;

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
    // Dispatch points number every variant once, in the canonical
    // order of `DeviceIr::accesses`.
    let mut dispatch_points = 0;
    let mut number = |plan: Option<Arc<AccessPlan>>| {
        plan.map(|mut plan| {
            let p = Arc::get_mut(&mut plan).expect("a freshly compiled plan is unshared");
            p.first_point = dispatch_points as u32;
            dispatch_points += p.variants.len();
            plan
        })
    };
    for (vi, (read_plan, write_plan)) in var_plans.into_iter().enumerate() {
        vars[vi].read_plan = number(read_plan);
        vars[vi].write_plan = number(write_plan);
    }
    for (si, (read_plan, write_plan)) in struct_plans.into_iter().enumerate() {
        structs[si].read_plan = number(read_plan);
        structs[si].write_plan = number(write_plan);
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
    // declaration order, but diagnostics need an order that is stable
    // under refactors of the compile passes.
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
        dispatch_points,
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
