//! Deliberately-broken compiled surfaces: one mutation per diagnostic
//! class, each applied to a spec that verifies clean beforehand,
//! proving every class actually fires on the defect it documents —
//! plus one stranded variant, which the coverage corpus catches.
//!
//! The mutations edit the public IR the way a buggy compiler pass
//! would — an oversized variant table, cleared selector sourcing, orphaned
//! owner maps, bit-flipped fused bodies — and each test asserts the
//! expected class is present in the report (co-firing classes are
//! legal: one defect often violates several properties at once).

use devil_fuzz::coverage::{corpus, hits, stream_ops, Coverage};
use devil_ir::{DeviceIr, PlanStep};
use devil_verify::DiagClass;
use std::sync::Arc;

/// One lowered spec from the embedded library, superplans installed.
fn ir_of(name: &str) -> DeviceIr {
    devil_fuzz::spec_library()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or_else(|| panic!("no embedded spec named {name}"), |(_, ir)| ir)
}

/// Asserts the spec is clean before mutation and that `class` fires
/// after `mutate` is applied.
fn assert_fires(name: &str, class: DiagClass, mutate: impl FnOnce(&mut DeviceIr)) {
    let mut ir = ir_of(name);
    assert!(devil_verify::verify(&ir).clean(), "{name}: baseline must be clean before mutation");
    mutate(&mut ir);
    let report = devil_verify::verify(&ir);
    assert!(
        report.diagnostics.iter().any(|d| d.class == class),
        "{name}: expected a {} diagnostic, got:\n{}",
        class.label(),
        report.diagnostics.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
    assert!(!report.clean(), "{name}: mutated IR must not verify clean");
}

/// A variant table one longer than the selector's mixed-radix space:
/// the extra variant has no guard expectation the selector can pin,
/// so no state selects it.
#[test]
fn corrupted_guard_expectation_fires_selector_mismatch() {
    assert_fires("selfw", DiagClass::SelectorMismatch, |ir| {
        let wi = ir.vars.iter().position(|v| v.name == "w").unwrap();
        let plan = Arc::make_mut(ir.vars[wi].write_plan.as_mut().unwrap());
        let extra = plan.variants[1].clone();
        plan.variants.push(extra);
    });
}

/// A selector dimension with its cache sourcing stripped: the
/// enumerated bit becomes unobservable (the derived guards are empty),
/// so variants differing only there share their domains.
#[test]
fn unobservable_selector_bit_fires_guard_overlap() {
    assert_fires("nestede", DiagClass::GuardOverlap, |ir| {
        let si = ir.structs.iter().position(|s| s.name == "s").unwrap();
        let plan = Arc::make_mut(ir.structs[si].write_plan.as_mut().unwrap());
        plan.selector[0].segs.clear();
    });
}

/// A selector whose radix under-counts the observable value space: the
/// cache segment can assemble a value beyond the enumerated variants,
/// so selection could miss with no cell fallback.
#[test]
fn undersized_radix_fires_non_exhaustive() {
    assert_fires("nestede", DiagClass::NonExhaustive, |ir| {
        let si = ir.structs.iter().position(|s| s.name == "s").unwrap();
        let plan = Arc::make_mut(ir.structs[si].write_plan.as_mut().unwrap());
        plan.selector[0].radix = 1;
        plan.variants.truncate(1);
    });
}

/// A tested memory cell with every feed removed: `memw`'s `m` is only
/// ever fed through the functional write interface (the writable flag,
/// its compiled cell-store plan, and that plan's arena step), so
/// severing all three strands the `m == 1` variants (plain write and
/// fused superplan alike). Variant liveness is the coverage corpus's
/// to decide, not a verifier pass's: drawn from the corrupted IR, the
/// corpus no longer completes and names exactly those two variants.
#[test]
fn unfeedable_tested_cell_fires_dead_variant() {
    let coverage = |ir: &DeviceIr| {
        let mut cov = Coverage::new(ir);
        for words in corpus(ir) {
            cov.merge(&hits(ir, stream_ops(ir, &words)));
        }
        cov
    };
    let mut ir = ir_of("memw");
    assert!(coverage(&ir).complete(), "memw: baseline corpus must reach every point");
    let mi = ir.vars.iter().position(|v| v.mem_cell.is_some()).unwrap();
    let mc = ir.vars[mi].mem_cell.unwrap();
    ir.vars[mi].writable = false;
    ir.vars[mi].write_plan = None;
    let mut steps = ir.plan_arena.to_vec();
    for s in &mut steps {
        if let PlanStep::SetCell { cell, value, .. } = s {
            if *cell == mc {
                *value = devil_ir::PlanValue::Const(0);
            }
        }
    }
    ir.plan_arena = steps.into();
    let cov = coverage(&ir);
    assert!(!cov.complete(), "memw: the corpus must not reach the m == 1 variants");
    assert_eq!(cov.unreached(&ir), ["write w variant 1/2", "superplan burst variant 1/2"]);
}

/// A fused assemble step retargeted at a cache slot nothing in the
/// stage or the variant prefix wrote: the read could observe an
/// invalid (stale) slot.
#[test]
fn assemble_from_unwritten_slot_fires_ungated_read() {
    assert_fires("ide", DiagClass::UngatedRead, |ir| {
        // First fused variant containing an assemble step, with its
        // stage range (all as plain indices, so the borrow ends here).
        let (stage, start, asm) = ir
            .superplans()
            .iter()
            .find_map(|sp| {
                sp.plan.variants.iter().find_map(|v| {
                    let (start, len) = (v.start as usize, v.len as usize);
                    (start..start + len)
                        .find(|&i| matches!(ir.plan_arena[i], PlanStep::Assemble { .. }))
                        .map(|asm| ((sp.stage.start as usize, sp.stage.len as usize), start, asm))
                })
            })
            .expect("ide has a fused variant with an assemble step");
        // Every flat slot the stage or the variant prefix can write.
        let mut written = vec![false; ir.cache_slots];
        let mark = |steps: &[PlanStep], written: &mut Vec<bool>| {
            for step in steps {
                let slot = match step {
                    PlanStep::Read(a) | PlanStep::Write { access: a, .. } => &a.slot,
                    PlanStep::Store(slot, _) => slot,
                    _ => continue,
                };
                let (lo, hi) = match slot {
                    devil_ir::PlanSlot::Fixed(i) => (*i, i + 1),
                    devil_ir::PlanSlot::Indexed { base, dims } => {
                        let span: usize =
                            dims.iter().map(|(_, d)| d.count.saturating_sub(1) * d.stride).sum();
                        (*base, base + span + 1)
                    }
                };
                for s in lo..hi.min(written.len()) {
                    written[s] = true;
                }
            }
        };
        let mut steps = ir.plan_arena.to_vec();
        mark(&steps[stage.0..stage.0 + stage.1], &mut written);
        mark(&steps[start..asm], &mut written);
        let stale = written.iter().position(|&w| !w).expect("some slot is unwritten in the prefix");
        let PlanStep::Assemble { segs, .. } = &mut steps[asm] else { unreachable!() };
        segs[0].0 = stale;
        ir.plan_arena = steps.into();
    });
}

/// A write compose forcing a constant bit outside the owning register's
/// declared width.
#[test]
fn out_of_width_compose_bit_fires_store_mask() {
    assert_fires("busmouse", DiagClass::StoreMask, |ir| {
        let mut steps = ir.plan_arena.to_vec();
        let step = steps
            .iter_mut()
            .find_map(|s| match s {
                PlanStep::Write { compose: c, .. } | PlanStep::Store(_, c) => Some(&mut c.const_or),
                _ => None,
            })
            .expect("busmouse arena has a composed write or store");
        *step |= 1 << 63;
        ir.plan_arena = steps.into();
    });
}

/// A vectored block transfer whose word width is not the declared
/// port's access width.
#[test]
fn wrong_block_width_fires_block_bounds() {
    assert_fires("ne2000", DiagClass::BlockBounds, |ir| {
        let mut steps = ir.plan_arena.to_vec();
        let size = steps
            .iter_mut()
            .find_map(|s| match s {
                PlanStep::BlockIn { size, .. } | PlanStep::BlockOut { size, .. } => Some(size),
                _ => None,
            })
            .expect("ne2000 arena has a block transfer step");
        *size *= 2;
        ir.plan_arena = steps.into();
    });
}

/// A register that stops claiming its cache slot while the lowered
/// reverse map (and every compiled step) still names it as the owner.
#[test]
fn orphaned_slot_claim_fires_owner_map() {
    assert_fires("busmouse", DiagClass::OwnerMap, |ir| {
        let ri = ir.regs.iter().position(|r| r.slot.is_some()).unwrap();
        ir.regs[ri].slot = None;
    });
}

/// A fused body whose device write diverges from the unfused op-by-op
/// reference by one in-width constant bit: structurally well-formed,
/// caught only by the symbolic equivalence proof.
#[test]
fn bit_flipped_fused_write_fires_fused_divergence() {
    assert_fires("selfw", DiagClass::FusedDivergence, |ir| {
        let sp = &ir.superplans()[0];
        let v0 = &sp.plan.variants[0];
        let (start, len) = (v0.start as usize, v0.len as usize);
        let mut steps = ir.plan_arena.to_vec();
        let compose = steps[start..start + len]
            .iter_mut()
            .find_map(|s| match s {
                PlanStep::Write { compose: c, .. } => Some(c),
                _ => None,
            })
            .expect("selfw fused variant has a device write");
        compose.const_or ^= 0x2;
        ir.plan_arena = steps.into();
    });
}

/// The divergence mutation is invisible to every structural pass: the
/// symbolic proof is the only thing standing between it and shipping.
#[test]
fn fused_divergence_is_structurally_invisible() {
    let mut ir = ir_of("selfw");
    let sp = &ir.superplans()[0];
    let v0 = &sp.plan.variants[0];
    let (start, len) = (v0.start as usize, v0.len as usize);
    let mut steps = ir.plan_arena.to_vec();
    for s in &mut steps[start..start + len] {
        if let PlanStep::Write { compose: c, .. } = s {
            c.const_or ^= 0x2;
            break;
        }
    }
    ir.plan_arena = steps.into();
    let report = devil_verify::verify(&ir);
    assert!(
        report.diagnostics.iter().all(|d| d.class == DiagClass::FusedDivergence),
        "only the symbolic pass should fire, got:\n{}",
        report.diagnostics.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
    assert!(!report.diagnostics.is_empty());
}

/// A memory-cell store that keeps bits past its variable's width: the
/// cell could then hold a value its guards do not enumerate, which is
/// exactly what the exhaustiveness proof rules out.
#[test]
fn unmasked_cell_store_fires_store_mask() {
    assert_fires("memw", DiagClass::StoreMask, |ir| {
        let mut steps = ir.plan_arena.to_vec();
        for s in &mut steps {
            if let PlanStep::SetCell { mask, .. } = s {
                *mask = u64::MAX;
            }
        }
        ir.plan_arena = steps.into();
    });
}

/// An access lowering could not plan — a variable spanning two
/// instances of one register family — is reported, not skipped.
#[test]
fn unplanned_access_fires_unplanned() {
    let model = devil_sema::check_source(
        r#"device d (base : bit[8] port @ {0..1}) {
            register f(i : int{0..1}) = write base @ i : bit[8];
            variable w = f(1)[0] # f(0)[0] : int(2);
            variable rest1 = f(1)[7..1] : int(7);
        }"#,
        &[],
    )
    .expect("spec checks");
    let report = devil_verify::verify(&devil_ir::lower(&model));
    let unplanned: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.class == DiagClass::Unplanned)
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        unplanned,
        ["[unplanned] write w: variable `w` spans multiple instances of one register family"]
    );
    assert!(!report.clean());
}
