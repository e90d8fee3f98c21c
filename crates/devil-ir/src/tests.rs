//! Unit tests of lowering, plan compilation and the IR accessors.

#![cfg(test)]

use super::*;

fn ir_for(src: &str) -> DeviceIr {
    let model = devil_sema::check_source(src, &[]).expect("spec must check");
    lower(&model)
}

/// The arena steps of a plan's only, unguarded variant.
fn steps<'a>(ir: &'a DeviceIr, plan: &AccessPlan) -> &'a [PlanStep] {
    assert_eq!(plan.variants.len(), 1, "expected a straight-line plan");
    assert!(plan.guards(0).next().is_none(), "expected an unguarded plan");
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
    assert_eq!(st.order.len(), 4);
    let names: Vec<&str> = st
        .order
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
        .order
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
    assert_eq!((xa.segs[0].seg.reg_hi, xa.segs[0].seg.reg_lo, xa.segs[0].seg.var_lo), (2, 2, 4));
    assert_eq!((xa.segs[1].seg.reg_hi, xa.segs[1].seg.reg_lo, xa.segs[1].seg.var_lo), (7, 4, 0));
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
    let PlanStep::Write { access: step, compose, out_and, out_or } = &wsteps[0] else {
        panic!("write step")
    };
    assert!(matches!(step.offset, PlanOffset::Const(3)));
    assert_eq!(*out_or, 0b1001_0000);
    assert_eq!(*out_and, 0b1001_0001);
    assert_eq!(compose.segs.len(), 1);
    assert_eq!(compose.segs[0].value, PlanValue::Input);
    // `signature` reads a plain register: read plan with one step.
    let sig = ir.var(ir.var_id("signature").unwrap());
    let rp = sig.read_plan.as_ref().expect("sig_reg read plan");
    let rsteps = steps(&ir, rp);
    assert_eq!(rsteps.len(), 1);
    assert!(matches!(&rsteps[0], PlanStep::Read(a) if matches!(a.offset, PlanOffset::Const(1))));
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
    let PlanStep::Write { access: a0, compose: c0, .. } = &rsteps[0] else {
        panic!("index write first")
    };
    assert_eq!(a0.reg, idx_reg);
    // index=1 folded: bits 6..5 get 0b01.
    assert_eq!(c0.const_or, 0b0010_0000);
    assert!(c0.segs.is_empty(), "constant fully folded");
    assert!(matches!(&rsteps[1], PlanStep::Read(a) if ir.reg(a.reg).name == "x_high"));
    let PlanStep::Write { compose: c2, .. } = &rsteps[2] else { panic!() };
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
    let kinds: Vec<bool> = rsteps.iter().map(|s| matches!(s, PlanStep::Write { .. })).collect();
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
    let PlanStep::Write { compose: c, .. } = &steps(&ir, plan)[0] else { panic!() };
    // st's bits are cleared from the cached value and replaced by
    // the neutral pattern '11'.
    assert_eq!(c.keep_and & 0b11, 0, "st bits cleared");
    assert_eq!(c.const_or, 0b11, "neutral folded in");
    // st's own plan keeps page's cached bits.
    let st = ir.var(ir.var_id("st").unwrap());
    let sp = st.write_plan.as_ref().expect("st write plan");
    let PlanStep::Write { compose: sc, .. } = &steps(&ir, sp)[0] else { panic!() };
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
        PlanStep::Write { access: a, .. } if matches!(a.offset, PlanOffset::Arg(0))
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
    let PlanStep::Write { access: a, compose: c, .. } = &rsteps[0] else {
        panic!("control write first")
    };
    assert_eq!(ir.reg(a.reg).name, "control");
    assert_eq!(c.segs.len(), 1);
    assert_eq!(c.segs[0].value, PlanValue::Arg(0), "IA gets the family argument");
    assert!(matches!(&rsteps[1], PlanStep::SetCell { cell: 0, value: PlanValue::Const(0), .. }));
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
        wp.guards(0).collect::<Vec<_>>(),
        vec![PlanGuard { source: GuardSource::Slot(icw1_slot), mask: 1, expected: 0 }]
    );
    assert_eq!(ir.variant_steps(cascaded).len(), 2, "icw1 + icw3");
    // sngl == 1 (SINGLE): icw3 skipped.
    let single = &wp.variants[1];
    assert_eq!(
        wp.guards(1).collect::<Vec<_>>(),
        vec![PlanGuard { source: GuardSource::Slot(icw1_slot), mask: 1, expected: 1 }]
    );
    assert_eq!(ir.variant_steps(single).len(), 1, "icw1 only");
    assert!(matches!(
        &ir.variant_steps(single)[0],
        PlanStep::Write { access: a, .. } if a.reg == ir.reg_id("icw1").unwrap()
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
    for k in 0..wp.variants.len() {
        assert_eq!(wp.guards(k).count(), 2);
        assert!(wp.guards(k).all(|g| g.source == GuardSource::Slot(icw1_slot)));
    }
    // The fully-populated variant (CASCADED + IC4) writes all five
    // registers in spec order.
    let full = wp.variants.iter().find(|v| v.len == 5).unwrap();
    let names: Vec<&str> = ir
        .variant_steps(full)
        .iter()
        .map(|s| match s {
            PlanStep::Write { access: a, .. } => ir.reg(a.reg).name.as_str(),
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
        let (k, _) = wp.select_variant(&slots, &valid, &mem, 0).expect("selection is total");
        assert!(wp.guards(k).all(|g| g.holds(&slots, &valid, &mem, 0)), "raw {raw:#b}");
    }
    // Uncached slots read as 0, exactly the reference interpreter's default:
    // sngl=CASCADED (icw3 written), ic4=NO (icw4 skipped).
    valid[icw1_slot] = false;
    assert_eq!(wp.select_variant(&slots, &valid, &mem, 0).unwrap().1.len, 4);
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
    let PlanStep::Write { access: a0, compose: c0, .. } = &rsteps[0] else {
        panic!("a flush first")
    };
    assert_eq!(ir.reg(a0.reg).name, "a");
    assert_eq!(c0.const_or, 0b11, "sel=1 and rest=1 folded");
    assert!(matches!(&rsteps[1], PlanStep::Write { access: a, .. } if ir.reg(a.reg).name == "c"));
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
    assert_eq!(rp.selector[0].segs, vec![(a_slot, ir.var(ir.var_id("sel").unwrap()).segs[0].seg)]);
    // sel == 0: `c` is skipped by the flush, but the assigned `v`
    // still stores cache-only; then a flushed, data read.
    let v0 = ir.variant_steps(&rp.variants[0]);
    assert_eq!(v0.len(), 3);
    assert!(matches!(&v0[0], PlanStep::Store(..)), "{v0:?}");
    assert!(matches!(&v0[1], PlanStep::Write { access: a, .. } if ir.reg(a.reg).name == "a"));
    assert!(matches!(&v0[2], PlanStep::Read(..)));
    // sel == 1: a, c, data — all device-visible.
    let v1 = ir.variant_steps(&rp.variants[1]);
    assert_eq!(v1.len(), 3);
    assert!(v1.iter().all(|s| !matches!(s, PlanStep::Store(..))));
    assert_eq!(
        rp.guards(1).collect::<Vec<_>>(),
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
        wp.guards(1).collect::<Vec<_>>(),
        vec![PlanGuard { source: GuardSource::Input, mask: 1, expected: 1 }]
    );
    // w == 0: no flush, but the bit still lands in the cache.
    let v0 = ir.variant_steps(&wp.variants[0]);
    assert_eq!(v0.len(), 1);
    assert!(matches!(&v0[0], PlanStep::Store(PlanSlot::Fixed(_), c) if c.keep_and == !1));
    // w == 1: the composed device write (store fused in).
    let v1 = ir.variant_steps(&wp.variants[1]);
    assert_eq!(v1.len(), 1);
    assert!(matches!(&v1[0], PlanStep::Write { .. }));
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
        wp.guards(1).collect::<Vec<_>>(),
        vec![PlanGuard { source: GuardSource::Input, mask: 1, expected: 1 }]
    );
    // w == 0: w's own flush of a, then the action's struct flush
    // skips c — the assigned v stores cache-only.
    let v0 = ir.variant_steps(&wp.variants[0]);
    assert_eq!(v0.len(), 2, "{v0:?}");
    assert!(matches!(&v0[0], PlanStep::Write { access: a, .. } if ir.reg(a.reg).name == "a"));
    assert!(matches!(&v0[1], PlanStep::Store(..)), "{v0:?}");
    // w == 1: a, then the struct flush writes c (v=5 folded).
    let v1 = ir.variant_steps(&wp.variants[1]);
    assert_eq!(v1.len(), 2, "{v1:?}");
    let PlanStep::Write { access: a2, compose: c2, .. } = &v1[1] else { panic!("{v1:?}") };
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
        wp.guards(1).collect::<Vec<_>>(),
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
        wp.guards(1).collect::<Vec<_>>(),
        vec![PlanGuard { source: GuardSource::Cell(0), mask: u64::MAX, expected: 1 }]
    );
    // m == 0: only `a` flushes; `c`'s staged bit stores cache-only.
    let v0 = ir.variant_steps(&wp.variants[0]);
    assert!(matches!(&v0[0], PlanStep::Store(..)), "{v0:?}");
    assert!(matches!(&v0[1], PlanStep::Write { .. }));
    // m == 1: both registers flush, no cache-only store.
    let v1 = ir.variant_steps(&wp.variants[1]);
    assert_eq!(v1.len(), 2);
    assert!(v1.iter().all(|s| matches!(s, PlanStep::Write { .. })));
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
    assert!(matches!(&rsteps[1], PlanStep::SetCell { cell: 0, value: PlanValue::Const(0), .. }));
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
    let PlanStep::Write { access: a, compose: c, .. } = &rsteps[0] else { panic!() };
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
    assert!(matches!(&rsteps[1], PlanStep::Write { access: a, .. } if ir.reg(a.reg).name == "a"));
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
