//! The formerly-fallback guard-split shapes, each pinned by a
//! synthetic spec: a conditional order testing the variable being
//! written, a memory-cell tested variable, and a nested conditional
//! order reached through an action. Each used to drop silently to a
//! general interpreter; all three compile to straight/guarded plans.
//! For each, the access must dispatch **on a plan**
//! (`PlanStats.general == 0`), reproduce the same hand-computed
//! bus-log oracle the fallback tests pinned, and stay differentially
//! identical to the reference interpreter. The shapes lowering still
//! cannot plan are pinned too: recorded in `plan_fallbacks()` and
//! rejected with `RtError::Unplanned` before the device is touched.

use devil_fuzz::{compare_runtimes, synthetic, Op};
use devil_ir::DeviceIr;
use devil_runtime::{AccessRef, DeviceInstance, FakeAccess, RtError};

fn ir(src: &str) -> DeviceIr {
    devil_ir::lower(&devil_sema::check_source(src, &[]).expect("spec checks"))
}

/// Cause 1 (retired): the serialization condition tests the variable
/// being written. The general path stores the new bits into the cache
/// before evaluating conditions; the plan mirrors that with an
/// input-sourced guard, and the skipped-flush variant still stores the
/// bits cache-only.
#[test]
fn self_written_tested_variable_compiles_input_guards() {
    let ir = ir(synthetic::SELF_TESTED);
    let w = ir.var_id("w").unwrap();
    let wp = ir.var(w).write_plan.as_ref().expect("self-tested write must plan-compile");
    assert_eq!(wp.variants.len(), 2, "one variant per written value");
    assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    inst.write_id(&mut dev, w, &[], 1).unwrap();
    inst.write_id(&mut dev, w, &[], 0).unwrap();
    inst.write_id(&mut dev, w, &[], 1).unwrap();
    // Hand-computed oracle (unchanged from the fallback pin): the
    // condition sees the *newly written* value. w=1 flushes `a` with
    // bit 0 set; w=0 flushes nothing at all.
    assert_eq!(
        dev.log,
        vec![(true, 0, 0, 1), (true, 0, 0, 1)],
        "the guard must evaluate against the written value"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "no general-interpreter dispatch: {stats:?}");
    assert_eq!(stats.guarded, 3, "every write takes a guard-selected variant: {stats:?}");

    // The w=0 variant's cache-only store must still land: writing
    // `rest` afterwards composes with w's stored 0.
    let rest = ir.var_id("rest").unwrap();
    inst.write_id(&mut dev, w, &[], 0).unwrap();
    inst.write_id(&mut dev, rest, &[], 0x5a).unwrap();
    assert_eq!(dev.log.last(), Some(&(true, 0, 0, 0x5au64 << 1)), "stored w bit composed");

    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
    ];
    compare_runtimes(&ir, false, &ops).unwrap();
}

/// Cause 2 (retired): the serialization condition tests a memory-cell
/// variable. The plan guards on the cell directly; a cell stores its
/// value masked to the variable's width, so selection is total.
#[test]
fn mem_cell_tested_variable_compiles_cell_guards() {
    let ir = ir(synthetic::MEM_TESTED);
    let w = ir.var_id("w").unwrap();
    let wp = ir.var(w).write_plan.as_ref().expect("mem-tested write must plan-compile");
    assert_eq!(wp.variants.len(), 2, "one variant per cell value");
    assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());

    let m = ir.var_id("m").unwrap();
    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    inst.write_id(&mut dev, m, &[], 1).unwrap();
    inst.write_id(&mut dev, w, &[], 0b11).unwrap();
    inst.write_id(&mut dev, m, &[], 0).unwrap();
    inst.write_id(&mut dev, w, &[], 0b10).unwrap();
    // Hand-computed oracle (unchanged from the fallback pin): w's low
    // bit lands in `a`, its high bit in `c`. With m=1 both registers
    // flush; with m=0 only `a` does (the high bit stays staged in c's
    // cache).
    assert_eq!(
        dev.log,
        vec![(true, 0, 0, 1), (true, 0, 1, 1), (true, 0, 0, 0)],
        "the memory cell must gate the conditional flush"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "mem writes and guarded flushes all dispatch on plans: {stats:?}");
    assert_eq!(stats.guarded, 2, "both w writes take cell-guarded variants: {stats:?}");
    assert_eq!(stats.straight, 2, "mem-cell writes dispatch on their trivial plans: {stats:?}");

    // A value past the cell's one bit masks like a register field:
    // 7 stores 1, so both registers flush, still on the plans.
    inst.write_id(&mut dev, m, &[], 7).unwrap();
    assert_eq!(inst.read_id(&mut dev, m, &[]).unwrap(), 1);
    inst.write_id(&mut dev, w, &[], 0b11).unwrap();
    assert_eq!(dev.log[3..], [(true, 0, 0, 1), (true, 0, 1, 1)], "7 & 1 == true: both flush");
    assert_eq!(inst.plan_stats().general, 0);

    let ops = vec![
        Op::WriteVar { vid: m, args: vec![], value: 1 },
        Op::WriteVar { vid: w, args: vec![], value: 0b01 },
        Op::WriteVar { vid: ir.var_id("restc").unwrap(), args: vec![], value: 0x3c },
        Op::WriteVar { vid: m, args: vec![], value: 0 },
        Op::WriteVar { vid: w, args: vec![], value: 0b10 },
        // Wide values mask identically on the reference (0x5a5a: 0).
        Op::WriteVar { vid: m, args: vec![], value: 0x5a5a },
        Op::WriteVar { vid: w, args: vec![], value: 0b11 },
    ];
    compare_runtimes(&ir, false, &ops).unwrap();
}

/// Cause 3 (retired): a nested conditional order reached through an
/// action. The action assigns the tested field a constant, so the
/// condition folds at compile time and the whole access is one
/// straight-line plan.
#[test]
fn nested_conditional_through_action_compiles_straight() {
    let ir = ir(synthetic::NESTED_ACTION);
    let payload = ir.var_id("payload").unwrap();
    let rp = ir.var(payload).read_plan.as_ref().expect("nested conditional must plan-compile");
    assert_eq!(rp.variants.len(), 1, "assigned constant folds the condition");
    assert!(rp.guards(0).next().is_none());
    assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());
    // The struct's own top-level flush still guard-splits.
    assert!(ir.strct(ir.struct_id("s").unwrap()).write_plan.is_some());

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    dev.preset(0, 2, 0x99);
    assert_eq!(inst.read_id(&mut dev, payload, &[]).unwrap(), 0x99);
    // Hand-computed oracle (unchanged from the fallback pin): the
    // pre-action stores sel=1, rest=1, v=2, then flushes with the
    // condition true — a (0b11) and c (2) — before the data read.
    assert_eq!(
        dev.log,
        vec![(true, 0, 0, 0b11), (true, 0, 1, 2), (false, 0, 2, 0x99)],
        "the nested conditional flush must run mid-access"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "the read dispatches on its plan: {stats:?}");
    assert_eq!(stats.straight, 1, "one straight-line dispatch: {stats:?}");

    let ops = vec![
        Op::ReadVar { vid: payload, args: vec![] },
        Op::Preset { port: 0, offset: 2, value: 0x42 },
        Op::ReadVar { vid: payload, args: vec![] },
    ];
    compare_runtimes(&ir, false, &ops).unwrap();
}

/// Family-instance aliasing: a tested variable on one instance of a
/// family register must not be confused with a write to another
/// instance (same register id, different slot) — the guard stays
/// cache-sourced and the plans match the reference. A variable spanning
/// two instances compiles no plan (orders name registers, not
/// instances): lowering records it and the runtime rejects it.
#[test]
fn family_instance_shapes_stay_equivalent() {
    let distinct = ir(r#"device d (base : bit[8] port @ {0..1}) {
        register f(i : int{0..1}) = write base @ i : bit[8];
        variable t = f(0)[0] : bool;
        variable rest0 = f(0)[7..1] : int(7);
        variable w = f(1)[0] : bool serialized as { if (t == true) f; };
        variable rest1 = f(1)[7..1] : int(7);
    }"#);
    let w = distinct.var_id("w").unwrap();
    let t = distinct.var_id("t").unwrap();
    assert!(distinct.var(w).write_plan.is_some(), "distinct instances must compile");
    let ops = vec![
        // t uncached (reads as 0): w=1 must not flush.
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: t, args: vec![], value: 1 },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: distinct.var_id("rest1").unwrap(), args: vec![], value: 0x3c },
        Op::WriteVar { vid: t, args: vec![], value: 0 },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
    ];
    compare_runtimes(&distinct, false, &ops).unwrap();

    let spanning = ir(r#"device d (base : bit[8] port @ {0..1}) {
        register f(i : int{0..1}) = write base @ i : bit[8];
        variable t = f(0)[1] : bool;
        variable rest0 = f(0)[7..2] : int(6);
        variable w = f(1)[0] # f(0)[0] : int(2) serialized as { if (t == true) f; };
        variable rest1 = f(1)[7..1] : int(7);
    }"#);
    let w = spanning.var_id("w").unwrap();
    assert!(spanning.var(w).write_plan.is_none(), "multi-instance variable must not plan");
    let fallbacks: Vec<(&str, &str)> =
        spanning.plan_fallbacks().iter().map(|f| (&f.access[..], &f.cause[..])).collect();
    assert_eq!(
        fallbacks,
        [("write w", "variable `w` spans multiple instances of one register family")]
    );
    let mut inst = DeviceInstance::new(spanning.clone());
    let mut dev = FakeAccess::new();
    assert_eq!(inst.write_id(&mut dev, w, &[], 0b01), Err(RtError::Unplanned("write w".into())));
    assert_eq!(dev.ops(), 0, "an unplanned access never reaches the device");
    // Everything else about the shape is planned and matches.
    let ops = vec![
        Op::WriteVar { vid: spanning.var_id("rest0").unwrap(), args: vec![], value: 1 },
        Op::WriteVar { vid: spanning.var_id("rest1").unwrap(), args: vec![], value: 2 },
        Op::WriteVar { vid: spanning.var_id("t").unwrap(), args: vec![], value: 1 },
    ];
    compare_runtimes(&spanning, false, &ops).unwrap();
}

/// A memory-cell variable with family arguments has one cell for every
/// argument tuple, which no plan can address: lowering records both
/// directions and the runtime rejects them.
#[test]
fn family_memory_cells_are_recorded_unplanned() {
    let ir = ir(r#"device d (base : bit[8] port @ {0..0}) {
        private variable m(i : int{0..3}) : int(8);
        register r = base @ 0 : bit[8];
        variable v = r : int(8);
    }"#);
    let fallbacks: Vec<&str> = ir.plan_fallbacks().iter().map(|f| &f.access[..]).collect();
    assert_eq!(fallbacks, ["read m", "write m"]);
    let m = ir.var_id("m").unwrap();
    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    assert_eq!(inst.read_id(&mut dev, m, &[1]), Err(RtError::Unplanned("read m".into())));
    assert_eq!(inst.write_id(&mut dev, m, &[1], 5), Err(RtError::Unplanned("write m".into())));
}

/// Cause 3, entry-state flavour: the action leaves the tested field
/// unassigned, so its cached value joins the outer guard enumeration
/// and the read guard-splits on it.
#[test]
fn nested_conditional_on_entry_state_guard_splits() {
    let ir = ir(synthetic::NESTED_ENTRY);
    let payload = ir.var_id("payload").unwrap();
    let rp = ir.var(payload).read_plan.as_ref().expect("entry-tested condition must inline");
    assert_eq!(rp.variants.len(), 2, "one variant per cached sel value");

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    dev.preset(0, 2, 0x99);
    // Cold cache: sel reads as 0 — `c` skipped, but the assigned v=2
    // still stores cache-only; a flushes rest=1.
    assert_eq!(inst.read_id(&mut dev, payload, &[]).unwrap(), 0x99);
    assert_eq!(dev.log, vec![(true, 0, 0, 0b10), (false, 0, 2, 0x99)]);
    // Set sel=1; the next read takes the other variant and flushes c.
    let sel = ir.var_id("sel").unwrap();
    inst.write_id(&mut dev, sel, &[], 1).unwrap();
    assert_eq!(inst.read_id(&mut dev, payload, &[]).unwrap(), 0x99);
    assert_eq!(
        dev.log[2..],
        [(true, 0, 0, 0b11), (true, 0, 0, 0b11), (true, 0, 1, 2), (false, 0, 2, 0x99)],
        "sel=1 write, then the guarded variant flushing a and c"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "{stats:?}");
    assert_eq!(stats.guarded, 2, "both payload reads take guard-selected variants: {stats:?}");

    let ops = vec![
        Op::ReadVar { vid: payload, args: vec![] },
        Op::WriteVar { vid: sel, args: vec![], value: 1 },
        Op::ReadVar { vid: payload, args: vec![] },
        Op::Preset { port: 0, offset: 2, value: 0x42 },
        Op::ReadVar { vid: payload, args: vec![] },
    ];
    compare_runtimes(&ir, false, &ops).unwrap();
}

/// Fused superplans over a cell-guarded access stay fused for every
/// cell value: cells mask to their width, so the entry-time selection
/// is total and the fused body matches the reference's op-by-op run.
#[test]
fn fused_superplan_masked_cell_stays_fused() {
    use devil_fuzz::superfuzz::{install_synthetic, SuperCall};

    let mut ir = ir(synthetic::MEM_TESTED);
    install_synthetic("memw", &mut ir);
    let sid = ir.superplan_id("burst").expect("fixture superplan installed");
    let m = ir.var_id("m").unwrap();

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();

    inst.write_id(&mut dev, m, &[], 1).unwrap();
    inst.run_superplan(&mut dev, sid, &[0x2a, 0b11], &[], &mut [], &mut []).unwrap();
    // Hand oracle: resta=0x2a flushes `a` with w's low bit uncached
    // (0x54); w=0b11 flushes `a` (0x55) and, with m=1, `c` (1).
    assert_eq!(dev.log, vec![(true, 0, 0, 0x54), (true, 0, 0, 0x55), (true, 0, 1, 1)]);

    // 7 masks to 1: the same fused variant, no unfused detour.
    inst.write_id(&mut dev, m, &[], 7).unwrap();
    let mark = dev.log.len();
    inst.run_superplan(&mut dev, sid, &[0x2a, 0b11], &[], &mut [], &mut []).unwrap();
    let st = inst.plan_stats();
    assert_eq!(st.fused, 2, "{st:?}");
    let points = inst.ir().points(AccessRef::Superplan(sid));
    let hit: Vec<u64> = inst.hits()[points].iter().copied().filter(|&n| n > 0).collect();
    assert_eq!(hit, [2], "both calls ran one fused variant");
    assert_eq!(st.general, 0, "{st:?}");
    assert_eq!(&dev.log[mark..], &[(true, 0, 0, 0x55), (true, 0, 0, 0x55), (true, 0, 1, 1)]);

    let seq = vec![
        Op::WriteVar { vid: m, args: vec![], value: 1 },
        Op::Super(SuperCall { sid, args: vec![0x2a, 0b11], block_out: vec![], block_in_len: 0 }),
        Op::WriteVar { vid: m, args: vec![], value: 0x5a5b },
        Op::Super(SuperCall { sid, args: vec![0x15, 0b01], block_out: vec![], block_in_len: 0 }),
    ];
    compare_runtimes(&ir, false, &seq).unwrap();
}
