//! Differential fuzzing of the runtime's plans against the reference
//! interpreter, across the whole embedded specification library.
//!
//! Each case draws a raw word stream, decodes it into a per-device op
//! sequence (reads, writes, structure round trips, block transfers,
//! device-side presets, deliberate out-of-domain arguments) and
//! replays it through both engines, asserting identical bus traffic,
//! results, errors and final state. A failing case prints a
//! `PROPTEST_SEED` that replays it exactly; CI's scheduled job raises
//! the case count via `PROPTEST_CASES`.

mod common;

use common::Skewed;
use devil_fuzz::coverage::shipped_corpus;
use devil_fuzz::rooted::{diff_ops, splitmix64, OpStream};
use devil_fuzz::superfuzz::decode_super;
use devil_fuzz::{
    compare, compare_runtimes, decode, init_sweep_ops, run_op, sweep_ops, Engine, InProcess, Op,
};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The 8-spec library plus the synthetic formerly-fallback specs
/// (self-written tested, mem-cell tested, action-nested conditionals),
/// lowered once with their superplans installed. Every differential
/// check below runs over all of them.
fn irs() -> &'static [(String, DeviceIr)] {
    static IRS: OnceLock<Vec<(String, DeviceIr)>> = OnceLock::new();
    IRS.get_or_init(devil_fuzz::spec_library)
}

/// The deterministic coverage sweep: every variable, structure and
/// block transfer of every device, against both engines. The compare
/// accounts for every op, then the probe and final-state leaves.
#[test]
fn coverage_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let ops = sweep_ops(ir);
        // Shipped specs sweep wide; the synthetic fallback shapes are
        // deliberately tiny but must still produce real work.
        let synthetic = devil_fuzz::synthetic::ALL.iter().any(|(n, _)| n == name);
        let floor = if synthetic { 0 } else { 4 };
        assert!(ops.len() > floor, "{name}: sweep generated {} ops", ops.len());
        let out = compare_runtimes(ir, false, &ops)
            .unwrap_or_else(|e| panic!("{name}: plans and reference diverge on the sweep\n{e}"));
        assert_eq!(out.ops, ops.len() as u64, "{name}");
        assert!(out.leaves > out.ops, "{name}: probe and final-state leaves missing");
    }
}

/// Steady-state plans really are hot on the spec library: every device
/// compiles at least one access plan, and the Figure 3 devices compile
/// their struct/family plans specifically. With guard-splitting, the
/// 8259A's conditional init automaton — the last structural reason any
/// shipped spec ran on the general interpreter — compiles too.
#[test]
fn spec_library_compiles_the_expected_plans() {
    for (name, ir) in irs() {
        let planned =
            ir.vars.iter().filter(|v| v.read_plan.is_some() || v.write_plan.is_some()).count();
        assert!(planned > 0, "{name}: no variable compiled a plan");
    }
    let busmouse = &irs().iter().find(|(n, _)| *n == "busmouse").unwrap().1;
    let st = busmouse.strct(busmouse.struct_id("mouse_state").unwrap());
    assert!(st.read_plan.is_some(), "busmouse mouse_state must plan-compile (Figure 3)");
    let cs = &irs().iter().find(|(n, _)| *n == "cs4236b").unwrap().1;
    let id = cs.var(cs.var_id("ID").unwrap());
    assert!(id.read_plan.is_some(), "cs4236b indexed registers must plan-compile");
    assert!(id.write_plan.is_some());
    let xd = cs.var(cs.var_id("XD").unwrap());
    assert!(xd.read_plan.is_some(), "cs4236b extended registers must plan-compile");
    let pic = &irs().iter().find(|(n, _)| *n == "pic8259").unwrap().1;
    let init = pic.strct(pic.struct_id("init").unwrap());
    let wp = init.write_plan.as_ref().expect("pic8259 init must guard-split");
    assert_eq!(wp.variants.len(), 4, "sngl × ic4 cross product");
    assert!((0..wp.variants.len()).all(|k| wp.guards(k).next().is_some()));
}

/// The init-sequence sweep: every structure flushed across its whole
/// guard domain, equivalent on both engines on every device.
#[test]
fn init_sequence_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let ops = init_sweep_ops(ir);
        if let Err(e) = compare_runtimes(ir, false, &ops) {
            panic!("{name}: init sweep diverges\n{e}");
        }
    }
}

/// Conditional struct writes must actually execute guard-selected plan
/// variants in fast mode — not fall back to the general interpreter.
#[test]
fn conditional_writes_take_guarded_variants_in_fast_mode() {
    let pic = &irs().iter().find(|(n, _)| *n == "pic8259").unwrap().1;
    let sid = pic.struct_id("init").unwrap();
    let mut inst = DeviceInstance::new(pic.clone());
    let mut dev = FakeAccess::new();
    // Drive all four guard combinations: sngl ∈ {0,1} × ic4 ∈ {0,1}.
    for combo in 0..4u64 {
        let values: Vec<_> = pic
            .strct(sid)
            .fields
            .iter()
            .enumerate()
            .map(|(k, &fid)| (fid, (combo >> (k % 2)) & 1))
            .collect();
        let op = Op::WriteStruct { sid, values };
        run_op(&mut Engine::Plans(&mut inst), &mut dev, &op, &mut Vec::new());
    }
    let stats = inst.plan_stats();
    assert_eq!(stats.guarded, 4, "every conditional flush takes a guarded variant: {stats:?}");
    assert_eq!(stats.general, 0, "no general fallback in fast mode: {stats:?}");
}

/// Lowering records every access it cannot plan; the shipped library
/// and the synthetic shapes record none — the whole expressible surface
/// is plan-backed.
#[test]
fn no_spec_records_a_plan_fallback() {
    for (name, ir) in irs() {
        assert!(
            ir.plan_fallbacks().is_empty(),
            "{name}: accesses compiled no plan: {:?}",
            ir.plan_fallbacks()
        );
    }
}

/// The formerly-fallback shapes dispatch entirely on plans: no access
/// in an in-range workload touches the general interpreter, and the
/// lowerer records zero fallbacks for any synthetic spec.
#[test]
fn formerly_fallback_specs_dispatch_on_plans() {
    for (name, src) in devil_fuzz::synthetic::ALL {
        let model = devil_sema::check_source(src, &[]).expect("synthetic spec checks");
        let ir = devil_ir::lower(&model);
        assert!(
            ir.plan_fallbacks().is_empty(),
            "{name}: unexpected fallbacks {:?}",
            ir.plan_fallbacks()
        );
        // An in-range workload: every plain variable written (masked to
        // its width) and read, every structure flushed across 0/1 field
        // values — the fallback shapes' whole concrete surface.
        let mut ops: Vec<Op> = Vec::new();
        for round in 0..4u64 {
            for vi in 0..ir.vars.len() as u32 {
                let vid = devil_sema::model::VarId(vi);
                let var = ir.var(vid);
                if !var.params.is_empty() {
                    continue;
                }
                if var.writable {
                    let mask = if var.width >= 64 { u64::MAX } else { (1 << var.width) - 1 };
                    ops.push(Op::WriteVar { vid, args: vec![], value: (round + vi as u64) & mask });
                }
                if var.readable {
                    ops.push(Op::ReadVar { vid, args: vec![] });
                }
            }
            for si in 0..ir.structs.len() as u32 {
                let sid = devil_sema::model::StructId(si);
                let values: Vec<_> = ir
                    .strct(sid)
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(k, &fid)| (fid, (round >> (k % 2)) & 1))
                    .collect();
                ops.push(Op::WriteStruct { sid, values });
            }
        }
        let mut inst = DeviceInstance::new(ir.clone());
        let mut dev = FakeAccess::new();
        let (mut engine, mut obs) = (Engine::Plans(&mut inst), Vec::new());
        for op in &ops {
            run_op(&mut engine, &mut dev, op, &mut obs);
        }
        let stats = inst.plan_stats();
        assert_eq!(stats.general, 0, "{name}: general dispatches in fast mode: {stats:?}");
        assert!(stats.straight + stats.guarded > 0, "{name}: workload hit no plans: {stats:?}");
        compare_runtimes(&ir, false, &ops).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Debug-checked mode runs the plans: every spec's sweep, init-sweep
/// and shipped-corpus streams replay with checks on through the plans
/// and through the reference (which checks each value where it is
/// written or read). Verdicts match op for op, a rejected write never
/// reaches the device, bus logs and state match, and nothing leaves the
/// plans. Both kinds of check must actually fire across the library.
#[test]
fn checked_mode_agrees_with_the_reference() {
    let (mut ops_total, mut write_rejects, mut read_rejects) = (0, 0, 0);
    for (name, ir) in irs() {
        let mut streams = vec![sweep_ops(ir), init_sweep_ops(ir)];
        streams.extend(shipped_corpus(name).iter().map(|words| decode(ir, words)));
        for (k, ops) in streams.iter().enumerate() {
            let out = compare_runtimes(ir, true, ops)
                .unwrap_or_else(|e| panic!("{name} stream {k}: checked mode diverges\n{e}"));
            assert_eq!(out.ops, ops.len() as u64, "{name} stream {k}: no nested write check fires");
            ops_total += out.ops;
            write_rejects += out.write_rejects;
            read_rejects += out.read_rejects;
        }
    }
    println!(
        "checked replay: {ops_total} ops, {write_rejects} write / {read_rejects} read rejects"
    );
    assert!(write_rejects > 0);
    // No shipped spec reads a sparse value set, so the read check fires
    // on a fixture: both engines read 19, then reject it.
    let model = devil_sema::check_source(
        r#"device d (base : bit[8] port @ {0..0}) {
             register r = base @ 0, mask '...*****' : bit[8];
             variable mode = r[4..0], volatile : int{0..17, 25};
           }"#,
        &[],
    )
    .expect("fixture checks");
    let ir = devil_ir::lower(&model);
    let mode = ir.var_id("mode").unwrap();
    let ops = [
        Op::Preset { port: 0, offset: 0, value: 19 },
        Op::ReadVar { vid: mode, args: vec![] },
        Op::WriteVar { vid: mode, args: vec![], value: 20 },
        Op::Preset { port: 0, offset: 0, value: 25 },
        Op::ReadVar { vid: mode, args: vec![] },
    ];
    let out = compare_runtimes(&ir, true, &ops).unwrap();
    assert_eq!((out.ops, out.write_rejects, out.read_rejects), (ops.len() as u64, 1, 1));
}

/// The sweep's root is a function of the observations alone: the
/// coverage sweep of every device condenses to the same 32-byte root
/// whichever engine the compare names first, and a generated stream
/// roots the same whether it is fed from a slice or from the generator.
#[test]
fn rooted_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let (plans, reference) = (InProcess::plans(ir), InProcess::reference(ir));
        let ops = sweep_ops(ir);
        let fwd = compare(&plans, &reference, || ops.iter().cloned())
            .unwrap_or_else(|e| panic!("{name}: rooted sweep diverges\n{e}"));
        let back = compare(&reference, &plans, || ops.iter().cloned())
            .unwrap_or_else(|e| panic!("{name}: rooted sweep diverges\n{e}"));
        assert_eq!(fwd.ops, ops.len() as u64, "{name}");
        assert_eq!(fwd.root, back.root, "{name}: the root depends on the rig order");

        let generated: Vec<Op> = OpStream::new(ir, 0x5EED, 500).collect();
        let sliced = compare(&plans, &reference, || generated.iter().cloned())
            .unwrap_or_else(|e| panic!("{name}: rooted replay diverges\n{e}"));
        let streamed = compare(&plans, &reference, || OpStream::new(ir, 0x5EED, 500))
            .unwrap_or_else(|e| panic!("{name}: rooted replay diverges\n{e}"));
        assert_eq!(sliced.root, streamed.root, "{name}: slice and stream root apart");
    }
}

/// The long-replay gate: the comparator streams both rigs in O(peaks)
/// memory, so the horizon is a knob. Default 20k ops per spec on PR
/// runs; the nightly `diff-longrun` job sets `DIFF_OPS=1000000`
/// (mirroring `PROPTEST_CASES`) to push a million ops per spec.
#[test]
fn diff_longrun_root_compare() {
    let n = diff_ops(20_000);
    for (name, ir) in irs() {
        let (plans, reference) = (InProcess::plans(ir), InProcess::reference(ir));
        let out = compare(&plans, &reference, || OpStream::new(ir, 0xD1FF, n))
            .unwrap_or_else(|e| panic!("{name}: {n}-op rooted replay diverges\n{e}"));
        assert_eq!(out.ops, n, "{name}");
        assert!(
            out.retained_bytes < 512 * 1024,
            "{name}: streaming replay must stay in O(peaks) memory, retained {}",
            out.retained_bytes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over every embedded device: the plans and
    /// the reference interpreter must be observationally identical.
    #[test]
    fn fast_plan_and_general_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        for (name, ir) in irs() {
            let r = compare_runtimes(ir, false, &decode(ir, &words));
            prop_assert!(r.is_ok(), "{}: {}", name, r.err().unwrap());
        }
    }

    /// A second, independent draw of random op streams through the same
    /// compare.
    #[test]
    fn rooted_comparator_agrees_on_random_streams(words in collection::vec(any::<u64>(), 1..48)) {
        for (name, ir) in irs() {
            let r = compare_runtimes(ir, false, &decode(ir, &words));
            prop_assert!(r.is_ok(), "{}: {}", name, r.err().unwrap());
        }
    }

    /// Sensitivity at the harness level: corrupt exactly one op's leaf
    /// in a replay and bisection must name that op within the O(log N)
    /// compare budget. On superplan-bearing specs half the cases draw a
    /// fused stream (`decode_super`), so the corrupted op may sit
    /// between or on fused calls.
    #[test]
    fn bisection_names_injected_divergences(seed in any::<u64>(), n in 16u64..600, pick in any::<u64>()) {
        let (name, ir) = &irs()[(seed % irs().len() as u64) as usize];
        let plans = InProcess::plans(ir);
        let fused = !ir.superplans().is_empty() && pick >> 63 == 1;
        let super_ops: Vec<Op> = if fused {
            let mut state = seed;
            decode_super(ir, &(0..n).map(|_| splitmix64(&mut state)).collect::<Vec<_>>())
        } else {
            Vec::new()
        };
        let k = pick % if fused { super_ops.len() as u64 } else { n };
        let marker = Op::Preset { port: 0xDEAD, offset: k, value: 0xA5 };
        let corrupted = Skewed::new(&plans, |i, op| Some(if i == k { marker.clone() } else { op }));
        let r = if fused {
            compare(&plans, &corrupted, || super_ops.iter().cloned())
        } else {
            compare(&plans, &corrupted, || OpStream::new(ir, seed, n))
        };
        let m = r.expect_err("a corrupted replay must diverge");
        let d = m.divergence.expect("a leaf diverges");
        prop_assert_eq!(d.leaf, k, "{}: bisection names the corrupted op (fused {})", name, fused);
        let bound = 2 * (64 - m.leaves.leading_zeros() as u64) + 2;
        prop_assert!(d.compares <= bound, "{}: {} compares > {}", name, d.compares, bound);
    }
}
