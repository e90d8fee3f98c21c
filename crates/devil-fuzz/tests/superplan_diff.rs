//! Fused-superplan differential fuzzing and ledger-shape properties.
//!
//! Fusion is pure dispatch batching: a fused superplan must issue the
//! identical device-op stream its unfused op-by-op sequence would, so
//! the plans' fused calls and the reference's op-by-op runs go through
//! the one comparator (caller observations, the device op log, final
//! device state and a cache-coherence probe) — across the shipped
//! driver superplans and the synthetic fixture superplans, with debug
//! checks off and on.
//!
//! The ledger-shape property pins the accounting side: a fused
//! dispatch's exact `hwsim::Ledger` delta and sim-time advance must
//! equal what the superplan's declared [`ShapeOp`] sequence predicts
//! under the bus cost model.

use devil_fuzz::coverage::shipped_corpus;
use devil_fuzz::superfuzz::{decode_super, install_synthetic, super_sweep};
use devil_fuzz::{compare, compare_runtimes, probe_ops, run_op, sweep_ops, Engine, InProcess, Op};
use devil_ir::{DeviceIr, ShapeOp};
use devil_runtime::{DeviceInstance, FakeAccess, MappedPort, PortMap};
use hwsim::{Bus, CostModel, Ledger};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every spec carrying superplans: the four shipped devices with
/// driver-declared hot sequences (installed by `drivers::specs`) plus
/// the five synthetic formerly-fallback shapes with fixture superplans.
fn irs() -> &'static Vec<(&'static str, DeviceIr)> {
    static IRS: OnceLock<Vec<(&'static str, DeviceIr)>> = OnceLock::new();
    IRS.get_or_init(|| {
        let shipped = drivers::specs::ALL
            .iter()
            .map(|(name, src)| (*name, (*drivers::specs::shared_ir(src)).clone()));
        let synthetic = devil_fuzz::synthetic::ALL.iter().map(|(name, src)| {
            let model = devil_sema::check_source(src, &[]).expect("synthetic spec checks");
            let mut ir = devil_ir::lower(&model);
            install_synthetic(name, &mut ir);
            (*name, ir)
        });
        shipped.chain(synthetic).filter(|(_, ir)| !ir.superplans().is_empty()).collect()
    })
}

/// The driver-declared superplan surface is exactly what the issue
/// ships: IDE's two PIO loops, NE2000's remote-DMA transmit, the
/// 8259A's ICW init burst, Permedia2's three FIFO fill bursts — plus
/// one fixture superplan per synthetic spec.
#[test]
fn superplan_surface_is_complete() {
    let counts: Vec<(&str, usize)> =
        irs().iter().map(|(name, ir)| (*name, ir.superplans().len())).collect();
    assert_eq!(
        counts,
        vec![
            ("ide", 2),
            ("permedia2", 3),
            ("ne2000", 1),
            ("pic8259", 1),
            ("selfw", 1),
            ("memw", 1),
            ("nestedc", 1),
            ("nestede", 1),
            ("selfact", 1),
        ]
    );
}

/// Warms an instance for all-fused dispatch: the full coverage sweep
/// validates every cache slot.
fn warm(ir: &DeviceIr, inst: &mut DeviceInstance, dev: &mut FakeAccess) {
    let (mut inst, mut obs) = (Engine::Plans(inst), Vec::new());
    for op in sweep_ops(ir) {
        run_op(&mut inst, dev, &op, &mut obs);
    }
}

/// The deterministic sweep: every superplan of every spec, four rounds
/// of varying operands and block lengths (including zero-length
/// blocks), fused vs unfused. The compare accounts for every call, then
/// the probe and final-state leaves.
#[test]
fn fused_sweep_is_indistinguishable_from_unfused() {
    for (name, ir) in irs() {
        let seq = super_sweep(ir);
        assert!(!seq.is_empty(), "{name}: sweep generated no superplan calls");
        let out = compare_runtimes(ir, false, &seq).unwrap_or_else(|e| {
            panic!("{name}: fused and unfused superplan paths diverge on the sweep\n{e}")
        });
        assert_eq!(out.ops, seq.len() as u64, "{name}");
        assert!(out.leaves > out.ops, "{name}: probe and final-state leaves missing");
    }
}

/// The fused sweep condenses to one 32-byte root per rig, the same
/// whichever engine the compare names first, over exactly one leaf per
/// call, one per probe read and one for the final device state.
#[test]
fn rooted_fused_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let (plans, reference) = (InProcess::plans(ir), InProcess::reference(ir));
        let seq = super_sweep(ir);
        let fwd = compare(&plans, &reference, || seq.iter().cloned())
            .unwrap_or_else(|e| panic!("{name}: rooted fused sweep diverges\n{e}"));
        let back = compare(&reference, &plans, || seq.iter().cloned())
            .unwrap_or_else(|e| panic!("{name}: rooted fused sweep diverges\n{e}"));
        assert_eq!(fwd.ops, seq.len() as u64, "{name}");
        assert_eq!(fwd.root, back.root, "{name}: the root depends on the rig order");
        assert_eq!(fwd.leaves, fwd.ops + probe_ops(ir).len() as u64 + 1, "{name}");
    }
}

/// Checked mode over fused streams: every spec's superplan sweep and
/// the fused decoding of its shipped corpus replay with debug checks on
/// in both engines. Verdicts match call for call and a rejected fused
/// call never reaches the device. The plans reject a fused call before
/// any bus op, while the reference has already written the ops before
/// the rejected one: the compare stops at that call by design. That
/// happens to exactly these streams, at these calls; every other one
/// runs to its end.
#[test]
fn checked_fused_streams_agree_with_the_reference() {
    const STOPS: [(&str, &str, u64); 3] =
        [("memw", "sweep", 1), ("permedia2", "corpus 2", 6), ("permedia2", "corpus 3", 1)];
    let (mut compared, mut total, mut write_rejects) = (0, 0, 0);
    for (name, ir) in irs() {
        let mut streams = vec![("sweep".to_string(), super_sweep(ir))];
        for (i, words) in shipped_corpus(name).iter().enumerate() {
            streams.push((format!("corpus {i}"), decode_super(ir, words)));
        }
        for (label, ops) in &streams {
            let out = compare_runtimes(ir, true, ops)
                .unwrap_or_else(|e| panic!("{name} {label}: checked fused replay diverges\n{e}"));
            let stop = STOPS.iter().find(|s| (s.0, s.1) == (*name, label)).map(|s| s.2);
            assert_eq!(out.ops, stop.unwrap_or(ops.len() as u64), "{name} {label}: stop point");
            if stop.is_some() {
                let call = &ops[out.ops as usize];
                assert!(matches!(call, Op::Super(_)), "{name} {label}: stops at {call:?}");
            }
            compared += out.ops;
            total += ops.len() as u64;
            write_rejects += out.write_rejects;
        }
    }
    println!("checked fused replay: {compared} of {total} ops, {write_rejects} write rejects");
    assert!(write_rejects > 0, "no fused call was rejected");
}

/// With caches warm and every cell in range, the fused path serves
/// every single superplan call — no general-interpreter fallbacks
/// anywhere in the sweep, and per-superplan hit counts line up.
#[test]
fn warm_sweeps_run_entirely_fused() {
    for (name, ir) in irs() {
        let mut inst = DeviceInstance::new(ir.clone());
        let mut dev = FakeAccess::new();
        warm(ir, &mut inst, &mut dev);
        let before = inst.plan_stats();
        let seq = super_sweep(ir);
        for op in &seq {
            let Op::Super(call) = op else { unreachable!("a sweep of superplan calls") };
            let mut block_in = vec![0u64; call.block_in_len];
            let mut outs = vec![0u64; ir.superplans()[call.sid].outputs];
            inst.run_superplan(
                &mut dev,
                call.sid,
                &call.args,
                &call.block_out,
                &mut block_in,
                &mut outs,
            )
            .unwrap_or_else(|e| panic!("{name} sid {}: {e:?}", call.sid));
        }
        let after = inst.plan_stats();
        assert_eq!(
            after.fused - before.fused,
            seq.len() as u64,
            "{name}: some warm superplan calls missed the fused path"
        );
        assert_eq!(
            after.general, before.general,
            "{name}: fused sweep hit the general interpreter"
        );
        let hits: u64 = inst.superplan_hits().iter().sum();
        assert_eq!(hits, seq.len() as u64, "{name}: superplan hit counts disagree");
    }
}

/// Predicted ledger delta and sim-time advance of one fused dispatch,
/// folding a variant's declared shape through the bus cost model. The
/// harness maps every port into unclaimed port space, so each non-empty
/// transaction also counts one `unclaimed` probe.
fn predict(shape: &[ShapeOp], out_len: usize, in_len: usize, c: &CostModel) -> (Ledger, f64) {
    let mut l = Ledger::new();
    let mut ns = 0.0;
    for op in shape {
        let widx = match op.size {
            8 => 0,
            16 => 1,
            32 => 2,
            other => panic!("unexpected shape width {other}"),
        };
        if op.block {
            let len = if op.write { out_len } else { in_len } as u64;
            if len == 0 {
                continue; // zero-length block transfers are true no-ops
            }
            ns += c.io_block_setup_ns + c.io_block_word_ns * len as f64;
            l.block_ops += 1;
            if op.write {
                l.block_out_words += len;
            } else {
                l.block_in_words += len;
            }
            l.unclaimed += 1;
        } else {
            ns += c.io_single_ns;
            if op.write {
                l.io_out[widx] += 1;
            } else {
                l.io_in[widx] += 1;
            }
            l.unclaimed += 1;
        }
    }
    (l, ns)
}

/// The ledger-shape property: every fused dispatch's exact `Ledger`
/// delta and sim-time advance equal the prediction of the selected
/// variant's declared shape — block ops, words, widths, and the
/// block-rate vs single-rate cost split. Runs every superplan of all
/// nine specs at several operand/length combinations.
#[test]
fn fused_ledger_delta_matches_declared_shape() {
    for (name, ir) in irs() {
        let mut inst = DeviceInstance::new(ir.clone());
        let mut fake = FakeAccess::new();
        // Warm caches and cells device-side so every call selects fused.
        warm(ir, &mut inst, &mut fake);

        let mut bus = Bus::default();
        let costs = bus.costs();
        let ports: Vec<MappedPort> =
            (0..ir.ports.len()).map(|i| MappedPort::io(0x1000 * (i as u64 + 1))).collect();

        for sid in 0..ir.superplans().len() {
            let sp = &ir.superplans()[sid];
            for (round, len) in [(0u64, 0usize), (1, 1), (0, 7), (1, 16)] {
                let args: Vec<u64> = (0..sp.args as u64).map(|_| round).collect();
                let has_out = sp.shape.iter().flatten().any(|o| o.block && o.write);
                let has_in = sp.shape.iter().flatten().any(|o| o.block && !o.write);
                let block_out: Vec<u64> =
                    if has_out { (0..len as u64).map(|k| k * 3 + round).collect() } else { vec![] };
                let mut block_in = vec![0u64; if has_in { len } else { 0 }];
                let mut outs = vec![0u64; sp.outputs];

                let mut pm = PortMap::new(&mut bus, ports.clone());
                let l0 = pm.bus().ledger();
                let t0 = pm.bus().now_ns();
                let st0 = inst.plan_stats();
                inst.run_superplan(&mut pm, sid, &args, &block_out, &mut block_in, &mut outs)
                    .unwrap_or_else(|e| panic!("{name} {}: {e:?}", sp.name));
                let delta = pm.bus().ledger().since(&l0);
                let elapsed = pm.bus().now_ns() - t0;
                let st = inst.plan_stats();
                assert_eq!(st.fused - st0.fused, 1, "{name} {}: dispatch was not fused", sp.name);

                let predictions: Vec<(Ledger, f64)> = sp
                    .shape
                    .iter()
                    .map(|shape| predict(shape, block_out.len(), block_in.len(), &costs))
                    .collect();
                let matched =
                    predictions.iter().any(|(l, ns)| *l == delta && (elapsed - ns).abs() < 1e-6);
                assert!(
                    matched,
                    "{name} {}: ledger delta {delta:?} over {elapsed}ns matches no declared \
                     variant shape (predictions: {predictions:?})",
                    sp.name
                );
                if predictions.len() == 1 {
                    assert_eq!(delta, predictions[0].0, "{name} {}: single-variant shape", sp.name);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random interleavings of state-perturbing op preludes and
    /// superplan calls with arbitrary operands and block lengths —
    /// including cell-corrupting presets that force selection misses —
    /// must be indistinguishable between the fused and unfused paths.
    /// The first drawn word picks the spec; the rest decode into calls.
    #[test]
    fn random_superplan_streams_agree(words in collection::vec(any::<u64>(), 2..32)) {
        let specs = irs();
        let (name, ir) = &specs[(words[0] % specs.len() as u64) as usize];
        let seq = decode_super(ir, &words[1..]);
        if let Err(e) = compare_runtimes(ir, false, &seq) {
            panic!("{name}: fused and unfused superplan paths diverge\n{e}");
        }
    }

    /// A second, independent draw of shorter random superplan streams.
    #[test]
    fn rooted_random_superplan_streams_agree(words in collection::vec(any::<u64>(), 2..24)) {
        let specs = irs();
        let (name, ir) = &specs[(words[0] % specs.len() as u64) as usize];
        let seq = decode_super(ir, &words[1..]);
        if let Err(e) = compare_runtimes(ir, false, &seq) {
            panic!("{name}: fused and unfused superplan paths diverge\n{e}");
        }
    }
}
