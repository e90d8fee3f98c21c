//! The compiled-stub differential oracle over the whole embedded spec
//! library, written once for both emitted back ends: emit a spec's
//! stubs (the C header, or the Rust module), compile them with a
//! generated bus-shim harness (`cc`, or `rustc` against a logging
//! `DeviceAccess` shim crate), replay fuzz op-streams through the
//! compiled binary and through the plan executor's harness view, and
//! compare bus logs, read results and final cache state.
//!
//! Each test binary (`compiled_diff` for C, `compiled_rust_diff` for
//! Rust) calls these bodies with its back end. A back end skips loudly
//! (but green) when its compiler is missing, so tier-1 stays runnable
//! anywhere. Artifacts are content-hashed into `CARGO_TARGET_TMPDIR`,
//! so repeated runs (and CI caches of `target/tmp`) compile each spec
//! at most once per emitter/spec revision.

use crate::common::Skewed;
use devil_fuzz::compiled::{stub_expresses, Backend, CompiledHarness};
use devil_fuzz::superfuzz::{decode_super, super_sweep};
use devil_fuzz::{compare, decode, init_sweep_ops, render, sweep_ops, Mismatch, Op, Outcome, Rig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::PathBuf;
use std::sync::OnceLock;

fn oracle_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled-oracle")
}

/// Whether `backend`'s compiler is on PATH; every call that finds it
/// missing says so. The probe spawns a process, so it runs once per
/// test binary, and a test binary runs one back end.
fn available(backend: Backend) -> bool {
    static AVAILABLE: OnceLock<(Backend, bool)> = OnceLock::new();
    let &(probed, found) = AVAILABLE.get_or_init(|| (backend, backend.available()));
    assert_eq!(probed, backend, "one back end per test binary");
    if !found {
        eprintln!("skipping the compiled-{backend} oracle: no `{}` on PATH", backend.compiler());
    }
    found
}

fn synthetic(name: &str) -> bool {
    devil_fuzz::synthetic::ALL.iter().any(|(n, _)| *n == name)
}

/// The 8-spec library plus the synthetic formerly-fallback specs,
/// lowered and compiled once per test binary for `backend`; empty when
/// its compiler is missing. Ops a spec's stub surface cannot express
/// (memw's cell-guarded `w` setter keeps the runtime API) are dropped
/// identically by both rigs of a compare.
fn harnesses(backend: Backend) -> &'static [CompiledHarness] {
    static HARNESSES: OnceLock<Vec<CompiledHarness>> = OnceLock::new();
    if !available(backend) {
        return &[];
    }
    HARNESSES.get_or_init(|| {
        devil_fuzz::spec_library()
            .iter()
            .map(|(name, ir)| {
                CompiledHarness::build(backend, name, ir, &oracle_dir()).unwrap_or_else(|e| {
                    panic!("{name}: cannot build the compiled-{backend} oracle: {e}")
                })
            })
            .collect()
    })
}

/// The compiled harness of spec `name`. Call it only once
/// [`available`] has returned true.
fn named(backend: Backend, name: &str) -> &'static CompiledHarness {
    let found = harnesses(backend).iter().find(|h| h.name == name);
    found.unwrap_or_else(|| panic!("{name}: not in the compiled-{backend} spec library"))
}

/// The compiled stubs against the plan executor's harness view.
fn diff(h: &CompiledHarness, ops: &[Op]) -> Result<Outcome, Mismatch> {
    compare(&h.view(), h, || ops.iter().cloned())
}

fn assert_agrees(h: &CompiledHarness, ops: &[Op]) {
    if let Err(e) = diff(h, ops) {
        panic!("{} ({}): {e}", h.name, h.backend);
    }
}

/// Every spec's stub surface is non-trivial: the oracle is replaying
/// real work, not an empty filtered stream. Every module compiled, or
/// the harness constructor would have panicked.
pub fn stub_surface_covers_the_spec_library(backend: Backend) {
    if !available(backend) {
        return;
    }
    for h in harnesses(backend) {
        assert!(
            !h.api.read_vars.is_empty() || !h.api.write_vars.is_empty(),
            "{}: no variable stubs emitted",
            h.name
        );
        let ops = sweep_ops(&h.ir);
        let kept = ops.iter().filter(|op| stub_expresses(&h.ir, &h.api, op)).count();
        // Shipped specs keep the wide-coverage floor; the synthetic
        // fallback shapes are deliberately tiny.
        let floor = if synthetic(&h.name) { 0 } else { 4 };
        assert!(kept > floor, "{}: sweep filtered down to {kept} ops", h.name);
    }
    // The guard-split flagship: pic8259's conditional init flush is a
    // compiled stub, exercised through every guard combination.
    let pic = named(backend, "pic8259");
    let init = pic.ir.struct_id("init").unwrap();
    assert!(pic.api.write_structs.contains(&init), "pic init flush must be compiled");
}

/// The deterministic coverage sweep, compiled stubs vs the plans.
pub fn coverage_sweep_matches(backend: Backend) {
    for h in harnesses(backend) {
        assert_agrees(h, &sweep_ops(&h.ir));
    }
}

/// The guard-domain init sweep: every structure flushed across its
/// whole guard cross product, compiled stubs vs the plans.
pub fn init_sequence_sweep_matches(backend: Backend) {
    for h in harnesses(backend) {
        assert_agrees(h, &init_sweep_ops(&h.ir));
    }
}

/// Cold-cache reads: the generated idempotent getters must perform the
/// same device I/O as `read_id` on a never-touched cache, then serve
/// later reads without I/O — validity tracking, not zero-initialization,
/// decides.
pub fn cold_and_warm_reads_match(backend: Backend) {
    for h in harnesses(backend) {
        let mut ops: Vec<Op> = Vec::new();
        for &vid in &h.api.read_vars {
            ops.push(Op::ReadVar { vid, args: Vec::new() });
            ops.push(Op::ReadVar { vid, args: Vec::new() });
        }
        assert_agrees(h, &ops);
    }
}

/// Private (memory-cell) structure fields: staging, set-actions and
/// cached getters must agree between compiled stubs and the plans.
/// Regression for the lowering bug where such fields carried an empty
/// slot-assemble list and the cached getter returned 0.
pub fn private_struct_fields_agree(backend: Backend) {
    if !available(backend) {
        return;
    }
    let src = r#"device privfield (base : bit[8] port @ {0..0}) {
        register a = base @ 0, set {pm = true} : bit[8];
        structure s = {
          private variable pm : bool;
          variable fa = a : int(8);
        };
    }"#;
    let model = devil_sema::check_source(src, &[]).expect("probe spec checks");
    let ir = devil_ir::lower(&model);
    let pm = ir.var_id("pm").unwrap();
    let fa = ir.var_id("fa").unwrap();
    let sid = ir.struct_id("s").unwrap();
    let ops = vec![
        Op::WriteVar { vid: pm, args: vec![], value: 0x55 },
        Op::ReadVar { vid: pm, args: vec![] },
        Op::WriteStruct { sid, values: vec![(pm, 0), (fa, 0x7e)] },
        Op::ReadStruct { sid },
        Op::ReadVar { vid: pm, args: vec![] },
    ];
    let h = CompiledHarness::build(backend, "privfield", &ir, &oracle_dir())
        .expect("probe stub builds");
    assert_agrees(&h, &ops);
}

/// The formerly-fallback shapes present exactly the expected stub
/// surface: input-sourced guards (selfw) and inlined nested
/// conditionals (nestedc/nestede) emit; cell-sourced guards (memw's
/// `w`) are rejected by `plan_emittable` — never mis-emitted — and keep
/// the runtime API behind a marker comment. The emittable shapes then
/// replay guard-hammering streams through the oracle.
pub fn formerly_fallback_shapes_join_the_oracle(backend: Backend) {
    if !available(backend) {
        return;
    }
    let selfw = named(backend, "selfw");
    let w = selfw.ir.var_id("w").unwrap();
    assert!(selfw.api.writes_var(w), "input-guarded write must emit");
    let rest = selfw.ir.var_id("rest").unwrap();
    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x2a },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
    ];
    assert_agrees(selfw, &ops);

    let memw = named(backend, "memw");
    let mw = memw.ir.var_id("w").unwrap();
    assert!(memw.ir.var(mw).write_plan.is_some(), "the cell-guarded plan compiles");
    assert!(!memw.api.writes_var(mw), "cell-guarded writes must keep the runtime API");
    let stubs = memw.backend.emit(&memw.ir, "memw");
    assert!(
        stubs.to_lowercase().contains("variable `w` (write): not plan-compiled"),
        "{}: {stubs}",
        memw.backend
    );
    let m = memw.ir.var_id("m").unwrap();
    assert!(memw.api.writes_var(m) && memw.api.reads_var(m), "the plain cell round-trips");

    for name in ["nestedc", "nestede"] {
        let h = named(backend, name);
        let payload = h.ir.var_id("payload").unwrap();
        assert!(h.api.reads_var(payload), "{name}: inlined nested conditional must emit");
        let mut ops = vec![
            Op::Preset { port: 0, offset: 2, value: 0x99 },
            Op::ReadVar { vid: payload, args: vec![] },
            Op::Preset { port: 0, offset: 2, value: 0x42 },
            Op::ReadVar { vid: payload, args: vec![] },
        ];
        if name == "nestede" {
            // Drive both entry-state guard values of the unassigned
            // tested field.
            let sel = h.ir.var_id("sel").unwrap();
            ops.push(Op::WriteVar { vid: sel, args: vec![], value: 1 });
            ops.push(Op::ReadVar { vid: payload, args: vec![] });
        }
        assert_agrees(h, &ops);
    }
}

/// The fused stub surface is exactly what ships: every driver-declared
/// superplan lowers to a compiled body, the synthetic fixtures with
/// input-resolved or inlined-nested guards lower too, and memw's
/// cell-guarded burst is rejected — it keeps the runtime API behind a
/// marker comment, never a mis-emitted guard chain.
pub fn fused_stub_surface_is_complete(backend: Backend) {
    if !available(backend) {
        return;
    }
    let surface: Vec<(&str, usize, usize)> = harnesses(backend)
        .iter()
        .filter(|h| !h.ir.superplans().is_empty())
        .map(|h| (&h.name[..], h.ir.superplans().len(), h.api.superplans.len()))
        .collect();
    assert_eq!(
        surface,
        vec![
            ("ide", 2, 2),
            ("permedia2", 3, 3),
            ("ne2000", 1, 1),
            ("pic8259", 1, 1),
            ("selfw", 1, 1),
            ("memw", 1, 0),
            ("nestedc", 1, 1),
            ("nestede", 1, 1),
            ("selfact", 1, 1),
        ],
        "{backend}: fused stub surface drifted"
    );
    let memw = named(backend, "memw");
    let stubs = memw.backend.emit(&memw.ir, "memw");
    assert!(stubs.to_lowercase().contains("superplan `burst`: not emittable"), "{stubs}");
}

/// The deterministic superplan sweep, compiled fused bodies vs the
/// fused plans: identical bus logs (one word at a time, so block
/// bursts are compared cycle-for-cycle), outputs, read-block contents
/// and final cache state.
pub fn superplan_sweep_matches(backend: Backend) {
    for h in harnesses(backend).iter().filter(|h| !h.api.superplans.is_empty()) {
        assert_agrees(h, &super_sweep(&h.ir));
    }
}

/// Both sweep surfaces condense to one matching 32-byte root per side:
/// the agreed root does not depend on which rig the compare names
/// first, and it folds exactly one leaf per line of the harness
/// transcript.
pub fn root_compare_matches_on_sweeps(backend: Backend) {
    for h in harnesses(backend) {
        let mut streams = vec![sweep_ops(&h.ir)];
        if !h.api.superplans.is_empty() {
            streams.push(super_sweep(&h.ir));
        }
        for ops in &streams {
            let fwd = diff(h, ops).unwrap_or_else(|e| panic!("{} ({}): {e}", h.name, h.backend));
            let back = compare(h, &h.view(), || ops.iter().cloned())
                .unwrap_or_else(|e| panic!("{} ({}): {e}", h.name, h.backend));
            assert_eq!(
                fwd.root, back.root,
                "{} ({}): root depends on rig order",
                h.name, h.backend
            );
            let lines = render(h, ops.iter().cloned()).expect("harness runs");
            assert_eq!(fwd.leaves, lines.len() as u64, "{} ({})", h.name, h.backend);
        }
    }
}

/// Sensitivity of the oracle on the input guard source: dropping one
/// input-guarded write from the compiled side must surface as a
/// divergence.
pub fn oracle_detects_divergence_on_input_guarded_stubs(backend: Backend) {
    if !available(backend) {
        return;
    }
    let h = named(backend, "selfw");
    let w = h.ir.var_id("w").unwrap();
    let rest = h.ir.var_id("rest").unwrap();
    let ops = [
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
    ];
    // Skew: the compiled side misses the guarded w write.
    let skewed = Skewed::new(h, |i, op| (i != 0).then_some(op));
    let m = compare(&h.view(), &skewed, || ops.iter().cloned())
        .expect_err("the oracle must notice the missing guarded write");
    assert!(m.divergence.is_some(), "{}: both rigs must replay: {m}", h.backend);
}

/// The oracle is sensitive on either side: replaying the sweep with the
/// device presets removed — on the compiled side, or on the plans' —
/// must surface as a divergence of the observations, not a failed rig.
/// Guards against a comparator that vacuously passes.
pub fn oracle_detects_injected_divergence(backend: Backend) {
    if !available(backend) {
        return;
    }
    let h = named(backend, "busmouse");
    let ops = sweep_ops(&h.ir);
    assert!(ops.iter().any(|o| matches!(o, Op::Preset { .. })), "sweep must preset");
    let no_presets = |_: u64, op: Op| (!matches!(op, Op::Preset { .. })).then_some(op);
    let view = h.view();
    let (stubs_skewed, view_skewed) = (Skewed::new(h, no_presets), Skewed::new(&view, no_presets));
    let sides: [(&dyn Rig, &dyn Rig); 2] = [(&view, &stubs_skewed), (&view_skewed, h)];
    for (a, b) in sides {
        let m = compare(a, b, || ops.iter().cloned())
            .expect_err("a stream without its presets must diverge");
        assert!(m.divergence.is_some(), "{} vs {}: both rigs must replay: {m}", a.name(), b.name());
    }
}

/// The oracle's bisection is exact: feed the compiled side the sweep
/// with the device presets removed, and the compare must fail naming
/// exactly the line a linear scan of the two transcripts names first.
pub fn root_compare_bisects_injected_divergence(backend: Backend) {
    if !available(backend) {
        return;
    }
    let h = named(backend, "busmouse");
    let ops = sweep_ops(&h.ir);
    assert!(ops.iter().any(|o| matches!(o, Op::Preset { .. })), "sweep must preset");
    let skewed = Skewed::new(h, |_, op| (!matches!(op, Op::Preset { .. })).then_some(op));
    let want = render(&h.view(), ops.iter().cloned()).expect("view replays");
    let got = render(&skewed, ops.iter().cloned()).expect("harness runs");
    let linear_first = want
        .iter()
        .zip(&got)
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len())) as u64;
    let m = compare(&h.view(), &skewed, || ops.iter().cloned())
        .expect_err("skewed stream must fail root compare");
    let leaf = m.divergence.map(|d| d.leaf);
    assert_eq!(leaf, Some(linear_first), "{}: {m}", h.backend);
}

/// Shipped coverage corpus replay: every minimized corpus stream (grown
/// to saturate the plans' dispatch coverage) also replays through the
/// compiled stubs and fused bodies.
pub fn corpus_streams_match(backend: Backend) {
    for h in harnesses(backend) {
        for (i, words) in devil_fuzz::coverage::shipped_corpus(&h.name).iter().enumerate() {
            if let Err(e) = diff(h, &decode(&h.ir, words)) {
                panic!("{} ({}): corpus stream {i}: {e}", h.name, h.backend);
            }
            if !h.api.superplans.is_empty() {
                if let Err(e) = diff(h, &decode_super(&h.ir, words)) {
                    panic!("{} ({}): corpus stream {i} (fused): {e}", h.name, h.backend);
                }
            }
        }
    }
}

/// Random op streams over every spec: the compiled stubs and the plans
/// must be observationally identical.
pub fn random_streams_agree(backend: Backend, words: &[u64]) -> Result<(), TestCaseError> {
    for h in harnesses(backend) {
        let r = diff(h, &decode(&h.ir, words));
        prop_assert!(r.is_ok(), "{} ({}): {}", h.name, h.backend, r.err().unwrap());
    }
    Ok(())
}

/// Random interleavings of op preludes and superplan calls: the
/// compiled fused bodies and the fused plans must be observationally
/// identical on the emittable surface.
pub fn random_superplan_streams_agree(
    backend: Backend,
    words: &[u64],
) -> Result<(), TestCaseError> {
    for h in harnesses(backend).iter().filter(|h| !h.api.superplans.is_empty()) {
        let r = diff(h, &decode_super(&h.ir, words));
        prop_assert!(r.is_ok(), "{} ({}): {}", h.name, h.backend, r.err().unwrap());
    }
    Ok(())
}
