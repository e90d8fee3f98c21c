//! The compiled-stub differential oracle over the whole embedded spec
//! library, written once for both emitted back ends: replay fuzz
//! op-streams through a spec's compiled stubs and through the plan
//! executor's harness view, and compare bus logs, read results and
//! final cache state.
//!
//! Each test binary calls these bodies with its [`Lang`]:
//! `compiled_diff` with the C headers, which it emits, compiles with
//! `cc` into a bus-shim harness and runs as a subprocess;
//! `compiled_rust_diff` with the committed Rust goldens it compiles in,
//! which it drives in process. The C oracle skips loudly (but green)
//! when `cc` is missing, so tier-1 stays runnable anywhere; its
//! artifacts are cached in `CARGO_TARGET_TMPDIR` under a hash of their
//! sources and compiler command line, so repeated runs (and CI caches
//! of `target/tmp`) compile each spec at most once per emitter, spec
//! and flag revision. The Rust oracle needs no toolchain at run time:
//! `emit_goldens` ties the goldens to the emitter, and this oracle
//! runs the goldens.

use crate::common::Skewed;
use devil_fuzz::compiled::{stub_expresses, CompiledHarness, CompiledIn, Fresh, HarnessView};
use devil_fuzz::coverage::{corpus, Coverage};
use devil_fuzz::superfuzz::{decode_super, super_sweep};
use devil_fuzz::{compare, decode, init_sweep_ops, render, sweep_ops, Mismatch, Op, Outcome, Rig};
use devil_ir::DeviceIr;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The stubs a test binary compares with the plan executor.
#[derive(Clone, Copy)]
// Each test binary constructs one variant.
#[allow(dead_code)]
pub enum Lang {
    /// The emitted C headers, built into harness binaries with `cc`.
    C,
    /// The emitted Rust modules compiled into the test binary: each
    /// spec's name and its glue's cold-instance constructor.
    Rust(&'static [(&'static str, Fresh)]),
}

impl std::fmt::Display for Lang {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Lang::C => "C",
            Lang::Rust(_) => "Rust",
        })
    }
}

impl Lang {
    /// The compiled stubs of one spec.
    fn stubs(self, name: &str, ir: &DeviceIr) -> Stubs {
        let rig: Box<dyn Rig + Send + Sync> = match self {
            Lang::C => Box::new(
                CompiledHarness::build(name, ir, &oracle_dir())
                    .unwrap_or_else(|e| panic!("{name}: cannot build the C oracle: {e}")),
            ),
            Lang::Rust(modules) => {
                let found = modules.iter().find(|(n, _)| *n == name);
                let (_, fresh) = found.unwrap_or_else(|| panic!("{name}: no compiled-in module"));
                Box::new(CompiledIn::new(ir, *fresh))
            }
        };
        Stubs { name: name.into(), ir: ir.clone(), rig }
    }

    /// The emitted text the stubs are compiled from.
    fn emit(self, ir: &DeviceIr, name: &str) -> String {
        match self {
            Lang::C => devil_codegen::emit_c(ir, name),
            Lang::Rust(_) => devil_codegen::emit_rust(ir),
        }
    }
}

/// One spec's compiled stubs, as a rig.
pub struct Stubs {
    name: String,
    ir: DeviceIr,
    rig: Box<dyn Rig + Send + Sync>,
}

impl Stubs {
    /// The plan executor rendered in the stubs' observation lines.
    fn view(&self) -> HarnessView<'_> {
        HarnessView::new(&self.ir)
    }
}

impl Rig for Stubs {
    fn name(&self) -> String {
        self.rig.name()
    }

    fn replay(
        &self,
        ops: &mut dyn Iterator<Item = Op>,
        trace: &mut devil_fuzz::Trace,
    ) -> Result<(), String> {
        self.rig.replay(ops, trace)
    }
}

fn oracle_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled-oracle")
}

/// Whether `lang`'s stubs can run: the Rust ones always can; the C ones
/// need `cc` on PATH, and every call that finds it missing says so. The
/// probe spawns a process, so it runs once per test binary.
fn available(lang: Lang) -> bool {
    static CC: OnceLock<bool> = OnceLock::new();
    if let Lang::Rust(_) = lang {
        return true;
    }
    let found = *CC.get_or_init(CompiledHarness::available);
    if !found {
        eprintln!("skipping the compiled-C oracle: no `cc` on PATH");
    }
    found
}

fn synthetic(name: &str) -> bool {
    devil_fuzz::synthetic::ALL.iter().any(|(n, _)| *n == name)
}

/// The 8-spec library plus the synthetic formerly-fallback specs, each
/// with its compiled stubs, built once per test binary (which runs one
/// `Lang`); empty when they cannot run. Ops without a stub (accesses
/// without a plan, plain block transfers) are dropped identically by
/// both rigs of a compare.
fn harnesses(lang: Lang) -> &'static [Stubs] {
    static HARNESSES: OnceLock<(String, Vec<Stubs>)> = OnceLock::new();
    if !available(lang) {
        return &[];
    }
    let (built, stubs) = HARNESSES.get_or_init(|| {
        let library = devil_fuzz::spec_library();
        (lang.to_string(), library.iter().map(|(name, ir)| lang.stubs(name, ir)).collect())
    });
    assert_eq!(*built, lang.to_string(), "one back end per test binary");
    stubs
}

/// The compiled stubs of spec `name`. Call it only once [`available`]
/// has returned true.
fn named(lang: Lang, name: &str) -> &'static Stubs {
    let found = harnesses(lang).iter().find(|h| h.name == name);
    found.unwrap_or_else(|| panic!("{name}: not in the compiled-{lang} spec library"))
}

/// The compiled stubs of probe spec `name` (`devil_fuzz::synthetic::PROBES`).
fn probe(lang: Lang, name: &str) -> Stubs {
    let probes = devil_fuzz::probe_library();
    let (_, ir) = probes.iter().find(|(n, _)| n == name).expect("a probe spec");
    lang.stubs(name, ir)
}

/// The compiled stubs against the plan executor's harness view.
fn diff(h: &Stubs, ops: &[Op]) -> Result<Outcome, Mismatch> {
    compare(&h.view(), h, || ops.iter().cloned())
}

fn assert_agrees(h: &Stubs, ops: &[Op]) {
    if let Err(e) = diff(h, ops) {
        panic!("{} ({}): {e}", h.name, h.rig.name());
    }
}

/// Every spec's stub surface is non-trivial: the oracle is replaying
/// real work, not an empty filtered stream. Every module compiled, or
/// the harness constructor would have panicked.
pub fn stub_surface_covers_the_spec_library(lang: Lang) {
    if !available(lang) {
        return;
    }
    for h in harnesses(lang) {
        assert!(
            h.ir.vars.iter().any(|v| v.read_plan.is_some() || v.write_plan.is_some()),
            "{}: no variable stubs emitted",
            h.name
        );
        let ops = sweep_ops(&h.ir);
        let kept = ops.iter().filter(|op| stub_expresses(&h.ir, op)).count();
        // Shipped specs keep the wide-coverage floor; the synthetic
        // fallback shapes are deliberately tiny.
        let floor = if synthetic(&h.name) { 0 } else { 4 };
        assert!(kept > floor, "{}: sweep filtered down to {kept} ops", h.name);
    }
    // The guard-split flagship: pic8259's conditional init flush is a
    // compiled stub, exercised through every guard combination.
    let pic = named(lang, "pic8259");
    let init = pic.ir.struct_id("init").unwrap();
    let ws = Op::WriteStruct { sid: init, values: vec![] };
    assert!(pic.ir.strct(init).write_plan.is_some(), "pic init flush must be compiled");
    let values = pic.ir.strct(init).fields.iter().map(|&f| (f, 0)).collect();
    assert!(!stub_expresses(&pic.ir, &ws), "a flush needs every field staged");
    assert!(stub_expresses(&pic.ir, &Op::WriteStruct { sid: init, values }));
}

/// The deterministic coverage sweep, compiled stubs vs the plans.
pub fn coverage_sweep_matches(lang: Lang) {
    for h in harnesses(lang) {
        assert_agrees(h, &sweep_ops(&h.ir));
    }
}

/// The guard-domain init sweep: every structure flushed across its
/// whole guard cross product, compiled stubs vs the plans.
pub fn init_sequence_sweep_matches(lang: Lang) {
    for h in harnesses(lang) {
        assert_agrees(h, &init_sweep_ops(&h.ir));
    }
}

/// Cold-cache reads: the generated idempotent getters must perform the
/// same device I/O as `read_id` on a never-touched cache, then serve
/// later reads without I/O — validity tracking, not zero-initialization,
/// decides. Family variables read their first instance.
pub fn cold_and_warm_reads_match(lang: Lang) {
    for h in harnesses(lang) {
        let mut ops: Vec<Op> = Vec::new();
        for op in devil_fuzz::probe_ops(&h.ir) {
            ops.push(op.clone());
            ops.push(op);
        }
        assert_agrees(h, &ops);
    }
}

/// Private (memory-cell) structure fields: staging, set-actions and
/// cached getters must agree between compiled stubs and the plans.
/// Regression for the lowering bug where such fields carried an empty
/// slot-assemble list and the cached getter returned 0.
pub fn private_struct_fields_agree(lang: Lang) {
    if !available(lang) {
        return;
    }
    let h = probe(lang, "privfield");
    let ir = &h.ir;
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
    assert_agrees(&h, &ops);
}

/// A two-parameter family, read through a variable that fixes one
/// parameter and through one that passes both: the index helper, the
/// constants folded into a slot and the per-argument domain checks
/// (gaps included) must agree with the plans, instance by instance.
pub fn multi_parameter_families_agree(lang: Lang) {
    if !available(lang) {
        return;
    }
    let h = probe(lang, "fam2");
    let ir = &h.ir;
    let (w, u) = (ir.var_id("w").unwrap(), ir.var_id("u").unwrap());
    let mut ops = vec![Op::Preset { port: 0, offset: 1, value: 0x77 }];
    for (i, j) in [(0, 2), (1, 3), (1, 7), (0, 7), (2, 3), (1, 4), (0, 8)] {
        ops.push(Op::WriteVar { vid: u, args: vec![i, j], value: 0x10 + i * 8 + j });
        ops.push(Op::ReadVar { vid: u, args: vec![i, j] });
        ops.push(Op::ReadVar { vid: w, args: vec![j] });
    }
    assert!(ops.iter().all(|op| stub_expresses(ir, op)), "family calls all have stubs");
    assert_agrees(&h, &ops);
}

/// The formerly-fallback shapes all have stubs: input-sourced guards
/// (selfw), cell-sourced guards (memw) and inlined nested conditionals
/// (nestedc/nestede) replay guard-hammering streams through the oracle.
pub fn formerly_fallback_shapes_join_the_oracle(lang: Lang) {
    if !available(lang) {
        return;
    }
    let selfw = named(lang, "selfw");
    let w = selfw.ir.var_id("w").unwrap();
    let rest = selfw.ir.var_id("rest").unwrap();
    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x2a },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
    ];
    assert!(ops.iter().all(|op| stub_expresses(&selfw.ir, op)), "input-guarded writes emit");
    assert_agrees(selfw, &ops);

    // The cell-guarded write: both values of the tested cell select
    // their variant, and each variant's bus traffic must match.
    let memw = named(lang, "memw");
    let (mw, m) = (memw.ir.var_id("w").unwrap(), memw.ir.var_id("m").unwrap());
    let mut ops = Vec::new();
    for (cell, value) in [(0, 3), (1, 2), (1, 1), (0, 0)] {
        ops.push(Op::WriteVar { vid: m, args: vec![], value: cell });
        ops.push(Op::WriteVar { vid: mw, args: vec![], value });
        ops.push(Op::ReadVar { vid: m, args: vec![] });
    }
    assert!(ops.iter().all(|op| stub_expresses(&memw.ir, op)), "cell-guarded writes emit");
    assert_agrees(memw, &ops);
    let stubs = lang.emit(&memw.ir, "memw");
    let cell_guard = if let Lang::C = lang { "memw_cache.mem_m == " } else { "self.mem_m == " };
    assert!(stubs.contains(cell_guard), "{lang}: {stubs}");

    for name in ["nestedc", "nestede"] {
        let h = named(lang, name);
        let payload = h.ir.var_id("payload").unwrap();
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
        assert!(ops.iter().all(|op| stub_expresses(&h.ir, op)), "{name}: nested reads emit");
        assert_agrees(h, &ops);
    }
}

/// The fused stub surface is exactly what ships: every declared
/// superplan — driver-declared and synthetic, memw's cell-guarded
/// burst included — has a compiled body.
pub fn fused_stub_surface_is_complete(lang: Lang) {
    if !available(lang) {
        return;
    }
    let surface: Vec<(&str, usize, usize)> = harnesses(lang)
        .iter()
        .filter(|h| !h.ir.superplans().is_empty())
        .map(|h| {
            let stubs = lang.emit(&h.ir, &h.name);
            let emitted =
                h.ir.superplans()
                    .iter()
                    .filter(|sp| stubs.contains(&format!("sp_{}(", sp.name)))
                    .count();
            (&h.name[..], h.ir.superplans().len(), emitted)
        })
        .collect();
    assert_eq!(
        surface,
        vec![
            ("ide", 2, 2),
            ("permedia2", 3, 3),
            ("ne2000", 1, 1),
            ("pic8259", 1, 1),
            ("selfw", 1, 1),
            ("memw", 1, 1),
            ("nestedc", 1, 1),
            ("nestede", 1, 1),
            ("selfact", 1, 1),
        ],
        "{lang}: fused stub surface drifted"
    );
}

/// The compiled oracles see the whole plan surface. Each spec's
/// sweeps and coverage corpus (replayed as `coverage::stream_hits`
/// replays it, and compared so), through the filter the harness
/// replays them with, reach every dispatch point of all 13 specs (166)
/// in the plan executor behind the harness view — so no filter can
/// shrink what the oracles compare without this failing. Family calls
/// with arguments outside their domains (past every range, in every
/// gap) then replay through the compiled stubs and the runtime, which
/// must both reject them with the same `ArgOutOfRange` line and no bus
/// traffic.
pub fn every_dispatch_point_is_compiled(lang: Lang) {
    if !available(lang) {
        return;
    }
    let mut points = 0;
    for h in harnesses(lang) {
        let mut streams = vec![sweep_ops(&h.ir), init_sweep_ops(&h.ir), super_sweep(&h.ir)];
        // A corpus stream replays as it was drawn — its variable and
        // structure ops, then the fused decoding of the same words —
        // and through the compiled stubs too, since the fused variants
        // it reaches depend on the state the ops before them leave.
        for words in corpus(&h.ir) {
            let ops = [decode(&h.ir, &words), decode_super(&h.ir, &words)].concat();
            assert_agrees(h, &ops);
            streams.push(ops);
        }
        let mut cov = Coverage::new(&h.ir);
        for ops in streams {
            cov.merge(&h.view().hits(ops).unwrap_or_else(|e| panic!("{}: {e}", h.name)));
        }
        assert!(cov.complete(), "{} ({}): unreached {:?}", h.name, lang, cov.unreached(&h.ir));
        points += h.ir.dispatch_points();

        let mut ops = Vec::new();
        for (vi, var) in h.ir.vars.iter().enumerate() {
            let vid = devil_sema::model::VarId(vi as u32);
            for (k, p) in var.params.iter().enumerate() {
                let bad = p.values.iter().map(|&(_, hi)| hi + 1).filter(|&a| !p.contains(a));
                for a in bad {
                    let mut args: Vec<u64> = var.params.iter().map(|p| p.values[0].0).collect();
                    args[k] = a;
                    if var.read_plan.is_some() {
                        ops.push(Op::ReadVar { vid, args: args.clone() });
                    }
                    if var.write_plan.is_some() {
                        ops.push(Op::WriteVar { vid, args, value: 0x5a });
                    }
                }
            }
        }
        if ops.is_empty() {
            continue;
        }
        // In-domain calls around them show the state was left alone.
        ops.extend(devil_fuzz::probe_ops(&h.ir));
        assert_agrees(h, &ops);
        let lines = render(h, ops.iter().cloned()).expect("harness runs");
        let rejected = lines.iter().filter(|l| l.contains("ERR ArgOutOfRange")).count();
        assert!(rejected >= 4, "{} ({}): {rejected} rejections in {lines:?}", h.name, lang);
    }
    assert_eq!(points, 166, "{lang}: the spec library's dispatch points");
}

/// The deterministic superplan sweep, compiled fused bodies vs the
/// fused plans: identical bus logs (one word at a time, so block
/// bursts are compared cycle-for-cycle), outputs, read-block contents
/// and final cache state.
pub fn superplan_sweep_matches(lang: Lang) {
    for h in harnesses(lang).iter().filter(|h| !h.ir.superplans().is_empty()) {
        assert_agrees(h, &super_sweep(&h.ir));
    }
}

/// Both sweep surfaces condense to one matching 32-byte root per side:
/// the agreed root does not depend on which rig the compare names
/// first, and it folds exactly one leaf per line of the harness
/// transcript.
pub fn root_compare_matches_on_sweeps(lang: Lang) {
    for h in harnesses(lang) {
        let mut streams = vec![sweep_ops(&h.ir)];
        if !h.ir.superplans().is_empty() {
            streams.push(super_sweep(&h.ir));
        }
        for ops in &streams {
            let fwd = diff(h, ops).unwrap_or_else(|e| panic!("{} ({}): {e}", h.name, lang));
            let back = compare(h, &h.view(), || ops.iter().cloned())
                .unwrap_or_else(|e| panic!("{} ({}): {e}", h.name, lang));
            assert_eq!(fwd.root, back.root, "{} ({}): root depends on rig order", h.name, lang);
            let lines = render(h, ops.iter().cloned()).expect("harness runs");
            assert_eq!(fwd.leaves, lines.len() as u64, "{} ({})", h.name, lang);
        }
    }
}

/// Sensitivity of the oracle on the input guard source: dropping one
/// input-guarded write from the compiled side must surface as a
/// divergence.
pub fn oracle_detects_divergence_on_input_guarded_stubs(lang: Lang) {
    if !available(lang) {
        return;
    }
    let h = named(lang, "selfw");
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
    assert!(m.divergence.is_some(), "{}: both rigs must replay: {m}", lang);
}

/// The oracle is sensitive on either side: replaying the sweep with the
/// device presets removed — on the compiled side, or on the plans' —
/// must surface as a divergence of the observations, not a failed rig.
/// Guards against a comparator that vacuously passes.
pub fn oracle_detects_injected_divergence(lang: Lang) {
    if !available(lang) {
        return;
    }
    let h = named(lang, "busmouse");
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
pub fn root_compare_bisects_injected_divergence(lang: Lang) {
    if !available(lang) {
        return;
    }
    let h = named(lang, "busmouse");
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
    assert_eq!(leaf, Some(linear_first), "{}: {m}", lang);
}

/// Coverage corpus replay: every corpus stream (drawn to saturate the
/// plans' dispatch coverage) also replays through the compiled stubs
/// and fused bodies.
pub fn corpus_streams_match(lang: Lang) {
    for h in harnesses(lang) {
        for (i, words) in corpus(&h.ir).iter().enumerate() {
            if let Err(e) = diff(h, &decode(&h.ir, words)) {
                panic!("{} ({}): corpus stream {i}: {e}", h.name, lang);
            }
            if !h.ir.superplans().is_empty() {
                if let Err(e) = diff(h, &decode_super(&h.ir, words)) {
                    panic!("{} ({}): corpus stream {i} (fused): {e}", h.name, lang);
                }
            }
        }
    }
}

/// Random op streams over every spec: the compiled stubs and the plans
/// must be observationally identical.
pub fn random_streams_agree(lang: Lang, words: &[u64]) -> Result<(), TestCaseError> {
    for h in harnesses(lang) {
        let r = diff(h, &decode(&h.ir, words));
        prop_assert!(r.is_ok(), "{} ({}): {}", h.name, lang, r.err().unwrap());
    }
    Ok(())
}

/// Random interleavings of op preludes and superplan calls: the
/// compiled fused bodies and the fused plans must be observationally
/// identical.
pub fn random_superplan_streams_agree(lang: Lang, words: &[u64]) -> Result<(), TestCaseError> {
    for h in harnesses(lang).iter().filter(|h| !h.ir.superplans().is_empty()) {
        let r = diff(h, &decode_super(&h.ir, words));
        prop_assert!(r.is_ok(), "{} ({}): {}", h.name, lang, r.err().unwrap());
    }
    Ok(())
}
