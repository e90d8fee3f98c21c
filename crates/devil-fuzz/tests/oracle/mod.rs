//! The compiled-stub differential oracle over the whole embedded spec
//! library, written once for both emitted back ends: replay fuzz
//! op-streams, filtered to what the stubs express, through a spec's
//! compiled stubs and through the plan executor, and compare bus logs,
//! read results and final cache state.
//!
//! Each test binary calls every body with its [`Backend`]:
//! `compiled_diff` with the committed C headers and their glue,
//! compiled by `cc` and linked in (`c_stubs::LINKED_IN`), and
//! `compiled_rust_diff` with the committed Rust modules and their glue,
//! compiled in. Both run in process, through the driver the plan
//! executor runs through (`devil_fuzz::drive`). The C oracle skips
//! loudly (but green) where the build found no `cc`, so tier-1 stays
//! runnable anywhere. Neither needs a toolchain at run time:
//! `emit_goldens` ties the goldens and their glue to the emitters, and
//! this oracle runs the goldens.

use crate::common::Skewed;
use devil_fuzz::compiled::{stub_expresses, CompiledIn, Fresh};
use devil_fuzz::coverage::{corpus, hits, stream_ops, Coverage};
use devil_fuzz::superfuzz::{decode_super, super_sweep};
use devil_fuzz::{
    compare, decode, init_sweep_ops, render, sweep_ops, InProcess, Mismatch, Op, Outcome, Rig,
};
use devil_ir::DeviceIr;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fmt;
use std::sync::OnceLock;

/// One back end's compiled stubs: the language they are emitted in,
/// and each spec's name with the constructor of a cold instance.
#[derive(Clone, Copy)]
pub struct Backend {
    pub lang: &'static str,
    pub table: &'static [(&'static str, Fresh)],
}

impl Backend {
    /// Whether the stubs can run. Only the C ones can be missing, where
    /// the build found no `cc`; every call that finds them missing says
    /// so.
    fn available(self) -> bool {
        if self.table.is_empty() {
            eprintln!("skipping the compiled-{} oracle: no `cc` on PATH", self.lang);
        }
        !self.table.is_empty()
    }

    /// The compiled stubs of spec `name`, lowered to `ir`.
    fn stubs(self, name: &'static str, ir: &'static DeviceIr) -> Stubs {
        let found = self.table.iter().find(|(n, _)| *n == name);
        let (_, fresh) = found.unwrap_or_else(|| panic!("{name}: no compiled {} stubs", self.lang));
        Stubs { name, lang: self.lang, ir, rig: CompiledIn::new(self.lang, ir, *fresh) }
    }

    /// The emitted text the stubs are compiled from.
    fn emit(self, ir: &DeviceIr, name: &str) -> String {
        match self.lang {
            "C" => devil_codegen::emit_c(ir, name),
            _ => devil_codegen::emit_rust(ir),
        }
    }
}

/// One spec's compiled stubs, as a rig. It displays as the spec and
/// the back end, the prefix of every failure.
pub struct Stubs {
    name: &'static str,
    lang: &'static str,
    ir: &'static DeviceIr,
    rig: CompiledIn<'static>,
}

impl Stubs {
    /// The plan executor the stubs are compared against.
    fn plans(&self) -> InProcess<'static> {
        InProcess::plans(self.ir)
    }

    /// The ops of `ops` the stubs express: the stream both rigs replay.
    fn kept(&self, ops: &[Op]) -> Vec<Op> {
        ops.iter().filter(|op| stub_expresses(self.ir, op)).cloned().collect()
    }
}

impl fmt::Display for Stubs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.lang)
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

fn synthetic(name: &str) -> bool {
    devil_fuzz::synthetic::ALL.iter().any(|(n, _)| *n == name)
}

/// Named lowered specs.
type Library = Vec<(String, DeviceIr)>;

/// The 8-spec library plus the synthetic formerly-fallback specs, then
/// the probe specs (`devil_fuzz::synthetic::PROBES`), lowered once per
/// test binary.
fn lowered() -> &'static (Library, Library) {
    static LOWERED: OnceLock<(Library, Library)> = OnceLock::new();
    LOWERED.get_or_init(|| (devil_fuzz::spec_library(), devil_fuzz::probe_library()))
}

/// `b`'s compiled stubs of every library spec; none when they cannot
/// run. Ops without a stub (accesses without a plan, plain block
/// transfers) are dropped identically by both rigs of a compare.
fn harnesses(b: Backend) -> Vec<Stubs> {
    if !b.available() {
        return Vec::new();
    }
    lowered().0.iter().map(|(name, ir)| b.stubs(name, ir)).collect()
}

/// `b`'s compiled stubs of library spec `name`. Call it only once
/// [`Backend::available`] has returned true.
fn named(b: Backend, name: &str) -> Stubs {
    let found = lowered().0.iter().find(|(n, _)| n == name);
    let (name, ir) = found.unwrap_or_else(|| panic!("{name}: not in the spec library"));
    b.stubs(name, ir)
}

/// `b`'s compiled stubs of probe spec `name`.
fn probe(b: Backend, name: &str) -> Stubs {
    let (name, ir) = lowered().1.iter().find(|(n, _)| n == name).expect("a probe spec");
    b.stubs(name, ir)
}

/// The compiled stubs against the plan executor, over the ops the
/// stubs express.
fn diff(h: &Stubs, ops: &[Op]) -> Result<Outcome, Mismatch> {
    let kept = h.kept(ops);
    compare(&h.plans(), h, || kept.iter().cloned())
}

fn assert_agrees(h: &Stubs, ops: &[Op]) {
    if let Err(e) = diff(h, ops) {
        panic!("{h}: {e}");
    }
}

/// One read of every readable variable at its first in-domain argument
/// tuple: appended to a stream, it reads back what the ops before it
/// left in the cache and on the device.
fn probe_ops(ir: &DeviceIr) -> Vec<Op> {
    (0..ir.vars.len() as u32)
        .map(devil_sema::model::VarId)
        .filter(|&v| ir.var(v).readable)
        .map(|vid| Op::ReadVar {
            vid,
            args: ir.var(vid).params.iter().map(|p| p.values[0].0).collect(),
        })
        .collect()
}

/// The linked-in set is the spec library plus the probes, so a spec
/// added to either without its stubs fails here instead of going
/// unchecked.
pub fn every_library_spec_and_probe_is_compiled_in(b: Backend) {
    if !b.available() {
        return;
    }
    let (library, probes) = lowered();
    let mut want: Vec<&str> = library.iter().chain(probes).map(|(name, _)| &name[..]).collect();
    let mut got: Vec<&str> = b.table.iter().map(|&(name, _)| name).collect();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "{}: the specs with compiled stubs", b.lang);
}

/// Every spec's stub surface is non-trivial: the oracle is replaying
/// real work, not an empty filtered stream. Every module compiled, or
/// the harness constructor would have panicked.
pub fn stub_surface_covers_the_spec_library(b: Backend) {
    if !b.available() {
        return;
    }
    for h in &harnesses(b) {
        assert!(
            h.ir.vars.iter().any(|v| v.read_plan.is_some() || v.write_plan.is_some()),
            "{h}: no variable stubs emitted"
        );
        let ops = sweep_ops(h.ir);
        let kept = ops.iter().filter(|op| stub_expresses(h.ir, op)).count();
        // Shipped specs keep the wide-coverage floor; the synthetic
        // fallback shapes are deliberately tiny.
        let floor = if synthetic(h.name) { 0 } else { 4 };
        assert!(kept > floor, "{h}: sweep filtered down to {kept} ops");
    }
    // The guard-split flagship: pic8259's conditional init flush is a
    // compiled stub, exercised through every guard combination.
    let pic = &named(b, "pic8259");
    let init = pic.ir.struct_id("init").unwrap();
    let ws = Op::WriteStruct { sid: init, values: vec![] };
    assert!(pic.ir.strct(init).write_plan.is_some(), "{pic}: init flush must be compiled");
    let values = pic.ir.strct(init).fields.iter().map(|&f| (f, 0)).collect();
    assert!(!stub_expresses(pic.ir, &ws), "{pic}: a flush needs every field staged");
    assert!(stub_expresses(pic.ir, &Op::WriteStruct { sid: init, values }), "{pic}");
}

/// The deterministic coverage sweep, compiled stubs vs the plans.
pub fn coverage_sweep_matches(b: Backend) {
    for h in &harnesses(b) {
        assert_agrees(h, &sweep_ops(h.ir));
    }
}

/// The guard-domain init sweep: every structure flushed across its
/// whole guard cross product, compiled stubs vs the plans.
pub fn init_sequence_sweep_matches(b: Backend) {
    for h in &harnesses(b) {
        assert_agrees(h, &init_sweep_ops(h.ir));
    }
}

/// Cold-cache reads: the generated idempotent getters must perform the
/// same device I/O as `read_id` on a never-touched cache, then serve
/// later reads without I/O — validity tracking, not zero-initialization,
/// decides. Family variables read their first instance.
pub fn cold_and_warm_reads_match(b: Backend) {
    for h in &harnesses(b) {
        let mut ops: Vec<Op> = Vec::new();
        for op in probe_ops(h.ir) {
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
pub fn private_struct_fields_agree(b: Backend) {
    if !b.available() {
        return;
    }
    let h = probe(b, "privfield");
    let ir = h.ir;
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
pub fn multi_parameter_families_agree(b: Backend) {
    if !b.available() {
        return;
    }
    let h = probe(b, "fam2");
    let ir = h.ir;
    let (w, u) = (ir.var_id("w").unwrap(), ir.var_id("u").unwrap());
    let mut ops = vec![Op::Preset { port: 0, offset: 1, value: 0x77 }];
    for (i, j) in [(0, 2), (1, 3), (1, 7), (0, 7), (2, 3), (1, 4), (0, 8)] {
        ops.push(Op::WriteVar { vid: u, args: vec![i, j], value: 0x10 + i * 8 + j });
        ops.push(Op::ReadVar { vid: u, args: vec![i, j] });
        ops.push(Op::ReadVar { vid: w, args: vec![j] });
    }
    assert!(ops.iter().all(|op| stub_expresses(ir, op)), "{h}: family calls all have stubs");
    assert_agrees(&h, &ops);
}

/// The formerly-fallback shapes all have stubs: input-sourced guards
/// (selfw), cell-sourced guards (memw) and inlined nested conditionals
/// (nestedc/nestede) replay guard-hammering streams through the oracle.
pub fn formerly_fallback_shapes_join_the_oracle(b: Backend) {
    if !b.available() {
        return;
    }
    let selfw = &named(b, "selfw");
    let w = selfw.ir.var_id("w").unwrap();
    let rest = selfw.ir.var_id("rest").unwrap();
    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x2a },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
    ];
    assert!(
        ops.iter().all(|op| stub_expresses(selfw.ir, op)),
        "{selfw}: input-guarded writes emit"
    );
    assert_agrees(selfw, &ops);

    // The cell-guarded write: both values of the tested cell select
    // their variant, and each variant's bus traffic must match.
    let memw = &named(b, "memw");
    let (mw, m) = (memw.ir.var_id("w").unwrap(), memw.ir.var_id("m").unwrap());
    let mut ops = Vec::new();
    for (cell, value) in [(0, 3), (1, 2), (1, 1), (0, 0)] {
        ops.push(Op::WriteVar { vid: m, args: vec![], value: cell });
        ops.push(Op::WriteVar { vid: mw, args: vec![], value });
        ops.push(Op::ReadVar { vid: m, args: vec![] });
    }
    assert!(ops.iter().all(|op| stub_expresses(memw.ir, op)), "{memw}: cell-guarded writes emit");
    assert_agrees(memw, &ops);
    let stubs = b.emit(memw.ir, "memw");
    let cell_guard = if b.lang == "C" { "memw_cache.mem_m == " } else { "self.mem_m == " };
    assert!(stubs.contains(cell_guard), "{}: {stubs}", b.lang);

    for name in ["nestedc", "nestede"] {
        let h = &named(b, name);
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
        assert!(ops.iter().all(|op| stub_expresses(h.ir, op)), "{h}: nested reads emit");
        assert_agrees(h, &ops);
    }
}

/// The fused stub surface is exactly what ships: every declared
/// superplan — driver-declared and synthetic, memw's cell-guarded
/// burst included — has a compiled body.
pub fn fused_stub_surface_is_complete(b: Backend) {
    if !b.available() {
        return;
    }
    let surface: Vec<(&str, usize, usize)> = harnesses(b)
        .iter()
        .filter(|h| !h.ir.superplans().is_empty())
        .map(|h| {
            let stubs = b.emit(h.ir, h.name);
            let emitted =
                h.ir.superplans()
                    .iter()
                    .filter(|sp| stubs.contains(&format!("sp_{}(", sp.name)))
                    .count();
            (h.name, h.ir.superplans().len(), emitted)
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
        "{}: fused stub surface drifted",
        b.lang
    );
}

/// The compiled oracles see the whole plan surface. Each spec's
/// sweeps and coverage corpus (replayed as `coverage::stream_ops`
/// decodes it, and compared so), through the filter the oracle
/// replays them with, reach every dispatch point of all 13 specs (166)
/// in the plan executor — so no filter can shrink what the oracles
/// compare without this failing. Family calls
/// with arguments outside their domains (past every range, in every
/// gap) then replay through the compiled stubs and the runtime, which
/// must both reject them with the same `ArgOutOfRange` line and no bus
/// traffic.
pub fn every_dispatch_point_is_compiled(b: Backend) {
    if !b.available() {
        return;
    }
    let mut points = 0;
    for h in &harnesses(b) {
        let mut streams = vec![sweep_ops(h.ir), init_sweep_ops(h.ir), super_sweep(h.ir)];
        // A corpus stream replays as it was drawn — its variable and
        // structure ops, then the fused decoding of the same words —
        // and through the compiled stubs too, since the fused variants
        // it reaches depend on the state the ops before them leave.
        for words in corpus(h.ir) {
            let ops = stream_ops(h.ir, &words);
            assert_agrees(h, &ops);
            streams.push(ops);
        }
        let mut cov = Coverage::new(h.ir);
        for ops in streams {
            cov.merge(&hits(h.ir, h.kept(&ops)));
        }
        assert!(cov.complete(), "{h}: unreached {:?}", cov.unreached(h.ir));
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
        ops.extend(probe_ops(h.ir));
        assert_agrees(h, &ops);
        let leaves = render(h, h.kept(&ops).into_iter()).unwrap_or_else(|e| panic!("{h}: {e}"));
        let rejected = leaves.iter().filter(|l| l.contains("ERR ArgOutOfRange")).count();
        assert!(rejected >= 4, "{h}: {rejected} rejections in {leaves:?}");
    }
    assert_eq!(points, 166, "{}: the spec library's dispatch points", b.lang);
}

/// The deterministic superplan sweep, compiled fused bodies vs the
/// fused plans: identical bus logs (one word at a time, so block
/// bursts are compared cycle-for-cycle), outputs, read-block contents
/// and final cache state.
pub fn superplan_sweep_matches(b: Backend) {
    for h in harnesses(b).iter().filter(|h| !h.ir.superplans().is_empty()) {
        assert_agrees(h, &super_sweep(h.ir));
    }
}

/// Both sweep surfaces condense to one matching 32-byte root per side:
/// the agreed root does not depend on which rig the compare names
/// first, and it folds exactly one leaf per op the stubs express, then
/// the final cache leaf — as many leaves as the stubs' transcript has.
pub fn root_compare_matches_on_sweeps(b: Backend) {
    for h in &harnesses(b) {
        let mut streams = vec![sweep_ops(h.ir)];
        if !h.ir.superplans().is_empty() {
            streams.push(super_sweep(h.ir));
        }
        for ops in &streams {
            let kept = h.kept(ops);
            let fwd = diff(h, ops).unwrap_or_else(|e| panic!("{h}: {e}"));
            let back = compare(h, &h.plans(), || kept.iter().cloned())
                .unwrap_or_else(|e| panic!("{h}: {e}"));
            assert_eq!(fwd.root, back.root, "{h}: root depends on rig order");
            assert_eq!(fwd.leaves, kept.len() as u64 + 1, "{h}");
            let leaves = render(h, kept.iter().cloned()).unwrap_or_else(|e| panic!("{h}: {e}"));
            assert_eq!(fwd.leaves, leaves.len() as u64, "{h}");
        }
    }
}

/// Sensitivity of the oracle on the input guard source: dropping one
/// input-guarded write from the compiled side must surface as a
/// divergence.
pub fn oracle_detects_divergence_on_input_guarded_stubs(b: Backend) {
    if !b.available() {
        return;
    }
    let h = &named(b, "selfw");
    let w = h.ir.var_id("w").unwrap();
    let rest = h.ir.var_id("rest").unwrap();
    let ops = [
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
    ];
    // Skew: the compiled side misses the guarded w write.
    let skewed = Skewed::new(h, |i, op| (i != 0).then_some(op));
    let Err(m) = compare(&h.plans(), &skewed, || ops.iter().cloned()) else {
        panic!("{h}: the oracle must notice the missing guarded write");
    };
    assert!(m.divergence.is_some(), "{h}: both rigs must replay: {m}");
}

/// The oracle is sensitive on either side: replaying the sweep with the
/// device presets removed — on the compiled side, or on the plans' —
/// must surface as a divergence of the observations, not a failed rig.
/// Guards against a comparator that vacuously passes.
pub fn oracle_detects_injected_divergence(b: Backend) {
    if !b.available() {
        return;
    }
    let h = &named(b, "busmouse");
    let ops = h.kept(&sweep_ops(h.ir));
    assert!(ops.iter().any(|o| matches!(o, Op::Preset { .. })), "{h}: sweep must preset");
    let no_presets = |_: u64, op: Op| (!matches!(op, Op::Preset { .. })).then_some(op);
    let plans = h.plans();
    let (stubs_skewed, plans_skewed) =
        (Skewed::new(h, no_presets), Skewed::new(&plans, no_presets));
    let sides: [(&dyn Rig, &dyn Rig); 2] = [(&plans, &stubs_skewed), (&plans_skewed, h)];
    for (a, b) in sides {
        let Err(m) = compare(a, b, || ops.iter().cloned()) else {
            panic!("{} vs {}: a stream without its presets must diverge", a.name(), b.name());
        };
        assert!(m.divergence.is_some(), "{} vs {}: both rigs must replay: {m}", a.name(), b.name());
    }
}

/// The oracle's bisection is exact: feed the compiled side the sweep
/// with the device presets removed, and the compare must fail naming
/// exactly the line a linear scan of the two transcripts names first.
pub fn root_compare_bisects_injected_divergence(b: Backend) {
    if !b.available() {
        return;
    }
    let h = &named(b, "busmouse");
    let ops = h.kept(&sweep_ops(h.ir));
    assert!(ops.iter().any(|o| matches!(o, Op::Preset { .. })), "{h}: sweep must preset");
    let skewed = Skewed::new(h, |_, op| (!matches!(op, Op::Preset { .. })).then_some(op));
    let want =
        render(&h.plans(), ops.iter().cloned()).unwrap_or_else(|e| panic!("{h}: plans: {e}"));
    let got = render(&skewed, ops.iter().cloned()).unwrap_or_else(|e| panic!("{h}: {e}"));
    let linear_first = want
        .iter()
        .zip(&got)
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len())) as u64;
    let Err(m) = compare(&h.plans(), &skewed, || ops.iter().cloned()) else {
        panic!("{h}: skewed stream must fail root compare");
    };
    let leaf = m.divergence.map(|d| d.leaf);
    assert_eq!(leaf, Some(linear_first), "{h}: {m}");
}

/// Coverage corpus replay: every corpus stream (drawn to saturate the
/// plans' dispatch coverage) also replays through the compiled stubs
/// and fused bodies.
pub fn corpus_streams_match(b: Backend) {
    for h in &harnesses(b) {
        for (i, words) in corpus(h.ir).iter().enumerate() {
            if let Err(e) = diff(h, &decode(h.ir, words)) {
                panic!("{h}: corpus stream {i}: {e}");
            }
            if !h.ir.superplans().is_empty() {
                if let Err(e) = diff(h, &decode_super(h.ir, words)) {
                    panic!("{h}: corpus stream {i} (fused): {e}");
                }
            }
        }
    }
}

/// Random op streams over every spec: the compiled stubs and the plans
/// must be observationally identical.
pub fn random_streams_agree(b: Backend, words: &[u64]) -> Result<(), TestCaseError> {
    for h in &harnesses(b) {
        let r = diff(h, &decode(h.ir, words));
        prop_assert!(r.is_ok(), "{h}: {}", r.err().unwrap());
    }
    Ok(())
}

/// Random interleavings of op preludes and superplan calls: the
/// compiled fused bodies and the fused plans must be observationally
/// identical.
pub fn random_superplan_streams_agree(b: Backend, words: &[u64]) -> Result<(), TestCaseError> {
    for h in harnesses(b).iter().filter(|h| !h.ir.superplans().is_empty()) {
        let r = diff(h, &decode_super(h.ir, words));
        prop_assert!(r.is_ok(), "{h}: {}", r.err().unwrap());
    }
    Ok(())
}
