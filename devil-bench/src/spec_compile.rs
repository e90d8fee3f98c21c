//! `spec_compile`: single thread. One unit is one pass that compiles
//! all 8 shipped specs and the 5 `devil_fuzz::synthetic` specs through
//! lex → parse → resolve → check → lower → fuse → emit C → emit Rust,
//! then runs a fixed sample of `sampled_corpus` mutants through the
//! front end (parse → resolve → check), whose reject path they take.
//! Every seed compiles the same sources; the seed sets their order.
//!
//! The traced pass also lexes each source on its own before parsing it:
//! that probe measures the lexer's share of `parse`, and is excluded
//! from the traced unit time.

use crate::report::{CostTable, Report};
use crate::stats;
use crate::trace::{self, span, Layer};
use crate::Config;
use devil_fleet::Rng;
use devil_ir::DeviceIr;
use devil_syntax::DiagSink;
use std::time::{Duration, Instant};

/// Mutants per pass (a fixed sample of the corpus).
const MUTANTS: usize = 96;
const SHORT_MUTANTS: usize = 8;

const GOLDEN_BM_C: &str = include_str!("../../crates/devil-codegen/goldens/busmouse_bm.h");
const GOLDEN_BM_RS: &str = include_str!("../../crates/devil-codegen/goldens/busmouse.rs");
const GOLDEN_DMA_C: &str = include_str!("../../crates/devil-codegen/goldens/dma8237_dma.h");
const GOLDEN_PIC_C: &str = include_str!("../../crates/devil-codegen/goldens/pic8259_pic.h");
const GOLDEN_PIC_RS: &str = include_str!("../../crates/devil-codegen/goldens/pic8259.rs");

struct Spec {
    name: &'static str,
    src: &'static str,
    prefix: &'static str,
    synthetic: bool,
}

fn specs() -> Vec<Spec> {
    let prefix = |name: &'static str| match name {
        "busmouse" => "bm",
        "dma8237" => "dma",
        "pic8259" => "pic",
        other => other,
    };
    let shipped = drivers::specs::ALL.iter().map(|&(name, src)| (name, src, false));
    let synthetic = devil_fuzz::synthetic::ALL.iter().map(|&(name, src)| (name, src, true));
    shipped
        .chain(synthetic)
        .map(|(name, src, synthetic)| Spec { name, src, prefix: prefix(name), synthetic })
        .collect()
}

/// One spec's compiled artefacts.
struct Compiled {
    ir: DeviceIr,
    c: String,
    rust: String,
    tokens: usize,
}

/// Runs the full pipeline on one spec. `probe_lex` lexes the source on
/// its own first (the traced pass's lexer probe).
fn compile(spec: &Spec, probe_lex: bool) -> Result<Compiled, String> {
    let tokens = if probe_lex {
        span(Layer::Lex, || devil_syntax::lexer::lex(spec.src, &mut DiagSink::new())).len()
    } else {
        0
    };
    let (device, mut diags) = span(Layer::Parse, || devil_syntax::parse(spec.src));
    let device = device.filter(|_| !diags.has_errors()).ok_or("parse failed")?;
    let model = span(Layer::Resolve, || devil_sema::resolve::resolve(&device, &[], &mut diags));
    if diags.has_errors() {
        return Err("resolve failed".into());
    }
    span(Layer::Check, || devil_sema::checks::check(&model, &mut diags));
    if diags.has_errors() {
        return Err("check failed".into());
    }
    let mut ir = span(Layer::Lower, || devil_ir::lower(&model));
    span(Layer::Fuse, || {
        if spec.synthetic {
            devil_fuzz::superfuzz::install_synthetic(spec.name, &mut ir);
        } else {
            drivers::superplans::install(&mut ir);
        }
    });
    let c = span(Layer::EmitC, || devil_codegen::emit_c(&ir, spec.prefix));
    let rust = span(Layer::EmitRust, || devil_codegen::emit_rust(&ir));
    Ok(Compiled { ir, c, rust, tokens })
}

/// Runs a mutant through the front end; `true` when it is rejected.
fn rejected(src: &str, probe_lex: bool) -> bool {
    if probe_lex {
        span(Layer::Lex, || devil_syntax::lexer::lex(src, &mut DiagSink::new()));
    }
    let (device, mut diags) = span(Layer::Parse, || devil_syntax::parse(src));
    let Some(device) = device.filter(|_| !diags.has_errors()) else { return true };
    let model = span(Layer::Resolve, || devil_sema::resolve::resolve(&device, &[], &mut diags));
    if diags.has_errors() {
        return true;
    }
    span(Layer::Check, || devil_sema::checks::check(&model, &mut diags));
    diags.has_errors()
}

/// The outputs of one pass.
struct Pass {
    compiled: Vec<Result<Compiled, String>>,
    rejected: usize,
}

fn pass(specs: &[Spec], mutants: &[String], probe_lex: bool) -> Pass {
    let compiled = specs.iter().map(|s| compile(s, probe_lex)).collect();
    let rejected = mutants.iter().filter(|m| rejected(m, probe_lex)).count();
    Pass { compiled, rejected }
}

fn plan_variants(ir: &DeviceIr) -> usize {
    let plans = ir.vars.iter().flat_map(|v| [&v.read_plan, &v.write_plan]);
    let plans = plans.chain(ir.structs.iter().flat_map(|s| [&s.read_plan, &s.write_plan]));
    let access: usize = plans.flatten().map(|p| p.variants.len()).sum();
    access + ir.superplans().iter().map(|sp| sp.plan.variants.len()).sum::<usize>()
}

/// Reference outputs every pass must reproduce.
struct Reference {
    outputs: Vec<(String, String)>,
    rejected: usize,
}

/// Set-up: one pass whose outputs become the reference; all of it is
/// compiling, so it returns its own time as the compile time.
fn build_reference(specs: &[Spec], mutants: &[String]) -> (Reference, f64) {
    let t0 = Instant::now();
    let p = pass(specs, mutants, false);
    let compile_s = t0.elapsed().as_secs_f64();
    let outputs = p
        .compiled
        .into_iter()
        .map(|c| c.map_or_else(|e| (e, String::new()), |c| (c.c, c.rust)))
        .collect();
    (Reference { outputs, rejected: p.rejected }, compile_s)
}

/// Checks a pass against the reference: every spec compiles with no
/// plan fallbacks, emits exactly the reference text, and the mutant
/// sample is rejected as often as in the reference.
fn pass_ok(p: &Pass, reference: &Reference) -> bool {
    p.rejected == reference.rejected
        && p.compiled.iter().zip(&reference.outputs).all(|(c, (rc, rr))| {
            c.as_ref()
                .is_ok_and(|c| c.ir.plan_fallbacks().is_empty() && &c.c == rc && &c.rust == rr)
        })
}

/// The deterministic counts of one pass, and its per-stage allocations
/// (from the span counters).
fn count_pass(specs: &[Spec], mutants: &[String]) -> (CostTable, trace::Totals) {
    trace::reset();
    trace::set_enabled(true);
    let mut t = CostTable::new(&[
        "tokens",
        "plan_steps",
        "variants",
        "superplans",
        "fallbacks",
        "out_bytes",
    ]);
    for s in specs {
        let row = match compile(s, true) {
            Ok(c) => vec![
                c.tokens as f64,
                c.ir.plan_arena.len() as f64,
                plan_variants(&c.ir) as f64,
                c.ir.superplans().len() as f64,
                c.ir.plan_fallbacks().len() as f64,
                (c.c.len() + c.rust.len()) as f64,
            ],
            Err(_) => vec![-1.0; 6],
        };
        t.rows.push((s.name.to_string(), row));
    }
    let rejected = mutants.iter().filter(|m| rejected(m, true)).count();
    trace::set_enabled(false);
    let mut all = vec![0.0; 6];
    for (_, row) in &t.rows {
        for (a, v) in all.iter_mut().zip(row) {
            *a += v;
        }
    }
    t.rows.push(("all specs (per pass)".to_string(), all));
    t.rows.push((
        format!("mutants rejected of {}", mutants.len()),
        vec![rejected as f64, 0.0, 0.0, 0.0, 0.0, 0.0],
    ));
    let mut totals = trace::totals();
    trace::stop();
    // Times differ run to run; only the counts must repeat.
    totals.self_ns = Default::default();
    totals.total_ns = Default::default();
    (t, totals)
}

/// The golden files pinned in devil-codegen, compared with this
/// workload's own emission: busmouse and dma8237 ship no superplans, so
/// their fused output must equal the golden; pic8259's golden pins the
/// unfused IR, which is emitted here for the comparison.
fn goldens_match(reference: &Reference, specs: &[Spec]) -> bool {
    let out = |name: &str| {
        let i = specs.iter().position(|s| s.name == name).expect("spec is in the library");
        &reference.outputs[i]
    };
    let pic = devil_sema::check_source(drivers::specs::PIC8259, &[]).map(|m| devil_ir::lower(&m));
    out("busmouse").0 == GOLDEN_BM_C
        && out("busmouse").1 == GOLDEN_BM_RS
        && out("dma8237").0 == GOLDEN_DMA_C
        && pic.is_ok_and(|ir| {
            devil_codegen::emit_c(&ir, "pic") == GOLDEN_PIC_C
                && devil_codegen::emit_rust(&ir) == GOLDEN_PIC_RS
        })
}

/// Fisher–Yates shuffle driven by the seed stream.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

pub(crate) fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let specs = specs();

    // Inputs: a fixed sample of the mutant corpus (one per site),
    // stratified by length: the middle mutant of each of `want` equal
    // slices of the corpus sorted by size. Every seed runs the same
    // mutants, so every seed's pass is the same work; the seed shuffles
    // their order.
    let mut corpus = devil_fuzz::corpus::sampled_corpus(1);
    corpus.sort_by_key(String::len);
    let want = if cfg.short { SHORT_MUTANTS } else { MUTANTS }.min(corpus.len());
    let mut mutants: Vec<String> =
        (0..want).map(|k| corpus[(2 * k + 1) * corpus.len() / (2 * want)].clone()).collect();
    drop(corpus);
    shuffle(&mut Rng::new(cfg.seed), &mut mutants);

    // Set-up: the reference outputs every pass is checked against.
    let (mut reference, _) = build_reference(&specs, &mutants);

    // Verification outside the timed phase: no panic on any sampled
    // mutant, goldens, and counts that repeat exactly.
    let panics =
        mutants.iter().filter(|m| std::panic::catch_unwind(|| rejected(m, false)).is_err()).count();
    let goldens = goldens_match(&reference, &specs);
    let (first, first_totals) = count_pass(&specs, &mutants);
    let (second, second_totals) = count_pass(&specs, &mutants);
    report.counters_repeat = first == second && first_totals == second_totals;
    report.notes.push(format!(
        "{} specs per pass + {want} mutants ({} rejected); goldens match: {goldens}; mutant panics: {panics}",
        specs.len(),
        reference.rejected
    ));
    if cfg.plant_fault {
        reference.outputs[0].1.push('\n');
    }

    let passes = 1.0;
    let get = |row: &str, col: &str| first.get(row, col).unwrap_or(0.0);
    let all = "all specs (per pass)";
    report.set("syntax.tokens", get(all, "tokens"), 1);
    report.set("ir.plan_steps", get(all, "plan_steps"), 1);
    report.set("ir.plan_variants", get(all, "variants"), 1);
    report.set("ir.superplans", get(all, "superplans"), 1);
    report.set("ir.plan_fallbacks", get(all, "fallbacks"), 1);
    report.set("codegen.out_bytes", get(all, "out_bytes"), 1);
    report.set("sema.rejected_mutants", reference.rejected as f64, 1);
    let a = |l: Layer| first_totals.allocs(l) / passes;
    report.set("syntax.allocs", a(Layer::Parse), 1);
    report.set("sema.allocs", a(Layer::Resolve) + a(Layer::Check), 1);
    report.set("ir.allocs", a(Layer::Lower) + a(Layer::Fuse), 1);
    report.set("codegen.allocs", a(Layer::EmitC) + a(Layer::EmitRust), 1);
    report.costs = first;

    // Warm-up, then timed passes (alternately traced on a traced run).
    let warm_until = Instant::now() + Duration::from_secs_f64((cfg.seconds * 0.05).min(0.5));
    while Instant::now() < warm_until {
        pass(&specs, &mutants, false);
    }
    // The heap baseline is taken here: the inputs and the reference are
    // the benchmark's, a pass's own heap is the program's.
    let mut timed = crate::Timed::new(cfg);
    let (mut busy_ns, mut n) = (0u64, 0u64);
    if cfg.trace {
        trace::reset();
    }
    timed.start();
    let deadline = cfg.deadline();
    let mut r = 0u64;
    while Instant::now() < deadline {
        timed.segments.tick(|| crate::timed_setup(|| build_reference(&specs, &mutants)));
        r += 1;
        let traced = cfg.trace && r % 2 == 1;
        let a0 = crate::alloc::allocs();
        let t0 = Instant::now();
        let p = if traced {
            trace::unit(|| pass(&specs, &mutants, true))
        } else {
            pass(&specs, &mutants, false)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = crate::alloc::allocs() - a0;
        report.attempted += 1;
        report.failed += u64::from(!pass_ok(&p, &reference) || panics > 0 || !goldens);
        drop(p);
        if !traced {
            timed.segments.push(ns, 1);
            timed.allocs.push(allocs as f64);
            busy_ns += ns;
            n += 1;
        }
    }
    report.set("peak_heap_bytes", timed.peak_heap_bytes(), 1);
    crate::record_band(&mut report, &timed.segments, crate::QUIET_BAND);
    let mean_ns = stats::ratio(busy_ns as f64, n as f64);
    report.set_median("allocs_per_unit", &timed.allocs.summary());

    if cfg.trace {
        let t = trace::totals();
        let passes = t.calls(Layer::Unit);
        // The lexer probe measures the lexer's share of `parse`; it is
        // not work of the pass, so the layer sum leaves it out.
        crate::layer_sum(&mut report, &t, passes, mean_ns, &[Layer::Lex]);
        let us = |l: Layer| stats::ratio(t.self_ns(l), passes) / 1e3;
        let n = passes as u64;
        report.set("syntax.lex_us", us(Layer::Lex), n);
        report.set("syntax.parse_us", us(Layer::Parse) - us(Layer::Lex), n);
        report.set("sema.resolve_us", us(Layer::Resolve), n);
        report.set("sema.check_us", us(Layer::Check), n);
        report.set("ir.lower_us", us(Layer::Lower), n);
        report.set("ir.fuse_us", us(Layer::Fuse), n);
        report.set("codegen.emit_c_us", us(Layer::EmitC), n);
        report.set("codegen.emit_rust_us", us(Layer::EmitRust), n);
        report.set("compile.residual_us", us(Layer::Unit), n);
    }
    report
}
