//! The shipped coverage-guided corpus, over the whole embedded spec
//! library: every minimized corpus must light up **all** compiled plan
//! variants (and cell serves and superplan variants) of its spec, beat
//! the uniform-random baseline at the same candidate budget, replay
//! cleanly through the plans-vs-reference comparator (op and fused
//! decodings), and already be a minimization fixpoint.
//!
//! Regenerate the shipped corpora after an emitter/decoder/spec change:
//!
//! ```text
//! UPDATE_CORPUS=1 cargo test -p devil-fuzz --test coverage_corpus
//! ```

use devil_fuzz::coverage::{
    corpus_path, cover_stream, format_corpus, grow_corpus, minimize, shipped_corpus,
    uniform_coverage, Coverage,
};
use devil_fuzz::superfuzz::{decode_super, install_synthetic};
use devil_fuzz::{compare_runtimes, decode};
use devil_ir::DeviceIr;
use std::sync::OnceLock;

/// Fixed growth seed: the corpus is a deterministic function of
/// (seed, budget, decoder, specs).
const SEED: u64 = 0x5eed_c0ff_ee00_0009;

/// Candidate budget per spec, shared by guided growth and the uniform
/// baseline so the comparison is like-for-like. The nightly
/// `corpus-fuzz` job raises the *growth* budget via `CORPUS_BUDGET`;
/// the uniform baseline always runs at this fixed budget so the
/// beat-the-baseline assertion stays deterministic.
const BUDGET: usize = 2000;

fn grow_budget() -> usize {
    std::env::var("CORPUS_BUDGET").ok().and_then(|s| s.parse().ok()).unwrap_or(BUDGET)
}

struct Spec {
    name: &'static str,
    ir: DeviceIr,
}

fn specs() -> &'static [Spec] {
    static SPECS: OnceLock<Vec<Spec>> = OnceLock::new();
    SPECS.get_or_init(|| {
        drivers::specs::ALL
            .iter()
            .chain(devil_fuzz::synthetic::ALL)
            .map(|(name, src)| {
                let model = devil_sema::check_source(src, &[]).expect("embedded spec checks");
                let mut ir = devil_ir::lower(&model);
                if devil_fuzz::synthetic::ALL.iter().any(|(n, _)| n == name) {
                    install_synthetic(name, &mut ir);
                } else {
                    drivers::superplans::install(&mut ir);
                }
                Spec { name, ir }
            })
            .collect()
    })
}

/// When `UPDATE_CORPUS=1`, regrow + minimize + rewrite every shipped
/// corpus before the assertions run (the golden-file convention).
fn maybe_regenerate() {
    static REGEN: OnceLock<()> = OnceLock::new();
    REGEN.get_or_init(|| {
        if std::env::var_os("UPDATE_CORPUS").is_none() {
            return;
        }
        for spec in specs() {
            let grown = grow_corpus(&spec.ir, SEED, grow_budget());
            let min = minimize(&spec.ir, &grown);
            let path = corpus_path(spec.name);
            std::fs::create_dir_all(path.parent().unwrap()).expect("corpus dir");
            std::fs::write(&path, format_corpus(spec.name, &min)).expect("write corpus");
            eprintln!(
                "regenerated {}: {} grown -> {} minimized streams",
                path.display(),
                grown.len(),
                min.len()
            );
        }
    });
}

/// The tentpole claim: the shipped guided corpus reaches **every**
/// compiled plan variant and superplan variant of every spec, and the
/// uniform-random baseline at the same budget reaches no more. The per-spec
/// numbers print side by side so the margin is visible in the test
/// output.
#[test]
fn shipped_corpus_reaches_every_plan_variant() {
    maybe_regenerate();
    let mut guided_total = 0usize;
    let mut uniform_total = 0usize;
    let mut space_total = 0usize;
    let mut incomplete: Vec<String> = Vec::new();
    for spec in specs() {
        let corpus = shipped_corpus(spec.name);
        let mut cov = Coverage::new(&spec.ir);
        for s in &corpus {
            cover_stream(&spec.ir, &mut cov, s);
        }
        let (uni, total) = uniform_coverage(&spec.ir, SEED ^ 1, BUDGET);
        println!(
            "{:>10}: guided {}/{} ({} streams), uniform {}/{}",
            spec.name,
            cov.covered(),
            total,
            corpus.len(),
            uni,
            total
        );
        guided_total += cov.covered();
        uniform_total += uni;
        space_total += total;
        if !cov.complete() {
            incomplete.push(format!("{}: unreached {:?}", spec.name, cov.unreached(&spec.ir)));
        }
    }
    println!(
        "   library: guided {guided_total}/{space_total}, uniform {uniform_total}/{space_total}"
    );
    assert!(incomplete.is_empty(), "guided corpus must saturate the plan surface:\n{}", {
        incomplete.join("\n")
    });
    // Memory cells mask to their width, so uniform sampling now also
    // reaches memw's cell-guarded variants: the baseline may tie the
    // guided corpus, never beat it.
    assert!(
        uniform_total <= guided_total,
        "uniform baseline ({uniform_total}) must not exceed the guided corpus ({guided_total})"
    );
}

/// The shipped corpora are minimization fixpoints: re-minimizing
/// changes nothing, so what ships is exactly what the reducer produces
/// (idempotence, on the real corpora rather than a fixture).
#[test]
fn shipped_corpus_is_a_minimization_fixpoint() {
    maybe_regenerate();
    for spec in specs() {
        let corpus = shipped_corpus(spec.name);
        let min = minimize(&spec.ir, &corpus);
        assert_eq!(
            min, corpus,
            "{}: shipped corpus is not minimal; regenerate with UPDATE_CORPUS=1",
            spec.name
        );
    }
}

/// Every corpus stream replays through the plans-vs-reference
/// comparator, decoded as ops and (where the spec fuses) as fused
/// calls: the corpus is differential-fuzz input, not just a coverage
/// artifact.
#[test]
fn corpus_streams_pass_rooted_differential_comparators() {
    maybe_regenerate();
    for spec in specs() {
        for (i, words) in shipped_corpus(spec.name).iter().enumerate() {
            let ops = decode(&spec.ir, words);
            compare_runtimes(&spec.ir, false, &ops)
                .unwrap_or_else(|e| panic!("{} corpus stream {i}: {e}", spec.name));
            if !spec.ir.superplans().is_empty() {
                let seq = decode_super(&spec.ir, words);
                compare_runtimes(&spec.ir, false, &seq)
                    .unwrap_or_else(|e| panic!("{} corpus stream {i} (fused): {e}", spec.name));
            }
        }
    }
}
