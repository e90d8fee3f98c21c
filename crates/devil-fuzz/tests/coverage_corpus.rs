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
use devil_fuzz::superfuzz::decode_super;
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

fn specs() -> &'static [(String, DeviceIr)] {
    static SPECS: OnceLock<Vec<(String, DeviceIr)>> = OnceLock::new();
    SPECS.get_or_init(devil_fuzz::spec_library)
}

/// When `UPDATE_CORPUS=1`, regrow + minimize + rewrite every shipped
/// corpus before the assertions run (the golden-file convention).
fn maybe_regenerate() {
    static REGEN: OnceLock<()> = OnceLock::new();
    REGEN.get_or_init(|| {
        if std::env::var_os("UPDATE_CORPUS").is_none() {
            return;
        }
        for (name, ir) in specs() {
            let grown = grow_corpus(ir, SEED, grow_budget());
            let min = minimize(ir, &grown);
            let path = corpus_path(name);
            std::fs::create_dir_all(path.parent().unwrap()).expect("corpus dir");
            std::fs::write(&path, format_corpus(name, &min)).expect("write corpus");
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
    for (name, ir) in specs() {
        let corpus = shipped_corpus(name);
        let mut cov = Coverage::new(ir);
        for s in &corpus {
            cover_stream(ir, &mut cov, s);
        }
        let (uni, total) = uniform_coverage(ir, SEED ^ 1, BUDGET);
        println!(
            "{:>10}: guided {}/{} ({} streams), uniform {}/{}",
            name,
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
            incomplete.push(format!("{}: unreached {:?}", name, cov.unreached(ir)));
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
    for (name, ir) in specs() {
        let corpus = shipped_corpus(name);
        let min = minimize(ir, &corpus);
        assert_eq!(
            min, corpus,
            "{}: shipped corpus is not minimal; regenerate with UPDATE_CORPUS=1",
            name
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
    for (name, ir) in specs() {
        for (i, words) in shipped_corpus(name).iter().enumerate() {
            let ops = decode(ir, words);
            compare_runtimes(ir, false, &ops)
                .unwrap_or_else(|e| panic!("{} corpus stream {i}: {e}", name));
            if !ir.superplans().is_empty() {
                let seq = decode_super(ir, words);
                compare_runtimes(ir, false, &seq)
                    .unwrap_or_else(|e| panic!("{} corpus stream {i} (fused): {e}", name));
            }
        }
    }
}
