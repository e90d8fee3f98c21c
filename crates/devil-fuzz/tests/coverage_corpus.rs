//! The coverage corpus, over the whole embedded spec library: each
//! spec's drawn corpus must light up **all** compiled plan variants
//! (and cell serves and superplan variants) of its spec and replay
//! cleanly through the plans-vs-reference comparator (op and fused
//! decodings).

use devil_fuzz::coverage::{corpus, hits, stream_ops, Coverage};
use devil_fuzz::superfuzz::decode_super;
use devil_fuzz::{compare_runtimes, decode};
use devil_ir::DeviceIr;
use std::sync::OnceLock;

fn specs() -> &'static [(String, DeviceIr)] {
    static SPECS: OnceLock<Vec<(String, DeviceIr)>> = OnceLock::new();
    SPECS.get_or_init(devil_fuzz::spec_library)
}

/// The corpus reaches **every** compiled plan variant and superplan
/// variant of every spec. The per-spec numbers print so the corpus
/// size is visible in the test output.
#[test]
fn shipped_corpus_reaches_every_plan_variant() {
    let (mut covered, mut space, mut streams) = (0, 0, 0);
    let mut incomplete: Vec<String> = Vec::new();
    for (name, ir) in specs() {
        let corpus = corpus(ir);
        let mut cov = Coverage::new(ir);
        for s in &corpus {
            cov.merge(&hits(ir, stream_ops(ir, s)));
        }
        let total = ir.dispatch_points();
        println!("{name:>10}: {}/{total} ({} streams)", cov.covered(), corpus.len());
        covered += cov.covered();
        space += total;
        streams += corpus.len();
        if !cov.complete() {
            incomplete.push(format!("{name}: unreached {:?}", cov.unreached(ir)));
        }
    }
    println!("   library: {covered}/{space} ({streams} streams)");
    assert!(incomplete.is_empty(), "the corpus must saturate the plan surface:\n{}", {
        incomplete.join("\n")
    });
}

/// Every corpus stream replays through the plans-vs-reference
/// comparator, decoded as ops and (where the spec fuses) as fused
/// calls: the corpus is differential-fuzz input, not just a coverage
/// artifact.
#[test]
fn corpus_streams_pass_rooted_differential_comparators() {
    for (name, ir) in specs() {
        for (i, words) in corpus(ir).iter().enumerate() {
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
