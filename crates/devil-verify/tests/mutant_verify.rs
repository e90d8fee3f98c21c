//! Fuzzing the verifier against the mutation engine: every
//! `mutation::rules` mutant of every embedded spec that still passes
//! `devil-sema` must lower and verify without panicking, with
//! deterministic verdicts — and must never trip the *structural*
//! diagnostic classes, which hold for any IR the compiler actually
//! emits (guard lists, owner maps and compose masks are correct by
//! construction, and no superplans are installed on mutants, so the
//! symbolic pass has nothing to refute).
//!
//! Value-dependent classes (exhaustiveness and gating verdicts) are
//! legal findings on a mutated spec. This mirrors the checker's own
//! mutant fuzz (`devil-fuzz/tests/checker_fuzz.rs`) and draws the same
//! sample (`devil_fuzz::corpus::sample`); `MUTATION_FUZZ_FULL=1` runs
//! every mutant.

use devil_fuzz::corpus::{fuzz_per_site, sample, Mutant};
use devil_verify::DiagClass;
use std::collections::BTreeSet;

/// Classes the compiler's output can never legitimately exhibit.
const STRUCTURAL: &[DiagClass] = &[
    DiagClass::SelectorMismatch,
    DiagClass::GuardOverlap,
    DiagClass::StoreMask,
    DiagClass::OwnerMap,
    DiagClass::FusedDivergence,
];

/// Lowers and verifies one accepted mutant, returning its diagnostic
/// classes and rendered diagnostics (the determinism fingerprint), or
/// `None` when sema rejects it.
fn verdict(src: &str) -> Option<(Vec<DiagClass>, Vec<String>)> {
    let model = devil_sema::check_source(src, &[]).ok()?;
    let ir = devil_ir::lower(&model);
    let report = devil_verify::verify(&ir);
    assert_eq!(report.superplans_total, 0, "mutants have no superplans installed");
    Some((
        report.diagnostics.iter().map(|d| d.class).collect(),
        report.diagnostics.iter().map(std::string::ToString::to_string).collect(),
    ))
}

#[test]
fn verifier_survives_every_accepted_spec_mutant() {
    let mut total = 0usize;
    let mut accepted = 0usize;
    let mut specs = BTreeSet::new();
    let library = drivers::specs::ALL.iter().chain(devil_fuzz::synthetic::ALL);
    for Mutant { spec: name, site_index: si, index: k, text: m, .. } in
        sample(library, fuzz_per_site())
    {
        specs.insert(name);
        total += 1;
        // No panic, whatever sema-legal IR the edit produced.
        let Some((classes, diags)) = verdict(&m) else {
            continue;
        };
        accepted += 1;
        if let Some(c) = classes.iter().find(|c| STRUCTURAL.contains(c)) {
            panic!(
                "{name}: site {si} mutant {k} tripped structural class {}:\n{}\nmutant:\n{m}",
                c.label(),
                diags.join("\n")
            );
        }
        // Determinism: verifying the same mutant twice yields
        // byte-identical diagnostics.
        assert_eq!(
            Some(&diags),
            verdict(&m).as_ref().map(|(_, d)| d),
            "{name}: site {si} mutant {k} verifies non-deterministically"
        );
    }
    assert_eq!(specs.len(), 13, "every spec has mutation sites");
    assert!(total > 500, "sampled too few mutants ({total})");
    assert!(accepted > 50, "too few mutants survived sema ({accepted}/{total})");
}
