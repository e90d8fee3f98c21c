//! Fuzzing the checker against the mutation engine: every
//! `mutation::rules` mutant of every embedded specification must pass
//! through `devil-sema` without panicking, with deterministic
//! diagnostics whose classes match the mutated site kind's expected
//! categories (see `SiteKind::expected_classes`).
//!
//! The PR-gating run samples a deterministic subset of each site's
//! mutants (`devil_fuzz::corpus::sample`); `MUTATION_FUZZ_FULL=1` (set
//! by the scheduled CI job) runs all of them — ~145k mutants, a few
//! seconds in release mode.

use devil_fuzz::corpus::{fuzz_per_site, sample, Mutant};
use devil_syntax::diag::Level;
use mutation::rules::diag_class;
use std::collections::BTreeSet;

/// The sorted error classes a source produces, or `None` when it
/// checks clean (an undetected mutant — legal, that is Table 1's
/// entire subject).
fn error_classes(src: &str) -> Option<BTreeSet<&'static str>> {
    match devil_sema::check_source(src, &[]) {
        Ok(_) => None,
        Err(diags) => Some(
            diags
                .all()
                .iter()
                .filter(|d| d.level == Level::Error)
                .map(|d| diag_class(d.code))
                .collect(),
        ),
    }
}

#[test]
fn checker_survives_every_spec_mutant_with_stable_error_classes() {
    let mut total = 0usize;
    let mut detected = 0usize;
    let mut specs = BTreeSet::new();
    for Mutant { spec: name, site_index: si, site, index: k, text: m } in
        sample(&drivers::specs::ALL, fuzz_per_site())
    {
        specs.insert(name);
        total += 1;
        // No panic: `check_source` must reject or accept, never
        // crash, whatever single-character edit it is fed.
        let classes = error_classes(&m);
        if let Some(classes) = &classes {
            detected += 1;
            for class in classes {
                assert!(
                    site.kind.expected_classes().contains(class),
                    "{name}: site {si} ({:?} `{}`) mutant {k} produced unexpected \
                     diagnostic class {class}\nmutant:\n{m}",
                    site.kind,
                    site.text,
                );
            }
            assert!(!classes.is_empty(), "{name}: error with no error diagnostics");
        }
        // Determinism: checking the same mutant twice yields the
        // same verdict and the same classes.
        assert_eq!(classes, error_classes(&m), "{name}: site {si} mutant {k} is non-deterministic");
    }
    assert_eq!(specs.len(), drivers::specs::ALL.len(), "every spec has mutation sites");
    assert!(total > 500, "sampled too few mutants ({total})");
    assert!(
        detected * 10 > total * 8,
        "the checker should detect the vast majority of mutants ({detected}/{total})"
    );
}
