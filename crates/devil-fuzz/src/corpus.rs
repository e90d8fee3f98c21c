//! Deterministic samples of the spec mutant corpus.
//!
//! A mutant is a spec with one single-character edit at one mutation
//! site (`mutation::rules`). The checker fuzz, the verifier's mutant
//! sweep and devil-bench's `spec_compile` all draw from [`sample`]: a
//! window of each site's mutants rotated by the site's index, so every
//! run covers the same ground.

use mutation::rules::{devil_sites, mutants, Site};
use std::rc::Rc;

/// One sampled mutant.
pub struct Mutant<'a> {
    /// Name of the spec it mutates.
    pub spec: &'a str,
    /// Index of its site in `devil_sites` of the spec.
    pub site_index: usize,
    /// The mutation site.
    pub site: Rc<Site>,
    /// Its index among the site's mutants.
    pub index: usize,
    /// The mutated source.
    pub text: String,
}

/// Mutants per site the fuzz suites sample: 4, or every mutant under
/// `MUTATION_FUZZ_FULL=1` (the scheduled full sweep).
pub fn fuzz_per_site() -> usize {
    if std::env::var("MUTATION_FUZZ_FULL").is_ok_and(|v| v == "1") {
        usize::MAX
    } else {
        4
    }
}

/// About `per_site` mutants from every site of every `(name, source)`
/// spec in `specs`, in spec, site and mutant order. With `stride =
/// max(1, len / per_site)` over a site's `len` mutants, the sample is
/// the mutant at `site_index % stride` and every `stride`-th after it;
/// `per_site = usize::MAX` yields every mutant.
pub fn sample<'a>(
    specs: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
    per_site: usize,
) -> impl Iterator<Item = Mutant<'a>> {
    specs.into_iter().flat_map(move |&(spec, src)| {
        devil_sites(src).into_iter().enumerate().flat_map(move |(site_index, site)| {
            let ms = mutants(src, &site);
            let stride = (ms.len() / per_site.max(1)).max(1);
            let site = Rc::new(site);
            ms.into_iter().enumerate().skip(site_index % stride).step_by(stride).map(
                move |(index, text)| Mutant {
                    spec,
                    site_index,
                    site: Rc::clone(&site),
                    index,
                    text,
                },
            )
        })
    })
}

/// The texts of [`sample`] over the shipped specs.
/// `per_site = usize::MAX` yields the full ~145k-mutant corpus.
pub fn sampled_corpus(per_site: usize) -> Vec<String> {
    sample(&drivers::specs::ALL, per_site).map(|m| m.text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_nonempty() {
        let a = sampled_corpus(2);
        let b = sampled_corpus(2);
        assert_eq!(a, b);
        assert!(a.len() > 100, "corpus too small: {}", a.len());
    }
}
