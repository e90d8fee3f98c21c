//! The compiled-C differential oracle: every spec's emitted C stubs
//! against the plan executor. The stubs are the committed headers
//! (`tests/goldens/<spec>.h`), each with its generated glue
//! (`tests/goldens/glue/<spec>.c`), compiled with `cc -Wall -Werror`
//! and linked into this binary by the `c-stubs` crate, and run in
//! process through the driver the plan executor runs through
//! (`devil_fuzz::drive`). Without `cc` at build time they are skipped
//! loudly. The chain this relies on: `emit_goldens` ties the goldens
//! and their glue to the emitter, and this oracle runs the goldens, so
//! an emitter change that draws a warning fails to build here once its
//! goldens are regenerated.
//!
//! The test bodies are shared with the Rust back end's suite
//! (`compiled_rust_diff.rs`) in `oracle/mod.rs`, so both back ends
//! replay the same surfaces, and every failure names the spec and the
//! back end. CI runs this on every PR at the default case count and
//! nightly with `PROPTEST_CASES=1024`.

mod common;
mod oracle;

use oracle::Backend;
use proptest::prelude::*;

const C: Backend = Backend { lang: "C", table: c_stubs::LINKED_IN };

#[test]
fn every_library_spec_and_probe_is_compiled_in() {
    oracle::every_library_spec_and_probe_is_compiled_in(C);
}

#[test]
fn stub_surface_covers_the_spec_library() {
    oracle::stub_surface_covers_the_spec_library(C);
}

#[test]
fn coverage_sweep_matches_compiled_stubs() {
    oracle::coverage_sweep_matches(C);
}

#[test]
fn init_sequence_sweep_matches_compiled_stubs() {
    oracle::init_sequence_sweep_matches(C);
}

#[test]
fn cold_and_warm_reads_match_compiled_stubs() {
    oracle::cold_and_warm_reads_match(C);
}

#[test]
fn private_struct_fields_agree_with_compiled_stubs() {
    oracle::private_struct_fields_agree(C);
}

#[test]
fn formerly_fallback_shapes_join_the_compiled_oracle() {
    oracle::formerly_fallback_shapes_join_the_oracle(C);
}

#[test]
fn fused_stub_surface_is_complete() {
    oracle::fused_stub_surface_is_complete(C);
}

#[test]
fn multi_parameter_families_agree_with_compiled_stubs() {
    oracle::multi_parameter_families_agree(C);
}

#[test]
fn every_dispatch_point_is_compiled() {
    oracle::every_dispatch_point_is_compiled(C);
}

#[test]
fn superplan_sweep_matches_compiled_stubs() {
    oracle::superplan_sweep_matches(C);
}

#[test]
fn rooted_oracle_matches_on_sweeps() {
    oracle::root_compare_matches_on_sweeps(C);
}

#[test]
fn oracle_detects_divergence_on_input_guarded_stubs() {
    oracle::oracle_detects_divergence_on_input_guarded_stubs(C);
}

#[test]
fn oracle_detects_injected_divergence() {
    oracle::oracle_detects_injected_divergence(C);
}

#[test]
fn rooted_oracle_bisects_injected_divergence() {
    oracle::root_compare_bisects_injected_divergence(C);
}

#[test]
fn corpus_streams_match_compiled_stubs() {
    oracle::corpus_streams_match(C);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_stubs_and_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        oracle::random_streams_agree(C, &words)?;
    }

    #[test]
    fn compiled_superplans_and_interpreter_agree(words in collection::vec(any::<u64>(), 2..32)) {
        oracle::random_superplan_streams_agree(C, &words)?;
    }
}
