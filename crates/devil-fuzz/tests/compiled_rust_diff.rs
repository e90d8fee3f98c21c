//! The compiled-Rust differential oracle: every spec's emitted Rust
//! module, compiled with `rustc` against a logging `DeviceAccess` shim
//! crate and a generated command harness, against the plan executor.
//! The test bodies are shared with the C back end's suite
//! (`compiled_diff.rs`) in `oracle/mod.rs`, so both back ends replay
//! the same surfaces. CI runs this on every PR at the default case
//! count and nightly with `PROPTEST_CASES=1024`.

mod common;
mod oracle;

use devil_fuzz::compiled::Backend::Rust;
use proptest::prelude::*;

#[test]
fn every_spec_module_compiles_and_covers_its_surface() {
    oracle::stub_surface_covers_the_spec_library(Rust);
}

#[test]
fn coverage_sweep_matches_rust_stubs() {
    oracle::coverage_sweep_matches(Rust);
}

#[test]
fn init_sequence_sweep_matches_rust_stubs() {
    oracle::init_sequence_sweep_matches(Rust);
}

#[test]
fn cold_and_warm_reads_match_rust_stubs() {
    oracle::cold_and_warm_reads_match(Rust);
}

#[test]
fn private_struct_fields_agree_with_rust_stubs() {
    oracle::private_struct_fields_agree(Rust);
}

#[test]
fn formerly_fallback_shapes_join_the_rust_oracle() {
    oracle::formerly_fallback_shapes_join_the_oracle(Rust);
}

#[test]
fn fused_rust_stub_surface_is_complete() {
    oracle::fused_stub_surface_is_complete(Rust);
}

#[test]
fn multi_parameter_families_agree_with_rust_stubs() {
    oracle::multi_parameter_families_agree(Rust);
}

#[test]
fn every_dispatch_point_is_compiled() {
    oracle::every_dispatch_point_is_compiled(Rust);
}

#[test]
fn superplan_sweep_matches_rust_stubs() {
    oracle::superplan_sweep_matches(Rust);
}

#[test]
fn rooted_rust_oracle_matches_on_sweeps() {
    oracle::root_compare_matches_on_sweeps(Rust);
}

#[test]
fn rust_oracle_detects_divergence_on_input_guarded_stubs() {
    oracle::oracle_detects_divergence_on_input_guarded_stubs(Rust);
}

#[test]
fn rust_oracle_detects_injected_divergence() {
    oracle::oracle_detects_injected_divergence(Rust);
}

#[test]
fn rooted_rust_oracle_bisects_injected_divergence() {
    oracle::root_compare_bisects_injected_divergence(Rust);
}

#[test]
fn corpus_streams_match_rust_stubs() {
    oracle::corpus_streams_match(Rust);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rust_stubs_and_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        oracle::random_streams_agree(Rust, &words)?;
    }

    #[test]
    fn rust_superplans_and_interpreter_agree(words in collection::vec(any::<u64>(), 2..32)) {
        oracle::random_superplan_streams_agree(Rust, &words)?;
    }
}
