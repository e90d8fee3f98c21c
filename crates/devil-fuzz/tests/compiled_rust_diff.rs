//! The compiled-Rust differential oracle: every spec's emitted Rust
//! module, compiled into this test binary, against the plan executor.
//! The modules are the committed goldens (`tests/goldens/<spec>.rs`),
//! each with the id-keyed `Surface` glue generated for it
//! (`tests/goldens/glue/<spec>.rs`), and run in process through the
//! driver the plan executor runs through (`devil_fuzz::drive`). The chain
//! this relies on: `emit_goldens` ties the goldens and their glue to
//! the emitter, and this oracle runs the goldens. Each module builds
//! under `deny(warnings)` (only `dead_code` is allowed: the oracle
//! drives the stubs, not every method), so an emitter change that draws
//! a warning fails to build here once its goldens are regenerated.
//!
//! The test bodies are shared with the C back end's suite
//! (`compiled_diff.rs`) in `oracle/mod.rs`, so both back ends replay
//! the same surfaces. CI runs this on every PR at the default case
//! count and nightly with `PROPTEST_CASES=1024`.

mod common;
mod oracle;

use devil_fuzz::compiled::Fresh;
use oracle::Backend;
use proptest::prelude::*;

/// Declares one module per listed spec over its committed glue (which
/// includes the golden), and [`COMPILED_IN`] over their constructors.
macro_rules! compiled_in {
    ($($spec:ident)*) => {
        #[path = "../../../tests/goldens/glue"]
        #[deny(warnings)]
        #[allow(dead_code)]
        mod goldens {
            $(pub mod $spec;)*
        }

        /// The compiled-in modules: each spec's name and a cold instance
        /// of its emitted interface.
        const COMPILED_IN: &[(&str, Fresh)] =
            &[$((stringify!($spec), goldens::$spec::fresh)),*];
    };
}

compiled_in!(
    busmouse cs4236b dma8237 ide ne2000 permedia2 pic8259 piix4ide
    selfw memw nestedc nestede selfact
    privfield fam2
);

const RUST: Backend = Backend { lang: "Rust", table: COMPILED_IN };

#[test]
fn every_library_spec_and_probe_is_compiled_in() {
    oracle::every_library_spec_and_probe_is_compiled_in(RUST);
}

#[test]
fn every_spec_module_compiles_and_covers_its_surface() {
    oracle::stub_surface_covers_the_spec_library(RUST);
}

#[test]
fn coverage_sweep_matches_rust_stubs() {
    oracle::coverage_sweep_matches(RUST);
}

#[test]
fn init_sequence_sweep_matches_rust_stubs() {
    oracle::init_sequence_sweep_matches(RUST);
}

#[test]
fn cold_and_warm_reads_match_rust_stubs() {
    oracle::cold_and_warm_reads_match(RUST);
}

#[test]
fn private_struct_fields_agree_with_rust_stubs() {
    oracle::private_struct_fields_agree(RUST);
}

#[test]
fn formerly_fallback_shapes_join_the_rust_oracle() {
    oracle::formerly_fallback_shapes_join_the_oracle(RUST);
}

#[test]
fn fused_rust_stub_surface_is_complete() {
    oracle::fused_stub_surface_is_complete(RUST);
}

#[test]
fn multi_parameter_families_agree_with_rust_stubs() {
    oracle::multi_parameter_families_agree(RUST);
}

#[test]
fn every_dispatch_point_is_compiled() {
    oracle::every_dispatch_point_is_compiled(RUST);
}

#[test]
fn superplan_sweep_matches_rust_stubs() {
    oracle::superplan_sweep_matches(RUST);
}

#[test]
fn rooted_rust_oracle_matches_on_sweeps() {
    oracle::root_compare_matches_on_sweeps(RUST);
}

#[test]
fn rust_oracle_detects_divergence_on_input_guarded_stubs() {
    oracle::oracle_detects_divergence_on_input_guarded_stubs(RUST);
}

#[test]
fn rust_oracle_detects_injected_divergence() {
    oracle::oracle_detects_injected_divergence(RUST);
}

#[test]
fn rooted_rust_oracle_bisects_injected_divergence() {
    oracle::root_compare_bisects_injected_divergence(RUST);
}

#[test]
fn corpus_streams_match_rust_stubs() {
    oracle::corpus_streams_match(RUST);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rust_stubs_and_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        oracle::random_streams_agree(RUST, &words)?;
    }

    #[test]
    fn rust_superplans_and_interpreter_agree(words in collection::vec(any::<u64>(), 2..32)) {
        oracle::random_superplan_streams_agree(RUST, &words)?;
    }
}
