//! The compiled-**Rust** differential oracle over the whole embedded
//! spec library: emit each spec's Rust module, compile it with `rustc`
//! against a logging `DeviceAccess` shim crate plus a generated
//! command harness, replay the same streams the compiled-C oracle
//! replays, and assert line-identical bus logs, results and final
//! cache/cell state against the plan executor.
//!
//! Artifacts are content-hashed into `CARGO_TARGET_TMPDIR` like the C
//! oracle's, so repeated runs compile each spec at most once per
//! emitter/spec revision.

use devil_codegen::StubApi;
use devil_fuzz::compiled::{commands, interp_observation, rooted_verdict, stub_ops};
use devil_fuzz::compiled_rust::{
    check_compiled_rust, check_compiled_rust_rooted, check_compiled_rust_super,
    check_compiled_rust_super_rooted, rustc_available, CompiledRustStub,
};
use devil_fuzz::superfuzz::{decode_super, install_synthetic, super_sweep};
use devil_fuzz::{decode, init_sweep_ops, sweep_ops, Op};
use devil_ir::DeviceIr;
use proptest::prelude::*;
use std::sync::OnceLock;

struct Rig {
    name: &'static str,
    ir: DeviceIr,
    api: StubApi,
    stub: CompiledRustStub,
}

/// The 8-spec library plus the synthetic formerly-fallback specs,
/// lowered and compiled once per test binary — the same rig set as the
/// C oracle, so the two back ends replay the same surfaces.
fn rigs() -> &'static [Rig] {
    static RIGS: OnceLock<Vec<Rig>> = OnceLock::new();
    RIGS.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled-rust-oracle");
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
                let api = StubApi::of(&ir);
                let stub = CompiledRustStub::build(name, &ir, &dir)
                    .unwrap_or_else(|e| panic!("{name}: cannot build compiled Rust oracle: {e}"));
                Rig { name, ir, api, stub }
            })
            .collect()
    })
}

/// `rustc` is required for this suite; bail out loudly (but green)
/// where it is missing so tier-1 stays runnable anywhere.
fn skip_without_rustc() -> bool {
    static HAS_RUSTC: OnceLock<bool> = OnceLock::new();
    if *HAS_RUSTC.get_or_init(rustc_available) {
        return false;
    }
    eprintln!("skipping compiled-Rust oracle: no `rustc` on PATH");
    true
}

/// Every emitted Rust module compiles and presents the same stub
/// surface as the C back end: both oracles are fed by one `StubApi`,
/// so a module that failed to compile would already have panicked in
/// the rig constructor — this pins that the surface is non-trivial.
#[test]
fn every_spec_module_compiles_and_covers_its_surface() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs() {
        assert!(
            !rig.api.read_vars.is_empty() || !rig.api.write_vars.is_empty(),
            "{}: no variable stubs emitted",
            rig.name
        );
        let ops = stub_ops(&rig.ir, &rig.api, &sweep_ops(&rig.ir));
        let synthetic = devil_fuzz::synthetic::ALL.iter().any(|(n, _)| *n == rig.name);
        let floor = if synthetic { 0 } else { 4 };
        assert!(ops.len() > floor, "{}: sweep filtered down to {} ops", rig.name, ops.len());
    }
}

/// The deterministic coverage sweep, compiled Rust stubs vs interpreter
/// — the same stream set the C oracle replays.
#[test]
fn coverage_sweep_matches_rust_stubs() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs() {
        if let Err(e) = check_compiled_rust(&rig.stub, &rig.ir, &rig.api, &sweep_ops(&rig.ir)) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// The guard-domain init sweep: every structure flushed across its
/// whole guard cross product, compiled Rust stubs vs interpreter.
#[test]
fn init_sequence_sweep_matches_rust_stubs() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs() {
        if let Err(e) = check_compiled_rust(&rig.stub, &rig.ir, &rig.api, &init_sweep_ops(&rig.ir))
        {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// Cold-cache then warm reads: validity tracking in the emitted Rust
/// module must match the interpreter's, including the second read
/// served without bus I/O.
#[test]
fn cold_and_warm_reads_match_rust_stubs() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs() {
        let mut ops: Vec<Op> = Vec::new();
        for &vid in &rig.api.read_vars {
            ops.push(Op::ReadVar { vid, args: Vec::new() });
            ops.push(Op::ReadVar { vid, args: Vec::new() });
        }
        if let Err(e) = check_compiled_rust(&rig.stub, &rig.ir, &rig.api, &ops) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// The deterministic superplan sweep, compiled Rust fused bodies vs
/// the fused interpreter path.
#[test]
fn superplan_sweep_matches_rust_stubs() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs().iter().filter(|r| !r.api.superplans.is_empty()) {
        let seq = super_sweep(&rig.ir);
        if let Err(e) = check_compiled_rust_super(&rig.stub, &rig.ir, &rig.api, &seq) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// Shipped coverage corpus replay: every minimized corpus stream runs
/// through the Rust oracle, so the corpus that saturates interpreter
/// dispatch coverage also exercises the second emitted back end.
#[test]
fn corpus_streams_match_rust_stubs() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs() {
        for (i, words) in devil_fuzz::coverage::shipped_corpus(rig.name).iter().enumerate() {
            let ops = decode(&rig.ir, words);
            if let Err(e) = check_compiled_rust(&rig.stub, &rig.ir, &rig.api, &ops) {
                panic!("{}: corpus stream {i}: {e}", rig.name);
            }
            if !rig.api.superplans.is_empty() {
                let seq = decode_super(&rig.ir, words);
                if let Err(e) = check_compiled_rust_super(&rig.stub, &rig.ir, &rig.api, &seq) {
                    panic!("{}: corpus stream {i} (fused): {e}", rig.name);
                }
            }
        }
    }
}

/// Root-compare mode of the Rust oracle agrees with the linear
/// comparator on both sweep surfaces.
#[test]
fn rooted_rust_oracle_matches_on_sweeps() {
    if skip_without_rustc() {
        return;
    }
    for rig in rigs() {
        check_compiled_rust_rooted(&rig.stub, &rig.ir, &rig.api, &sweep_ops(&rig.ir))
            .unwrap_or_else(|e| panic!("{}: {e}", rig.name));
        if !rig.api.superplans.is_empty() {
            let seq = super_sweep(&rig.ir);
            check_compiled_rust_super_rooted(&rig.stub, &rig.ir, &rig.api, &seq)
                .unwrap_or_else(|e| panic!("{}: {e}", rig.name));
        }
    }
}

/// Sensitivity: a single dropped op on the compiled side must surface
/// as a divergence — the comparator is not vacuous.
#[test]
fn rust_oracle_detects_injected_divergence() {
    if skip_without_rustc() {
        return;
    }
    let rig = rigs().iter().find(|r| r.name == "busmouse").unwrap();
    let kept = stub_ops(&rig.ir, &rig.api, &sweep_ops(&rig.ir));
    assert!(kept.iter().any(|o| matches!(o, Op::Preset { .. })), "sweep must preset");
    let want = interp_observation(&rig.ir, &kept);
    let skewed: Vec<Op> =
        kept.iter().filter(|o| !matches!(o, Op::Preset { .. })).cloned().collect();
    let got = rig.stub.run(commands(&rig.ir, &rig.api, &skewed)).expect("harness runs");
    assert_ne!(want, got, "oracle must notice the diverging device state");
}

/// Sensitivity of root-compare mode: skew the compiled Rust side's
/// stream and the rooted verdict must fail, with bisection naming
/// exactly the line a linear scan names first.
#[test]
fn rooted_rust_oracle_bisects_injected_divergence() {
    if skip_without_rustc() {
        return;
    }
    let rig = rigs().iter().find(|r| r.name == "busmouse").unwrap();
    let kept = stub_ops(&rig.ir, &rig.api, &sweep_ops(&rig.ir));
    let want = interp_observation(&rig.ir, &kept);
    let skewed: Vec<Op> =
        kept.iter().filter(|o| !matches!(o, Op::Preset { .. })).cloned().collect();
    let got = rig.stub.run(commands(&rig.ir, &rig.api, &skewed)).expect("harness runs");
    let linear_first = want
        .iter()
        .zip(got.iter())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len()));
    let err = rooted_verdict("busmouse", "Rust stubs", &want, &got)
        .expect_err("skewed stream must fail root compare");
    assert!(
        err.contains(&format!("observation line {linear_first} ")),
        "bisection must name line {linear_first}: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op streams over every spec: the compiled Rust stubs and
    /// the plan executor must be observationally identical.
    #[test]
    fn rust_stubs_and_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        if skip_without_rustc() {
            return Ok(());
        }
        for rig in rigs() {
            let ops = decode(&rig.ir, &words);
            let r = check_compiled_rust(&rig.stub, &rig.ir, &rig.api, &ops);
            prop_assert!(r.is_ok(), "{}: {}", rig.name, r.err().unwrap_or_default());
        }
    }

    /// Random interleavings of op preludes and superplan calls through
    /// the compiled Rust fused bodies.
    #[test]
    fn rust_superplans_and_interpreter_agree(words in collection::vec(any::<u64>(), 2..32)) {
        if skip_without_rustc() {
            return Ok(());
        }
        for rig in rigs().iter().filter(|r| !r.api.superplans.is_empty()) {
            let seq = decode_super(&rig.ir, &words);
            let r = check_compiled_rust_super(&rig.stub, &rig.ir, &rig.api, &seq);
            prop_assert!(r.is_ok(), "{}: {}", rig.name, r.err().unwrap_or_default());
        }
    }
}
