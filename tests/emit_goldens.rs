//! Emit goldens for the whole spec library: the generated C header and
//! Rust module of every spec `devil_fuzz::spec_library()` lists (the
//! 8 shipped specs plus the 5 synthetic ones), each with its declared
//! superplans installed, so fused stub bodies are pinned too. After an
//! intentional emitter change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test emit_goldens
//! ```

use std::fs;
use std::path::PathBuf;

/// Compares `got` against `tests/goldens/<name>`, rewriting the file
/// instead when `UPDATE_GOLDENS=1` is set. Returns the mismatch, if any.
fn check_golden(name: &str, got: &str) -> Option<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        fs::write(&path, got).unwrap_or_else(|e| panic!("cannot update {}: {e}", path.display()));
        return None;
    }
    match fs::read_to_string(&path) {
        Ok(want) if want == got => None,
        Ok(_) => Some(format!("{name} drifted")),
        Err(e) => Some(format!("cannot read {} ({e})", path.display())),
    }
}

#[test]
fn every_spec_emits_its_golden_c_and_rust() {
    let library = devil_fuzz::spec_library();
    assert_eq!(library.len(), 13, "8 shipped + 5 synthetic specs");
    let mut drift = Vec::new();
    for (name, ir) in &library {
        drift.extend(check_golden(&format!("{name}.h"), &devil_codegen::emit_c(ir, name)));
        drift.extend(check_golden(&format!("{name}.rs"), &devil_codegen::emit_rust(ir)));
    }
    assert!(
        drift.is_empty(),
        "{drift:#?}\nrerun with UPDATE_GOLDENS=1 if the change is intentional"
    );
}
