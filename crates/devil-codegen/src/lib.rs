//! Back ends of the Devil compiler: stub emitters for C (the paper's
//! Figure 3 macro output) and Rust (the modern `svd2rust`-shaped API),
//! plus helpers shared by the `devilc` command-line tool.

#![forbid(unsafe_code)]

pub mod c;
pub mod plan;
pub mod rust;

pub use c::emit_c;
pub use plan::{gets_field, stages_field};
pub use rust::emit_rust;

/// Compiles a specification and emits C stubs with `prefix`, which
/// must be a C identifier (`[A-Za-z_][A-Za-z0-9_]*`): every emitted
/// name starts with it.
pub fn compile_to_c(src: &str, prefix: &str) -> Result<String, String> {
    let mut chars = prefix.chars();
    let ident = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !ident {
        return Err(format!("prefix `{prefix}` is not a C identifier\n"));
    }
    let model = devil_sema::check_source(src, &[]).map_err(|d| {
        let sm = devil_syntax::SourceMap::new("<input>", src);
        d.render_all(&sm)
    })?;
    Ok(emit_c(&devil_ir::lower(&model), prefix))
}

/// Compiles a specification and emits a Rust module.
pub fn compile_to_rust(src: &str) -> Result<String, String> {
    let model = devil_sema::check_source(src, &[]).map_err(|d| {
        let sm = devil_syntax::SourceMap::new("<input>", src);
        d.render_all(&sm)
    })?;
    Ok(emit_rust(&devil_ir::lower(&model)))
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_helpers_report_errors() {
        let err = super::compile_to_c("device broken", "x").unwrap_err();
        assert!(err.contains("error["), "{err}");
        let ok = super::compile_to_rust(
            "device d (b : bit[8] port @ {0..0}) { register r = b @ 0 : bit[8]; variable v = r : int(8); }",
        )
        .unwrap();
        assert!(ok.contains("pub struct D"));
    }

    #[test]
    fn compile_to_c_rejects_a_prefix_that_is_not_a_c_identifier() {
        let spec = "device d (b : bit[8] port @ {0..0}) { register r = b @ 0 : bit[8]; variable v = r : int(8); }";
        for bad in ["1-x", "", "9bm", "bm-1", "b m", "bé"] {
            let err = super::compile_to_c(spec, bad).unwrap_err();
            assert!(err.contains("not a C identifier"), "{bad:?}: {err}");
        }
        for good in ["bm", "_x", "X_9", "_"] {
            assert!(super::compile_to_c(spec, good).is_ok(), "{good:?}");
        }
    }
}
