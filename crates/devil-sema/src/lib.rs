//! Semantic analysis and verification for Devil specifications.
//!
//! This crate lowers the AST produced by `devil-syntax` into a checked
//! model ([`model::CheckedDevice`]) and implements the consistency
//! verifications of the paper's Section 3.1: strong typing, no omission,
//! no double definition, and no overlapping definitions.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//! device demo (base : bit[8] port @ {0..1}) {
//!     register status = read base @ 0 : bit[8];
//!     register ctl    = write base @ 1 : bit[8];
//!     variable ready  = status[0], volatile : bool;
//!     variable code   = status[7..1], volatile : int(7);
//!     variable speed  = ctl : int(8);
//! }
//! "#;
//! let checked = devil_sema::check_source(src, &[]).expect("valid spec");
//! assert_eq!(checked.name, "demo");
//! assert_eq!(checked.registers.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod checks;
pub mod model;
pub mod resolve;

pub use model::CheckedDevice;

use devil_syntax::diag::DiagSink;

/// Parses, resolves and fully checks a specification in one call.
///
/// `int_params` binds the device's constant integer parameters (used by
/// conditional declarations). Returns the checked model, or the combined
/// diagnostics of whichever stage failed.
pub fn check_source<'s>(
    src: &'s str,
    int_params: &[(&str, u64)],
) -> Result<CheckedDevice<'s>, DiagSink> {
    match check_source_with_warnings(src, int_params) {
        (Some(model), _) => Ok(model),
        (None, diags) => Err(diags),
    }
}

/// Like [`check_source`] but also returns non-error diagnostics on
/// success, for tools that surface warnings.
pub fn check_source_with_warnings<'s>(
    src: &'s str,
    int_params: &[(&str, u64)],
) -> (Option<CheckedDevice<'s>>, DiagSink) {
    let (device, mut diags) = devil_syntax::parse(src);
    let Some(device) = device else {
        return (None, diags);
    };
    if diags.has_errors() {
        return (None, diags);
    }
    let model = resolve::resolve(&device, int_params, &mut diags);
    if diags.has_errors() {
        return (None, diags);
    }
    checks::check(&model, &mut diags);
    if diags.has_errors() {
        (None, diags)
    } else {
        (Some(model), diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_accepts_valid() {
        let m = check_source(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
            &[],
        )
        .unwrap();
        assert_eq!(m.variables.len(), 1);
    }

    #[test]
    fn check_source_rejects_parse_error() {
        let err = check_source("device", &[]).unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn check_source_rejects_semantic_error() {
        let err = check_source(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = missing : int(8);
               }"#,
            &[],
        )
        .unwrap_err();
        assert!(err.has_code(devil_syntax::ErrorCode::TUndefined));
    }

    #[test]
    fn warnings_do_not_fail_check_source() {
        let (m, diags) = check_source_with_warnings(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable scratch : bool;
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
            &[],
        );
        assert!(m.is_some());
        assert!(diags.has_code(devil_syntax::ErrorCode::OUnusedPrivate));
    }
}
