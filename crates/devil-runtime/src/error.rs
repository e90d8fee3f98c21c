//! Run-time errors for the generated/interpreted device interface.
//!
//! In the paper, the compiler optionally inserts run-time checks in
//! "debug mode" (Section 3.2); here those checks surface as
//! [`RtError`] values instead of C assertions.

use std::fmt;

/// An error raised by the device-interface runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// The named variable or structure does not exist.
    Unknown(String),
    /// Reading a variable that is not readable.
    NotReadable(String),
    /// Writing a variable that is not writable.
    NotWritable(String),
    /// Debug-mode write check: value outside the variable's type
    /// (the paper's "written value falls within the range specified by
    /// the variable type").
    ValueRange {
        /// Variable name.
        var: String,
        /// The offending value.
        value: u64,
    },
    /// Debug-mode read check: the device produced a bit pattern with no
    /// read mapping ("verifying that a device behaves accordingly to its
    /// Devil specification").
    BadPattern {
        /// Variable name.
        var: String,
        /// The raw bits read.
        raw: u64,
    },
    /// Wrong number of family arguments, or superplan operands or
    /// output slots.
    ArityMismatch {
        /// Variable name, or the superplan's access name
        /// (`superplan tx`; `superplan tx outputs` for its output
        /// slots).
        var: String,
        /// Parameters declared.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A family argument outside the parameter's declared value set.
    ArgOutOfRange {
        /// Variable name.
        var: String,
        /// The offending argument.
        value: u64,
    },
    /// Block access on a variable without the `block` attribute, or one
    /// not backed by exactly one whole register at a constant offset.
    NotBlock(String),
    /// Structure-field access on a variable that is not a field.
    NotAField(String),
    /// Action recursion exceeded the safety limit (cyclic pre-actions).
    RecursionLimit(String),
    /// The access has no compiled plan: lowering recorded it, with the
    /// reason, in `DeviceIr::plan_fallbacks`. Payload: the access, as
    /// named there (`write w`, `read struct s`, `block d`, `field f`).
    Unplanned(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Unknown(n) => write!(f, "unknown variable or structure `{n}`"),
            RtError::NotReadable(n) => write!(f, "variable `{n}` is not readable"),
            RtError::NotWritable(n) => write!(f, "variable `{n}` is not writable"),
            RtError::ValueRange { var, value } => {
                write!(f, "value {value:#x} is outside the type of variable `{var}`")
            }
            RtError::BadPattern { var, raw } => write!(
                f,
                "device returned {raw:#x} for variable `{var}`, which has no read mapping"
            ),
            RtError::ArityMismatch { var, expected, got } => {
                write!(f, "`{var}` takes {expected} argument(s), {got} supplied")
            }
            RtError::ArgOutOfRange { var, value } => {
                write!(f, "argument {value} is outside the parameter set of `{var}`")
            }
            RtError::NotBlock(n) => write!(f, "variable `{n}` does not support block transfer"),
            RtError::NotAField(n) => write!(f, "variable `{n}` is not a structure field"),
            RtError::RecursionLimit(n) => {
                write!(f, "pre/post-action recursion limit reached while accessing `{n}`")
            }
            RtError::Unplanned(n) => write!(f, "`{n}` compiled no access plan"),
        }
    }
}

impl std::error::Error for RtError {}

/// Convenience result alias.
pub type RtResult<T> = Result<T, RtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RtError::Unknown("x".into()).to_string().contains("`x`"));
        assert!(RtError::ValueRange { var: "v".into(), value: 9 }.to_string().contains("0x9"));
        assert!(RtError::ArityMismatch { var: "v".into(), expected: 1, got: 2 }
            .to_string()
            .contains("takes 1"));
    }
}
