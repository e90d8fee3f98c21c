//! Diagnostics: structured compiler errors and warnings.
//!
//! Every front-end stage (lexer, parser, checker) reports problems as
//! [`Diagnostic`] values collected into a [`DiagSink`]. Diagnostics carry
//! a stable [`ErrorCode`] so tests (and the mutation-analysis harness,
//! which needs to decide *whether* an error was detected) can assert on
//! classes of errors rather than message text.

use crate::span::{SourceMap, Span};
use std::fmt;

/// Severity of a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Level {
    /// A hard error: the specification is rejected.
    Error,
    /// A warning: suspicious but accepted.
    Warning,
    /// Supplementary information attached to another diagnostic.
    Note,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Error => write!(f, "error"),
            Level::Warning => write!(f, "warning"),
            Level::Note => write!(f, "note"),
        }
    }
}

/// Stable machine-readable codes for every diagnostic the tool chain emits.
///
/// Codes are grouped by stage: `Lex*` from the lexer, `Parse*` from the
/// parser, `T*` (typing), `O*` (omission), `D*` (double definition) and
/// `V*` (overlap) from the checker, mirroring the four verification
/// categories of the paper's Section 3.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ErrorCode {
    // ---- Lexer ----
    /// A character that cannot start any token.
    LexUnknownChar,
    /// An unterminated bit-literal / mask quote.
    LexUnterminatedQuote,
    /// A quoted literal containing a character outside `01*.-`.
    LexBadQuoteChar,
    /// A malformed integer literal (e.g. `0x` with no digits).
    LexBadInt,
    /// An unterminated block comment.
    LexUnterminatedComment,
    /// Integer literal does not fit in 64 bits.
    LexIntOverflow,

    // ---- Parser ----
    /// Generic "expected X, found Y".
    ParseExpected,
    /// A declaration keyword was expected.
    ParseExpectedDecl,
    /// Trailing input after the closing brace of the device.
    ParseTrailing,
    /// An empty construct that must not be empty (e.g. `int{}`).
    ParseEmpty,
    /// A bit range with reversed bounds, e.g. `[0..7]`.
    ParseReversedRange,
    /// Integer out of the range accepted by the construct.
    ParseIntRange,
    /// Nesting (or a `||`/`&&` chain) deeper than the parser's limit,
    /// [`MAX_DEPTH`](crate::parser::MAX_DEPTH).
    ParseDepth,

    // ---- Checker: strong typing ----
    /// Reference to an undefined name.
    TUndefined,
    /// A name used in a role it does not have (e.g. a variable where a
    /// register is required).
    TWrongKind,
    /// Bit width mismatch between a variable's bit sources and its type.
    TWidthMismatch,
    /// A bit index outside the register's declared size.
    TBitOutOfRange,
    /// A mask literal whose length differs from the register size.
    TMaskWidth,
    /// An enum bit pattern whose length differs from the variable width.
    TEnumPatternWidth,
    /// Port offset outside the declared port range.
    TPortOffset,
    /// A read of a write-only entity or vice versa.
    TDirection,
    /// Register parameter/argument mismatch.
    TParamMismatch,
    /// A pre/post/set action assigns an incompatible value.
    TActionValue,
    /// A serialization clause names something that is not a register of
    /// the structure, or tests a non-member variable.
    TSerialization,
    /// `trigger except`/`for` value is not a value of the variable's type.
    TTriggerValue,
    /// Structure/variable used where the other was required.
    TStructureMisuse,
    /// The variable has no type and none can be inferred.
    TMissingType,
    /// Integer value does not fit the declared value-set type.
    TValueRange,
    /// Conditional declaration guard is not a boolean expression.
    TCondGuard,

    // ---- Checker: omission ----
    /// A declared port (or part of its range) is never used.
    OUnusedPort,
    /// A declared register is never used by any variable.
    OUnusedRegister,
    /// Relevant register bits not covered by any variable.
    OUncoveredBits,
    /// A declared type is never used.
    OUnusedType,
    /// Read mapping of an enum type is not exhaustive.
    OEnumNotExhaustive,
    /// A readable variable's type has no read mapping at all.
    ONoReadMapping,
    /// A writable variable's type has no write mapping at all.
    ONoWriteMapping,
    /// A private unmapped variable never assigned.
    OUnusedPrivate,

    // ---- Checker: double definition ----
    /// Same name declared twice (register, variable, type, structure...).
    DDuplicateName,
    /// The same symbolic name appears twice inside one enum type.
    DDuplicateEnumSym,
    /// The same bit pattern mapped twice for the same direction.
    DDuplicateEnumPattern,
    /// A device parameter repeated.
    DDuplicateParam,

    // ---- Checker: overlap ----
    /// Two registers overlap on a port without disjoint masks/pre-actions.
    VRegisterOverlap,
    /// One register bit used by two different variables.
    VBitOverlap,
    /// Multiple trigger variables on one register without neutral values.
    VTriggerConflict,

    // ---- Runtime-facing (generated checks) ----
    /// A written value is outside the variable's type at run time.
    RValueRange,
    /// A read produced a pattern with no read mapping.
    RBadPattern,
}

impl ErrorCode {
    /// Short stable string form, e.g. `E-T-WIDTH`.
    pub fn as_str(self) -> &'static str {
        use ErrorCode::*;
        match self {
            LexUnknownChar => "E-LEX-CHAR",
            LexUnterminatedQuote => "E-LEX-QUOTE",
            LexBadQuoteChar => "E-LEX-QCHAR",
            LexBadInt => "E-LEX-INT",
            LexUnterminatedComment => "E-LEX-COMMENT",
            LexIntOverflow => "E-LEX-OVERFLOW",
            ParseExpected => "E-PARSE-EXPECTED",
            ParseExpectedDecl => "E-PARSE-DECL",
            ParseTrailing => "E-PARSE-TRAILING",
            ParseEmpty => "E-PARSE-EMPTY",
            ParseReversedRange => "E-PARSE-RANGE",
            ParseIntRange => "E-PARSE-INTRANGE",
            ParseDepth => "E-PARSE-DEPTH",
            TUndefined => "E-T-UNDEF",
            TWrongKind => "E-T-KIND",
            TWidthMismatch => "E-T-WIDTH",
            TBitOutOfRange => "E-T-BIT",
            TMaskWidth => "E-T-MASK",
            TEnumPatternWidth => "E-T-ENUMWIDTH",
            TPortOffset => "E-T-PORT",
            TDirection => "E-T-DIR",
            TParamMismatch => "E-T-PARAM",
            TActionValue => "E-T-ACTION",
            TSerialization => "E-T-SERIAL",
            TTriggerValue => "E-T-TRIGGER",
            TStructureMisuse => "E-T-STRUCT",
            TMissingType => "E-T-NOTYPE",
            TValueRange => "E-T-VALUE",
            TCondGuard => "E-T-COND",
            OUnusedPort => "E-O-PORT",
            OUnusedRegister => "E-O-REG",
            OUncoveredBits => "E-O-BITS",
            OUnusedType => "E-O-TYPE",
            OEnumNotExhaustive => "E-O-ENUM",
            ONoReadMapping => "E-O-READMAP",
            ONoWriteMapping => "E-O-WRITEMAP",
            OUnusedPrivate => "E-O-PRIVATE",
            DDuplicateName => "E-D-NAME",
            DDuplicateEnumSym => "E-D-ENUMSYM",
            DDuplicateEnumPattern => "E-D-ENUMPAT",
            DDuplicateParam => "E-D-PARAM",
            VRegisterOverlap => "E-V-REGOVERLAP",
            VBitOverlap => "E-V-BITOVERLAP",
            VTriggerConflict => "E-V-TRIGGER",
            RValueRange => "E-R-VALUE",
            RBadPattern => "E-R-PATTERN",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single diagnostic message with location and optional notes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub level: Level,
    /// Stable code for programmatic matching.
    pub code: ErrorCode,
    /// Human-readable message.
    pub message: String,
    /// Primary source location.
    pub span: Span,
    /// Secondary notes (message + optional span).
    pub notes: Vec<(String, Option<Span>)>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: ErrorCode, message: impl Into<String>, span: Span) -> Self {
        Diagnostic { level: Level::Error, code, message: message.into(), span, notes: Vec::new() }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: ErrorCode, message: impl Into<String>, span: Span) -> Self {
        Diagnostic { level: Level::Warning, code, message: message.into(), span, notes: Vec::new() }
    }

    /// Attaches a note to the diagnostic.
    pub fn with_note(mut self, message: impl Into<String>, span: Option<Span>) -> Self {
        self.notes.push((message.into(), span));
        self
    }

    /// Renders the diagnostic with a source excerpt, `rustc`-style.
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = String::new();
        let lc = sm.line_col(self.span.lo);
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}\n",
            self.level, self.code, self.message, sm.name, lc
        ));
        let line = sm.line_text(self.span.lo);
        out.push_str(&format!("   | {line}\n   | "));
        for _ in 1..lc.col {
            out.push(' ');
        }
        let width = self.span.len().clamp(1, line.len().saturating_sub(lc.col as usize - 1).max(1));
        for _ in 0..width {
            out.push('^');
        }
        out.push('\n');
        for (msg, nspan) in &self.notes {
            match nspan {
                Some(s) => {
                    let nlc = sm.line_col(s.lo);
                    out.push_str(&format!("   = note: {msg} (at {}:{nlc})\n", sm.name));
                }
                None => out.push_str(&format!("   = note: {msg}\n")),
            }
        }
        out
    }
}

/// An append-only collection of diagnostics produced by a compiler stage.
#[derive(Clone, Debug, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
}

impl DiagSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Convenience: records an error.
    pub fn error(&mut self, code: ErrorCode, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(code, message, span));
    }

    /// Convenience: records a warning.
    pub fn warning(&mut self, code: ErrorCode, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::warning(code, message, span));
    }

    /// All diagnostics in emission order.
    pub fn all(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Whether any error-level diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.level == Level::Error)
    }

    /// Number of error-level diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags.iter().filter(|d| d.level == Level::Error).count()
    }

    /// Whether a diagnostic with the given code was recorded.
    pub fn has_code(&self, code: ErrorCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Appends all diagnostics from `other`.
    pub fn extend(&mut self, other: DiagSink) {
        self.diags.extend(other.diags);
    }

    /// Renders every diagnostic against `sm`, newline separated.
    pub fn render_all(&self, sm: &SourceMap) -> String {
        self.diags.iter().map(|d| d.render(sm)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_counts_errors_and_warnings() {
        let mut sink = DiagSink::new();
        assert!(!sink.has_errors());
        sink.warning(ErrorCode::OUnusedRegister, "unused", Span::new(0, 1));
        assert!(!sink.has_errors());
        sink.error(ErrorCode::TUndefined, "undefined name", Span::new(2, 5));
        assert!(sink.has_errors());
        assert_eq!(sink.error_count(), 1);
        assert!(sink.has_code(ErrorCode::TUndefined));
        assert!(sink.has_code(ErrorCode::OUnusedRegister));
        assert!(!sink.has_code(ErrorCode::VBitOverlap));
    }

    #[test]
    fn render_points_at_span() {
        let sm = SourceMap::new("t.dil", "register r = base @ 1 : bit[8];");
        let d =
            Diagnostic::error(ErrorCode::TUndefined, "undefined port `base`", Span::new(13, 17))
                .with_note("declare the port in the device header", None);
        let rendered = d.render(&sm);
        assert!(rendered.contains("error[E-T-UNDEF]"), "{rendered}");
        assert!(rendered.contains("t.dil:1:14"), "{rendered}");
        assert!(rendered.contains("^^^^"), "{rendered}");
        assert!(rendered.contains("note: declare the port"), "{rendered}");
    }

    #[test]
    fn error_codes_are_stable_and_unique() {
        use std::collections::HashSet;
        let codes = [
            ErrorCode::LexUnknownChar,
            ErrorCode::ParseExpected,
            ErrorCode::TUndefined,
            ErrorCode::OUnusedPort,
            ErrorCode::DDuplicateName,
            ErrorCode::VRegisterOverlap,
            ErrorCode::RValueRange,
        ];
        let strs: HashSet<&str> = codes.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs.len(), codes.len());
        assert_eq!(ErrorCode::TWidthMismatch.to_string(), "E-T-WIDTH");
    }
}
