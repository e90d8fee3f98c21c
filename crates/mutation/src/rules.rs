//! Mutation rules: single-character edits of source tokens.
//!
//! Following the paper (and DeMillo/Lipton/Sayward), a *mutation site*
//! is one token — an operator, identifier, or literal constant — and
//! its *mutants* are all programs obtained by inserting, replacing or
//! removing one character of that token. For a two-digit decimal
//! integer this yields the paper's example count of 50 mutants
//! (2 removals + 30 insertions + 18 replacements).

/// The category of a mutation site, which picks the character alphabet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// An identifier (alphabet: `a..z`, `_`).
    Ident,
    /// A decimal integer (alphabet: `0..9`).
    DecInt,
    /// A hexadecimal integer (alphabet: `0..9a..f`; the `0x` prefix is
    /// not mutated).
    HexInt,
    /// A quoted Devil bit/mask literal (alphabet: `0 1 * .`).
    BitLit,
    /// An operator or punctuation lexeme (alphabet: the operator set).
    Operator,
}

impl SiteKind {
    /// The diagnostic classes (see [`diag_class`]) a mutant of this
    /// site kind may legitimately trigger. Single-character edits stay
    /// inside their token, so each kind has a characteristic error
    /// profile: identifier mutants can never break the lexer (every
    /// alphabet character extends a valid identifier) and, because
    /// defining occurrences are excluded from the site set, never
    /// collide into double definitions; integer mutants can overflow
    /// the lexer, break parsing, or shift widths/offsets/overlaps;
    /// bit-literal mutants additionally produce duplicate enum
    /// patterns; operator mutants break lexing/parsing or typing.
    /// The checker-fuzz suite asserts against these sets.
    pub fn expected_classes(self) -> &'static [&'static str] {
        match self {
            SiteKind::Ident => &["PARSE", "T", "O", "V"],
            SiteKind::DecInt | SiteKind::HexInt => &["LEX", "PARSE", "T", "O", "V"],
            SiteKind::BitLit => &["PARSE", "T", "O", "D", "V"],
            SiteKind::Operator => &["LEX", "PARSE", "T", "O"],
        }
    }

    fn alphabet(self) -> &'static [char] {
        match self {
            SiteKind::Ident => &[
                'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p',
                'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '_',
            ],
            SiteKind::DecInt => &['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'],
            SiteKind::HexInt => {
                &['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f']
            }
            SiteKind::BitLit => &['0', '1', '*', '.'],
            SiteKind::Operator => &['|', '&', '<', '>', '=', '!', '+', '-', '#', '^', '~'],
        }
    }
}

/// A mutation site: a byte range of the source holding one token.
#[derive(Clone, Debug)]
pub struct Site {
    /// Byte offset of the token start.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
    /// The token text.
    pub text: String,
    /// Which alphabet applies.
    pub kind: SiteKind,
}

/// Generates every mutant string of a site, applied to `src`.
///
/// The *mutable core* excludes prefixes that would only produce
/// trivially-equivalent or lexically-impossible tokens (`0x`, quotes).
pub fn mutants(src: &str, site: &Site) -> Vec<String> {
    let mut out = Vec::new();
    let (core_start, core_end) = match site.kind {
        SiteKind::HexInt => (site.start + 2, site.end),
        SiteKind::BitLit => (site.start + 1, site.end - 1), // inside quotes
        _ => (site.start, site.end),
    };
    let core = &src[core_start..core_end];
    let alphabet = site.kind.alphabet();
    let n = core.len();
    // Removals (skip when the token would vanish entirely).
    if n > 1 || site.kind == SiteKind::BitLit || site.kind == SiteKind::Operator {
        for i in 0..n {
            let mut s = String::with_capacity(src.len());
            s.push_str(&src[..core_start + i]);
            s.push_str(&src[core_start + i + 1..]);
            out.push(s);
        }
    }
    // Insertions.
    for i in 0..=n {
        for &c in alphabet {
            let mut s = String::with_capacity(src.len() + 1);
            s.push_str(&src[..core_start + i]);
            s.push(c);
            s.push_str(&src[core_start + i..]);
            out.push(s);
        }
    }
    // Replacements (by a different character).
    for (i, old) in core.char_indices() {
        for &c in alphabet {
            if c == old {
                continue;
            }
            let mut s = String::with_capacity(src.len());
            s.push_str(&src[..core_start + i]);
            s.push(c);
            s.push_str(&src[core_start + i + 1..]);
            out.push(s);
        }
    }
    out
}

/// Collects the spans of *defining* name occurrences (device, port,
/// register, variable, structure, type and enum-symbol declarations).
/// Mutating a defining occurrence consistently renames the entity —
/// an interface change detectable only by client code, which the
/// `CDevil` analysis covers — so those spans are not specification
/// mutation sites.
fn defining_spans(src: &str) -> Vec<(usize, usize)> {
    use devil_syntax::ast::{Decl, TypeKind, VariableDecl};
    let (dev, _) = devil_syntax::parse(src);
    let Some(dev) = dev else { return Vec::new() };
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut push = |span: devil_syntax::Span| out.push((span.lo as usize, span.hi as usize));
    push(dev.name.span);
    for p in &dev.params {
        push(p.name.span);
    }
    fn visit_var(v: &VariableDecl, push: &mut dyn FnMut(devil_syntax::Span)) {
        push(v.name.span);
        for p in &v.params {
            push(p.name.span);
        }
        if let Some(ty) = &v.ty {
            if let TypeKind::Enum(e) = &ty.kind {
                for arm in &e.arms {
                    push(arm.sym.span);
                }
            }
        }
    }
    fn visit(decls: &[Decl], push: &mut dyn FnMut(devil_syntax::Span)) {
        for d in decls {
            match d {
                Decl::Register(r) => {
                    push(r.name.span);
                    for p in &r.params {
                        push(p.name.span);
                    }
                }
                Decl::Variable(v) => visit_var(v, push),
                Decl::Structure(s) => {
                    push(s.name.span);
                    for f in &s.fields {
                        visit_var(f, push);
                    }
                }
                Decl::TypeDef(t) => {
                    push(t.name.span);
                    if let TypeKind::Enum(e) = &t.ty.kind {
                        for arm in &e.arms {
                            push(arm.sym.span);
                        }
                    }
                }
                Decl::Cond(c) => {
                    visit(&c.then, push);
                    visit(&c.els, push);
                }
            }
        }
    }
    visit(&dev.decls, &mut push);
    out
}

/// Extracts mutation sites from Devil source (tokens of the Devil
/// lexer, restricted to the mutable categories; defining name
/// occurrences are excluded — see `defining_spans`).
pub fn devil_sites(src: &str) -> Vec<Site> {
    use devil_syntax::token::TokenKind as T;
    let defining = defining_spans(src);
    let mut diags = devil_syntax::DiagSink::new();
    let toks = devil_syntax::lexer::lex(src, &mut diags);
    let mut sites = Vec::new();
    for t in toks {
        let (start, end) = (t.span.lo as usize, t.span.hi as usize);
        if defining.contains(&(start, end)) {
            continue;
        }
        let text = src[start..end].to_string();
        let kind = match &t.kind {
            T::Ident => SiteKind::Ident,
            T::Int(_) => {
                if text.starts_with("0x") || text.starts_with("0X") {
                    SiteKind::HexInt
                } else {
                    SiteKind::DecInt
                }
            }
            T::Quoted => SiteKind::BitLit,
            T::Eq
            | T::EqEq
            | T::NotEq
            | T::Hash
            | T::FatArrow
            | T::ReadArrow
            | T::BothArrow
            | T::Star
            | T::AndAnd
            | T::OrOr
            | T::Not => SiteKind::Operator,
            _ => continue, // keywords/punctuation are structure, not sites
        };
        sites.push(Site { start, end, text, kind });
    }
    sites
}

/// The stable class of a diagnostic code: the middle segment of its
/// string form (`E-T-WIDTH` → `T`), one of `LEX`, `PARSE`, `T`
/// (typing), `O` (omission), `D` (double definition), `V` (overlap)
/// or `R` (run-time, never produced by the static checker).
pub fn diag_class(code: devil_syntax::ErrorCode) -> &'static str {
    let s = &code.as_str()[2..]; // strip the "E-" prefix
    match s.find('-') {
        Some(i) => &s[..i],
        None => s,
    }
}

/// Extracts mutation sites from C source between `/*DEVIL:BEGIN*/` and
/// `/*DEVIL:END*/` tags (the paper tags the hardware operating code and
/// mutates only there). Untagged sources are fully mutable.
pub fn c_sites(src: &str) -> Vec<Site> {
    let (lo, hi) = match (src.find("/*DEVIL:BEGIN*/"), src.find("/*DEVIL:END*/")) {
        (Some(a), Some(b)) => (a + "/*DEVIL:BEGIN*/".len(), b),
        _ => (0, src.len()),
    };
    let mut sites = Vec::new();
    let bytes = src.as_bytes();
    let mut i = lo;
    while i < hi {
        let c = bytes[i];
        match c {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < hi && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < hi && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = src[start..i].to_string();
                // Keywords are structure, not sites.
                if !matches!(
                    text.as_str(),
                    "int"
                        | "unsigned"
                        | "char"
                        | "long"
                        | "short"
                        | "if"
                        | "else"
                        | "while"
                        | "for"
                        | "return"
                        | "define"
                        | "include"
                        | "static"
                        | "volatile"
                ) {
                    sites.push(Site { start, end: i, text, kind: SiteKind::Ident });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let hex = c == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X'));
                if hex {
                    i += 2;
                }
                while i < hi && (bytes[i].is_ascii_hexdigit() && (hex || bytes[i].is_ascii_digit()))
                {
                    i += 1;
                }
                sites.push(Site {
                    start,
                    end: i,
                    text: src[start..i].to_string(),
                    kind: if hex { SiteKind::HexInt } else { SiteKind::DecInt },
                });
            }
            b'|' | b'&' | b'<' | b'>' | b'=' | b'!' | b'^' | b'~' | b'+' | b'-' => {
                let start = i;
                i += 1;
                // Coalesce doubled operators into one site.
                if i < hi && (bytes[i] == c || bytes[i] == b'=') {
                    i += 1;
                }
                sites.push(Site {
                    start,
                    end: i,
                    text: src[start..i].to_string(),
                    kind: SiteKind::Operator,
                });
            }
            _ => i += 1,
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_digit_decimal_has_fifty_mutants() {
        // The paper's worked example: 2 removals + 30 insertions + 18
        // replacements = 50.
        let src = "x = 12;";
        let site = Site { start: 4, end: 6, text: "12".into(), kind: SiteKind::DecInt };
        let ms = mutants(src, &site);
        assert_eq!(ms.len(), 50);
        assert!(ms.contains(&"x = 2;".to_string()));
        assert!(ms.contains(&"x = 112;".to_string()));
        assert!(ms.contains(&"x = 92;".to_string()));
    }

    #[test]
    fn hex_prefix_is_not_mutated() {
        let src = "y = 0xf0;";
        let site = Site { start: 4, end: 8, text: "0xf0".into(), kind: SiteKind::HexInt };
        for m in mutants(src, &site) {
            assert!(m.contains("0x"), "prefix must survive: {m}");
        }
    }

    #[test]
    fn bit_literal_mutates_inside_quotes() {
        let src = "mask '10*'";
        let site = Site { start: 5, end: 10, text: "'10*'".into(), kind: SiteKind::BitLit };
        for m in mutants(src, &site) {
            assert_eq!(m.matches('\'').count(), 2, "quotes must survive: {m}");
        }
        // 3 removals + 4*4 insertions + 3*3 replacements = 28.
        assert_eq!(mutants(src, &site).len(), 28);
    }

    #[test]
    fn devil_sites_cover_the_mutable_tokens() {
        let sites = devil_sites("register r = base @ 1, mask '1*' : bit[8];");
        let kinds: Vec<SiteKind> = sites.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SiteKind::Ident)); // r, base
        assert!(kinds.contains(&SiteKind::DecInt)); // 1, 8
        assert!(kinds.contains(&SiteKind::BitLit)); // '1*'
        assert!(kinds.contains(&SiteKind::Operator)); // =
                                                      // Keywords (`register`, `mask`, `bit`) are not sites.
        assert!(!sites.iter().any(|s| s.text == "register"));
    }

    #[test]
    fn c_sites_respect_tags() {
        let src = "int outside; /*DEVIL:BEGIN*/ x = inb(0x3c) | 2; /*DEVIL:END*/ int after;";
        let sites = c_sites(src);
        assert!(sites.iter().any(|s| s.text == "inb"));
        assert!(sites.iter().any(|s| s.text == "0x3c"));
        assert!(sites.iter().any(|s| s.text == "|"));
        assert!(!sites.iter().any(|s| s.text == "outside"));
        assert!(!sites.iter().any(|s| s.text == "after"));
    }

    #[test]
    fn diag_classes_are_the_documented_six() {
        use devil_syntax::ErrorCode;
        assert_eq!(diag_class(ErrorCode::LexBadInt), "LEX");
        assert_eq!(diag_class(ErrorCode::ParseExpected), "PARSE");
        assert_eq!(diag_class(ErrorCode::TWidthMismatch), "T");
        assert_eq!(diag_class(ErrorCode::OUncoveredBits), "O");
        assert_eq!(diag_class(ErrorCode::DDuplicateName), "D");
        assert_eq!(diag_class(ErrorCode::VBitOverlap), "V");
        assert_eq!(diag_class(ErrorCode::RValueRange), "R");
    }

    #[test]
    fn expected_classes_exclude_runtime_codes() {
        for kind in [
            SiteKind::Ident,
            SiteKind::DecInt,
            SiteKind::HexInt,
            SiteKind::BitLit,
            SiteKind::Operator,
        ] {
            assert!(!kind.expected_classes().contains(&"R"), "{kind:?}");
            assert!(!kind.expected_classes().is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn operator_removal_allowed() {
        let src = "a || b";
        let site = Site { start: 2, end: 4, text: "||".into(), kind: SiteKind::Operator };
        let ms = mutants(src, &site);
        assert!(ms.contains(&"a | b".to_string()), "|| -> | is the classic mutant");
    }
}
