//! The Devil lexer.
//!
//! Converts raw specification text into a [`Token`] stream. The lexer is
//! error-tolerant: unknown characters and malformed literals are reported
//! to the [`DiagSink`] and skipped, so the parser always receives a
//! well-formed stream ending in [`TokenKind::Eof`].

use crate::diag::{DiagSink, ErrorCode};
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Lexes `src` completely, reporting problems into `diags`.
///
/// The returned vector always ends with an [`TokenKind::Eof`] token whose
/// span is the empty span at the end of input.
pub fn lex(src: &str, diags: &mut DiagSink) -> Vec<Token> {
    Lexer::new(src, diags).run()
}

struct Lexer<'a, 'd> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    diags: &'d mut DiagSink,
    tokens: Vec<Token>,
}

impl<'a, 'd> Lexer<'a, 'd> {
    fn new(src: &'a str, diags: &'d mut DiagSink) -> Self {
        // The shipped specs run at 4.7 to 6 source bytes per token, so a
        // quarter of the length holds every token in one allocation.
        let tokens = Vec::with_capacity(src.len() / 4 + 1);
        Lexer { src, bytes: src.as_bytes(), pos: 0, diags, tokens }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(start as u32, self.pos as u32)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        let span = self.span_from(start);
        self.tokens.push(Token::new(kind, span));
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek() {
            let start = self.pos;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == Some(b'/') => self.line_comment(),
                b'/' if self.peek2() == Some(b'*') => self.block_comment(),
                b'\'' => self.quoted(),
                b'0'..=b'9' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'{' => self.single(TokenKind::LBrace),
                b'}' => self.single(TokenKind::RBrace),
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b'[' => self.single(TokenKind::LBracket),
                b']' => self.single(TokenKind::RBracket),
                b'@' => self.single(TokenKind::At),
                b':' => self.single(TokenKind::Colon),
                b';' => self.single(TokenKind::Semi),
                b',' => self.single(TokenKind::Comma),
                b'#' => self.single(TokenKind::Hash),
                b'*' => self.single(TokenKind::Star),
                b'.' => {
                    if self.peek2() == Some(b'.') {
                        self.pos += 2;
                        self.push(TokenKind::DotDot, start);
                    } else {
                        self.pos += 1;
                        self.diags.error(
                            ErrorCode::LexUnknownChar,
                            "stray `.` (expected `..` range)",
                            self.span_from(start),
                        );
                    }
                }
                b'=' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'=') => {
                            self.pos += 1;
                            self.push(TokenKind::EqEq, start);
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            self.push(TokenKind::FatArrow, start);
                        }
                        _ => self.push(TokenKind::Eq, start),
                    }
                }
                b'<' => {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        if self.peek() == Some(b'>') {
                            self.pos += 1;
                            self.push(TokenKind::BothArrow, start);
                        } else {
                            self.push(TokenKind::ReadArrow, start);
                        }
                    } else {
                        self.diags.error(
                            ErrorCode::LexUnknownChar,
                            "stray `<` (expected `<=` or `<=>`)",
                            self.span_from(start),
                        );
                    }
                }
                b'!' => {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        self.push(TokenKind::NotEq, start);
                    } else {
                        self.push(TokenKind::Not, start);
                    }
                }
                b'&' => {
                    self.pos += 1;
                    if self.peek() == Some(b'&') {
                        self.pos += 1;
                        self.push(TokenKind::AndAnd, start);
                    } else {
                        self.diags.error(
                            ErrorCode::LexUnknownChar,
                            "stray `&` (expected `&&`)",
                            self.span_from(start),
                        );
                    }
                }
                b'|' => {
                    self.pos += 1;
                    if self.peek() == Some(b'|') {
                        self.pos += 1;
                        self.push(TokenKind::OrOr, start);
                    } else {
                        self.diags.error(
                            ErrorCode::LexUnknownChar,
                            "stray `|` (expected `||`)",
                            self.span_from(start),
                        );
                    }
                }
                other => {
                    self.pos += 1;
                    self.diags.error(
                        ErrorCode::LexUnknownChar,
                        format!("unknown character `{}`", other as char),
                        self.span_from(start),
                    );
                }
            }
        }
        let end = Span::new(self.pos as u32, self.pos as u32);
        self.tokens.push(Token::new(TokenKind::Eof, end));
        self.tokens
    }

    fn single(&mut self, kind: TokenKind) {
        let start = self.pos;
        self.pos += 1;
        self.push(kind, start);
    }

    fn line_comment(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        self.pos += 2; // consume `/*`
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(), self.peek2()) {
                (Some(b'*'), Some(b'/')) => {
                    self.pos += 2;
                    depth -= 1;
                }
                (Some(b'/'), Some(b'*')) => {
                    self.pos += 2;
                    depth += 1;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => {
                    self.diags.error(
                        ErrorCode::LexUnterminatedComment,
                        "unterminated block comment",
                        self.span_from(start),
                    );
                    return;
                }
            }
        }
    }

    /// Lexes a quoted bit/mask literal such as `'1001000.'`.
    ///
    /// The paper prints irrelevant-both-ways bits as `-` in prose but `.`
    /// in listings; both are accepted and normalised to `.`.
    fn quoted(&mut self) {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut content = String::new();
        loop {
            match self.bump() {
                Some(b'\'') => break,
                Some(c @ (b'0' | b'1' | b'*' | b'.')) => content.push(c as char),
                Some(b'-') => content.push('.'),
                Some(other) => {
                    self.diags.error(
                        ErrorCode::LexBadQuoteChar,
                        format!(
                            "invalid character `{}` in bit literal (expected `0`, `1`, `*`, `.` or `-`)",
                            other as char
                        ),
                        Span::new(self.pos as u32 - 1, self.pos as u32),
                    );
                    // Keep the literal's length stable so later width
                    // checks do not cascade.
                    content.push('.');
                }
                None => {
                    self.diags.error(
                        ErrorCode::LexUnterminatedQuote,
                        "unterminated bit literal",
                        self.span_from(start),
                    );
                    break;
                }
            }
        }
        self.push(TokenKind::Quoted(content), start);
    }

    fn number(&mut self) {
        let start = self.pos;
        let radix = if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X'))
        {
            self.pos += 2;
            16
        } else if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'b') | Some(b'B')) {
            self.pos += 2;
            2
        } else {
            10
        };
        let digits_start = self.pos;
        while let Some(b) = self.peek() {
            let ok = match radix {
                16 => b.is_ascii_hexdigit(),
                2 => b == b'0' || b == b'1',
                _ => b.is_ascii_digit(),
            };
            // Also swallow decimal digits in binary literals so `0b12`
            // is one bad token, not `0b1` followed by `2`.
            if ok || (radix == 2 && b.is_ascii_digit()) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let digits = &self.src[digits_start..self.pos];
        if digits.is_empty() {
            self.diags.error(
                ErrorCode::LexBadInt,
                "integer literal with no digits",
                self.span_from(start),
            );
            self.push(TokenKind::Int(0), start);
            return;
        }
        match u64::from_str_radix(digits, radix) {
            Ok(v) => self.push(TokenKind::Int(v), start),
            Err(_) => {
                let code = if digits.chars().all(|c| c.is_digit(radix)) {
                    ErrorCode::LexIntOverflow
                } else {
                    ErrorCode::LexBadInt
                };
                self.diags.error(
                    code,
                    format!("invalid integer literal `{digits}`"),
                    self.span_from(start),
                );
                self.push(TokenKind::Int(0), start);
            }
        }
    }

    fn ident(&mut self) {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let kind = match Keyword::from_str(text) {
            Some(kw) => TokenKind::Kw(kw),
            None => TokenKind::Ident(text.to_string()),
        };
        self.push(kind, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Keyword as K;

    fn lex_ok(src: &str) -> Vec<TokenKind> {
        let mut diags = DiagSink::new();
        let toks = lex(src, &mut diags);
        assert!(!diags.has_errors(), "unexpected lex errors: {:?}", diags.all());
        toks.into_iter().map(|t| t.kind).collect()
    }

    fn lex_err(src: &str) -> (Vec<TokenKind>, DiagSink) {
        let mut diags = DiagSink::new();
        let toks = lex(src, &mut diags);
        (toks.into_iter().map(|t| t.kind).collect(), diags)
    }

    #[test]
    fn lexes_paper_register_line() {
        // Line 4 of the paper's Figure 1.
        let toks = lex_ok("register sig_reg = base @ 1 : bit[8];");
        assert_eq!(
            toks,
            vec![
                TokenKind::Kw(K::Register),
                TokenKind::Ident("sig_reg".into()),
                TokenKind::Eq,
                TokenKind::Ident("base".into()),
                TokenKind::At,
                TokenKind::Int(1),
                TokenKind::Colon,
                TokenKind::Kw(K::Bit),
                TokenKind::LBracket,
                TokenKind::Int(8),
                TokenKind::RBracket,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_masks_and_arrows() {
        let toks = lex_ok("mask '1001000.' => <= <=> == != #");
        assert_eq!(
            toks,
            vec![
                TokenKind::Kw(K::Mask),
                TokenKind::Quoted("1001000.".into()),
                TokenKind::FatArrow,
                TokenKind::ReadArrow,
                TokenKind::BothArrow,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Hash,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dash_normalises_to_dot_in_quotes() {
        let toks = lex_ok("'1--*'");
        assert_eq!(toks[0], TokenKind::Quoted("1..*".into()));
    }

    #[test]
    fn lexes_numbers_in_three_bases() {
        let toks = lex_ok("23 0x3c 0b101 0XFF");
        assert_eq!(
            toks,
            vec![
                TokenKind::Int(23),
                TokenKind::Int(0x3c),
                TokenKind::Int(5),
                TokenKind::Int(0xff),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex_ok("// Signature register (SR)\nregister /* inline /* nested */ ok */ r");
        assert_eq!(
            toks,
            vec![TokenKind::Kw(K::Register), TokenKind::Ident("r".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn ranges_and_bit_lists() {
        let toks = lex_ok("x_high[3..0] # x_low[3..0] I23[2,7..4]");
        assert!(toks.contains(&TokenKind::DotDot));
        assert!(toks.contains(&TokenKind::Hash));
        assert!(toks.contains(&TokenKind::Comma));
    }

    #[test]
    fn error_unknown_char() {
        let (toks, diags) = lex_err("register $r;");
        assert!(diags.has_code(ErrorCode::LexUnknownChar));
        // Lexing continues after the bad character.
        assert!(toks.contains(&TokenKind::Ident("r".into())));
    }

    #[test]
    fn error_unterminated_quote() {
        let (_, diags) = lex_err("'101");
        assert!(diags.has_code(ErrorCode::LexUnterminatedQuote));
    }

    #[test]
    fn error_bad_quote_char() {
        let (toks, diags) = lex_err("'1x0'");
        assert!(diags.has_code(ErrorCode::LexBadQuoteChar));
        // Length is preserved so downstream width checks stay sane.
        assert_eq!(toks[0], TokenKind::Quoted("1.0".into()));
    }

    #[test]
    fn error_unterminated_comment() {
        let (_, diags) = lex_err("/* no end");
        assert!(diags.has_code(ErrorCode::LexUnterminatedComment));
    }

    #[test]
    fn error_empty_hex() {
        let (toks, diags) = lex_err("0x;");
        assert!(diags.has_code(ErrorCode::LexBadInt));
        assert_eq!(toks[0], TokenKind::Int(0));
    }

    #[test]
    fn error_overflowing_int() {
        let (_, diags) = lex_err("99999999999999999999999999");
        assert!(diags.has_code(ErrorCode::LexIntOverflow));
    }

    #[test]
    fn stray_single_punctuation_reported() {
        for (src, _desc) in [("a . b", "dot"), ("a & b", "amp"), ("a | b", "pipe"), ("a < b", "lt")]
        {
            let (_, diags) = lex_err(src);
            assert!(diags.has_code(ErrorCode::LexUnknownChar), "no error for {src:?}");
        }
    }

    #[test]
    fn not_token_lexes() {
        let toks = lex_ok("!x != y");
        assert_eq!(toks[0], TokenKind::Not);
        assert_eq!(toks[2], TokenKind::NotEq);
    }

    #[test]
    fn spans_are_correct() {
        let mut diags = DiagSink::new();
        let toks = lex("  device  mouse", &mut diags);
        assert_eq!(toks[0].span, Span::new(2, 8));
        assert_eq!(toks[1].span, Span::new(10, 15));
        assert_eq!(toks[2].span, Span::new(15, 15)); // Eof
    }

    #[test]
    fn empty_input_yields_only_eof() {
        let toks = lex_ok("");
        assert_eq!(toks, vec![TokenKind::Eof]);
    }

    #[test]
    fn keywords_and_idents_distinguished() {
        let toks = lex_ok("device devices DEVICE");
        assert_eq!(toks[0], TokenKind::Kw(K::Device));
        assert_eq!(toks[1], TokenKind::Ident("devices".into()));
        assert_eq!(toks[2], TokenKind::Ident("DEVICE".into()));
    }
}
