//! Token definitions for the Devil language.
//!
//! Tokens carry no text: an identifier or bit literal is a kind and a
//! [`Span`], and its text is the spanned slice of the source it was
//! lexed from ([`Token::text`], [`Token::bits`]). So a [`Token`] is
//! `Copy`, and lexing allocates nothing per token.

use crate::span::Span;
use std::borrow::Cow;

/// Keywords of the Devil language.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Keyword {
    Device,
    Register,
    Variable,
    Structure,
    Private,
    Volatile,
    Trigger,
    Except,
    For,
    Serialized,
    As,
    If,
    Else,
    Mask,
    Pre,
    Post,
    Set,
    Read,
    Write,
    Bit,
    Port,
    Int,
    Signed,
    Bool,
    Block,
    True,
    False,
    Type,
    Import,
}

impl Keyword {
    /// Looks an identifier up in the keyword table.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "device" => Device,
            "register" => Register,
            "variable" => Variable,
            "structure" => Structure,
            "private" => Private,
            "volatile" => Volatile,
            "trigger" => Trigger,
            "except" => Except,
            "for" => For,
            "serialized" => Serialized,
            "as" => As,
            "if" => If,
            "else" => Else,
            "mask" => Mask,
            "pre" => Pre,
            "post" => Post,
            "set" => Set,
            "read" => Read,
            "write" => Write,
            "bit" => Bit,
            "port" => Port,
            "int" => Int,
            "signed" => Signed,
            "bool" => Bool,
            "block" => Block,
            "true" => True,
            "false" => False,
            "type" => Type,
            "import" => Import,
            _ => return None,
        })
    }

    /// The source spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Device => "device",
            Register => "register",
            Variable => "variable",
            Structure => "structure",
            Private => "private",
            Volatile => "volatile",
            Trigger => "trigger",
            Except => "except",
            For => "for",
            Serialized => "serialized",
            As => "as",
            If => "if",
            Else => "else",
            Mask => "mask",
            Pre => "pre",
            Post => "post",
            Set => "set",
            Read => "read",
            Write => "write",
            Bit => "bit",
            Port => "port",
            Int => "int",
            Signed => "signed",
            Bool => "bool",
            Block => "block",
            True => "true",
            False => "false",
            Type => "type",
            Import => "import",
        }
    }
}

/// The kind (and payload) of a single token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// An identifier that is not a keyword; its text is the token's
    /// span.
    Ident,
    /// A reserved word.
    Kw(Keyword),
    /// An integer literal (decimal, `0x` hex, or `0b` binary).
    Int(u64),
    /// A quoted bit/mask literal such as `'1001000.'`, quotes included
    /// in its span; [`Token::bits`] gives the characters between them.
    Quoted,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `@`
    At,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `#`
    Hash,
    /// `..`
    DotDot,
    /// `=>`
    FatArrow,
    /// `<=`
    ReadArrow,
    /// `<=>`
    BothArrow,
    /// `*`
    Star,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
    /// End of input.
    Eof,
}

/// A token with its source span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// The token's text in `src`, the source it was lexed from.
    pub fn text(self, src: &str) -> &str {
        self.span.slice(src)
    }

    /// The characters between a bit literal's quotes, with `-` and
    /// invalid bytes normalised to `.` (the lexer reports the invalid
    /// ones). Borrowed from `src` unless a byte needed normalising.
    pub fn bits(self, src: &str) -> Cow<'_, str> {
        let text = self.text(src);
        // An unterminated literal runs to the end of input and has no
        // closing quote; a terminated one cannot contain a quote.
        let inner = text[1..].strip_suffix('\'').unwrap_or(&text[1..]);
        if inner.bytes().all(|b| matches!(b, b'0' | b'1' | b'*' | b'.')) {
            return Cow::Borrowed(inner);
        }
        let normalised = inner
            .bytes()
            .map(|b| match b {
                b'0' | b'1' | b'*' => b as char,
                _ => '.',
            })
            .collect();
        Cow::Owned(normalised)
    }

    /// A short human-readable description used in parse errors.
    pub fn describe(self, src: &str) -> String {
        match self.kind {
            TokenKind::Ident => format!("identifier `{}`", self.text(src)),
            TokenKind::Kw(k) => format!("keyword `{}`", k.as_str()),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Quoted => format!("bit literal `'{}'`", self.bits(src)),
            TokenKind::Eof => "end of input".to_string(),
            // Punctuation: the span holds exactly its spelling.
            _ => format!("`{}`", self.text(src)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Device,
            Keyword::Register,
            Keyword::Variable,
            Keyword::Structure,
            Keyword::Private,
            Keyword::Volatile,
            Keyword::Trigger,
            Keyword::Except,
            Keyword::For,
            Keyword::Serialized,
            Keyword::As,
            Keyword::If,
            Keyword::Else,
            Keyword::Mask,
            Keyword::Pre,
            Keyword::Post,
            Keyword::Set,
            Keyword::Read,
            Keyword::Write,
            Keyword::Bit,
            Keyword::Port,
            Keyword::Int,
            Keyword::Signed,
            Keyword::Bool,
            Keyword::Block,
            Keyword::True,
            Keyword::False,
            Keyword::Type,
            Keyword::Import,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_str("notakeyword"), None);
        assert_eq!(Keyword::from_str("Device"), None, "keywords are case sensitive");
    }

    #[test]
    fn describe_is_human_readable() {
        let src = "dx register '1-.0' <=>";
        let toks = crate::lexer::lex(src, &mut crate::DiagSink::new());
        let described: Vec<String> = toks.iter().map(|t| t.describe(src)).collect();
        assert_eq!(
            described,
            [
                "identifier `dx`",
                "keyword `register`",
                "bit literal `'1..0'`",
                "`<=>`",
                "end of input",
            ]
        );
    }

    #[test]
    fn tokens_are_small_and_bits_borrow_unless_normalised() {
        assert_eq!(std::mem::size_of::<Token>(), 24);
        let src = "'10*.' '1-x' '01";
        let toks = crate::lexer::lex(src, &mut crate::DiagSink::new());
        assert!(matches!(toks[0].bits(src), Cow::Borrowed("10*.")));
        assert!(matches!(toks[1].bits(src), Cow::Owned(ref s) if s == "1.."));
        assert!(matches!(toks[2].bits(src), Cow::Borrowed("01")), "unterminated");
    }
}
