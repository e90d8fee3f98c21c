//! Recursive-descent parser for Devil specifications.
//!
//! The parser consumes the token stream produced by [`crate::lexer`] and
//! builds the [`crate::ast`] tree. It recovers from errors at declaration
//! granularity: a malformed declaration is reported and skipped up to the
//! next `;` (or balanced brace), so one mistake yields one diagnostic —
//! a property the mutation-analysis harness relies on.

use crate::ast::*;
use crate::diag::{DiagSink, ErrorCode};
use crate::lexer;
use crate::span::Span;
use crate::token::{Keyword as K, Token, TokenKind as T};

/// Parses a full specification (one `device` declaration).
///
/// Returns the device if one could be built, plus all diagnostics. A
/// device may be returned even when errors were reported (best-effort
/// tree for tooling); callers that need validity must consult the sink.
pub fn parse(src: &str) -> (Option<Device>, DiagSink) {
    let mut diags = DiagSink::new();
    let tokens = lexer::lex(src, &mut diags);
    let mut parser = Parser::new(tokens, &mut diags);
    let device = parser.device();
    if let Some(_d) = &device {
        parser.eat_semi_opt();
        if !parser.at_eof() {
            let sp = parser.peek_span();
            parser.diags.error(
                ErrorCode::ParseTrailing,
                "unexpected input after device declaration",
                sp,
            );
        }
    }
    (device, diags)
}

struct Parser<'d> {
    tokens: Vec<Token>,
    pos: usize,
    diags: &'d mut DiagSink,
}

impl<'d> Parser<'d> {
    fn new(tokens: Vec<Token>, diags: &'d mut DiagSink) -> Self {
        Parser { tokens, pos: 0, diags }
    }

    // ---- token helpers ----

    fn peek(&self) -> &T {
        &self.tokens[self.pos].kind
    }

    fn peek_ahead(&self, n: usize) -> &T {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), T::Eof)
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Consumes the current token and moves its owned text out. The
    /// parser never moves backwards, so the emptied token is not read
    /// again.
    fn take_text(&mut self) -> (String, Span) {
        let tok = &mut self.tokens[self.pos];
        let (T::Ident(text) | T::Quoted(text)) = &mut tok.kind else {
            unreachable!("callers take text only from identifiers and bit literals")
        };
        let text = std::mem::take(text);
        let span = tok.span;
        self.bump();
        (text, span)
    }

    fn at(&self, kind: &T) -> bool {
        self.peek() == kind
    }

    fn at_kw(&self, kw: K) -> bool {
        matches!(self.peek(), T::Kw(k) if *k == kw)
    }

    fn eat(&mut self, kind: &T) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: K) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Reports `expected {what}, found …` at the current token; always
    /// `None`, so a failed alternative can return it directly.
    fn expected<R>(&mut self, what: &str) -> Option<R> {
        let (found, span) = (self.peek().describe(), self.peek_span());
        // `concat` sizes the message exactly: one allocation, no regrowth.
        let message = ["expected ", what, ", found ", &found].concat();
        self.diags.error(ErrorCode::ParseExpected, message, span);
        None
    }

    fn expect(&mut self, kind: &T, what: &str) -> bool {
        if self.eat(kind) {
            true
        } else {
            self.expected::<()>(what);
            false
        }
    }

    fn expect_kw(&mut self, kw: K, what: &str) -> bool {
        if self.eat_kw(kw) {
            true
        } else {
            self.expected::<()>(what);
            false
        }
    }

    fn ident(&mut self, what: &str) -> Option<Ident> {
        if let T::Ident(_) = self.peek() {
            let (name, span) = self.take_text();
            Some(Ident::new(name, span))
        } else {
            self.expected(what)
        }
    }

    fn int(&mut self, what: &str) -> Option<(u64, Span)> {
        if let T::Int(v) = self.peek() {
            let v = *v;
            let span = self.peek_span();
            self.bump();
            Some((v, span))
        } else {
            self.expected(what)
        }
    }

    fn eat_semi_opt(&mut self) {
        while self.eat(&T::Semi) {}
    }

    /// Skips tokens until after the next `;` at brace depth 0, or until a
    /// `}` at depth 0 (left for the caller), for declaration-level
    /// recovery.
    fn recover_to_semi(&mut self) {
        let mut depth = 0i32;
        loop {
            match self.peek() {
                T::Eof => return,
                T::LBrace => {
                    depth += 1;
                    self.bump();
                }
                T::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                T::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- grammar ----

    /// `device NAME ( params ) { decls }`
    fn device(&mut self) -> Option<Device> {
        let start = self.peek_span();
        if !self.expect_kw(K::Device, "`device`") {
            return None;
        }
        let name = self.ident("device name")?;
        self.expect(&T::LParen, "`(`");
        let mut params = Vec::new();
        if !self.at(&T::RParen) {
            loop {
                if let Some(p) = self.param() {
                    params.push(p);
                }
                if !self.eat(&T::Comma) {
                    break;
                }
            }
        }
        self.expect(&T::RParen, "`)`");
        self.expect(&T::LBrace, "`{`");
        let decls = self.decls_until_rbrace();
        self.expect(&T::RBrace, "`}`");
        let span = start.to(self.prev_span());
        Some(Device { name, params, decls, span })
    }

    /// `name : bit[8] port @ {0..3}` or `name : int(2)`
    fn param(&mut self) -> Option<Param> {
        let name = self.ident("parameter name")?;
        self.expect(&T::Colon, "`:`");
        if self.at_kw(K::Bit) {
            let start = self.peek_span();
            self.bump();
            self.expect(&T::LBracket, "`[`");
            let (width, wspan) = self.int("port width")?;
            if width == 0 || width > 64 {
                self.diags.error(
                    ErrorCode::ParseIntRange,
                    format!("port width must be between 1 and 64 bits, got {width}"),
                    wspan,
                );
            }
            self.expect(&T::RBracket, "`]`");
            self.expect_kw(K::Port, "`port`");
            self.expect(&T::At, "`@`");
            let range = self.braced_int_set()?;
            let span = name.span.to(start.to(self.prev_span()));
            Some(Param { name, kind: ParamKind::Port { width: width as u32, range }, span })
        } else {
            let ty = self.ty()?;
            let span = name.span.to(ty.span);
            Some(Param { name, kind: ParamKind::Int { ty }, span })
        }
    }

    /// `{ 0..3, 7 }` — an integer set in braces (low..high order).
    fn braced_int_set(&mut self) -> Option<IntSet> {
        let start = self.peek_span();
        self.expect(&T::LBrace, "`{`");
        let mut items = Vec::new();
        if !self.at(&T::RBrace) {
            loop {
                let (lo, lospan) = self.int("integer")?;
                if self.eat(&T::DotDot) {
                    let (hi, hispan) = self.int("range end")?;
                    if hi < lo {
                        self.diags.error(
                            ErrorCode::ParseReversedRange,
                            format!("integer range `{lo}..{hi}` is reversed (sets are written low..high)"),
                            lospan.to(hispan),
                        );
                        items.push(IntSetItem::Range(hi, lo));
                    } else {
                        items.push(IntSetItem::Range(lo, hi));
                    }
                } else {
                    items.push(IntSetItem::Single(lo));
                }
                if !self.eat(&T::Comma) {
                    break;
                }
            }
        }
        self.expect(&T::RBrace, "`}`");
        let span = start.to(self.prev_span());
        if items.is_empty() {
            self.diags.error(ErrorCode::ParseEmpty, "integer set must not be empty", span);
        }
        Some(IntSet { items, span })
    }

    fn decls_until_rbrace(&mut self) -> Vec<Decl> {
        let mut decls = Vec::new();
        loop {
            self.eat_semi_opt();
            if self.at(&T::RBrace) || self.at_eof() {
                break;
            }
            let before = self.pos;
            match self.decl() {
                Some(d) => decls.push(d),
                None => {
                    // Ensure forward progress before recovering.
                    if self.pos == before {
                        self.bump();
                    }
                    self.recover_to_semi();
                }
            }
        }
        decls
    }

    fn decl(&mut self) -> Option<Decl> {
        match self.peek() {
            T::Kw(K::Register) => self.register_decl().map(Decl::Register),
            T::Kw(K::Private) | T::Kw(K::Variable) => self.variable_decl().map(Decl::Variable),
            T::Kw(K::Structure) => self.structure_decl().map(Decl::Structure),
            T::Kw(K::Type) => self.type_def().map(Decl::TypeDef),
            T::Kw(K::If) => self.cond_decl().map(Decl::Cond),
            _ => {
                let sp = self.peek_span();
                let found = self.peek().describe();
                self.diags.error(
                    ErrorCode::ParseExpectedDecl,
                    format!("expected a declaration (`register`, `variable`, `structure`, `type` or `if`), found {found}"),
                    sp,
                );
                None
            }
        }
    }

    /// `register NAME(params)? = spec (, attr)* (: bit[n])? ;`
    fn register_decl(&mut self) -> Option<RegisterDecl> {
        let start = self.peek_span();
        self.expect_kw(K::Register, "`register`");
        let name = self.ident("register name")?;
        let params = self.opt_family_params()?;
        self.expect(&T::Eq, "`=`");
        let spec = self.reg_spec()?;
        let mut attrs = Vec::new();
        while self.eat(&T::Comma) {
            attrs.push(self.reg_attr()?);
        }
        let size = if self.eat(&T::Colon) {
            self.expect_kw(K::Bit, "`bit`");
            self.expect(&T::LBracket, "`[`");
            let (n, nspan) = self.int("register size")?;
            if n == 0 || n > 64 {
                self.diags.error(
                    ErrorCode::ParseIntRange,
                    format!("register size must be between 1 and 64 bits, got {n}"),
                    nspan,
                );
            }
            self.expect(&T::RBracket, "`]`");
            Some((n as u32, nspan))
        } else {
            None
        };
        self.expect(&T::Semi, "`;`");
        let span = start.to(self.prev_span());
        Some(RegisterDecl { name, params, spec, attrs, size, span })
    }

    /// Optional `(i : int{0..31}, ...)` family parameter list.
    fn opt_family_params(&mut self) -> Option<Vec<RegParam>> {
        let mut params = Vec::new();
        if self.eat(&T::LParen) {
            loop {
                let name = self.ident("parameter name")?;
                self.expect(&T::Colon, "`:`");
                let ty = self.ty()?;
                let span = name.span.to(ty.span);
                params.push(RegParam { name, ty, span });
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(&T::RParen, "`)`");
        }
        Some(params)
    }

    /// `base @ 1` / `read base @ 0` / `read p0 write p1` / `I(23)`.
    fn reg_spec(&mut self) -> Option<RegSpec> {
        if self.at_kw(K::Read) {
            self.bump();
            let read = self.port_expr()?;
            if self.at_kw(K::Write) {
                self.bump();
                let write = self.port_expr()?;
                return Some(RegSpec::Ports { read, write });
            }
            return Some(RegSpec::Port { mode: Some(Mode::Read), port: read });
        }
        if self.at_kw(K::Write) {
            self.bump();
            let port = self.port_expr()?;
            return Some(RegSpec::Port { mode: Some(Mode::Write), port });
        }
        // `I(23)` instantiation vs plain port binding: both start with an
        // identifier; a following `(` means instantiation.
        if matches!(self.peek(), T::Ident(_)) && matches!(self.peek_ahead(1), T::LParen) {
            let family = self.ident("register family name")?;
            self.expect(&T::LParen, "`(`");
            let mut args = Vec::new();
            loop {
                args.push(self.expr()?);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(&T::RParen, "`)`");
            return Some(RegSpec::Instance { family, args });
        }
        let port = self.port_expr()?;
        Some(RegSpec::Port { mode: None, port })
    }

    /// `base @ 1` or bare `data`; the offset may be a family parameter.
    fn port_expr(&mut self) -> Option<PortExpr> {
        let base = self.ident("port name")?;
        let mut span = base.span;
        let offset = if self.eat(&T::At) {
            let off = match self.peek() {
                T::Int(v) => {
                    let v = *v;
                    let s = self.peek_span();
                    self.bump();
                    OffsetExpr::Int(v, s)
                }
                T::Ident(_) => OffsetExpr::Param(self.ident("offset")?),
                _ => {
                    return self.expected("port offset (integer or parameter)");
                }
            };
            span = span.to(off.span());
            Some(off)
        } else {
            None
        };
        Some(PortExpr { base, offset, span })
    }

    fn reg_attr(&mut self) -> Option<RegAttr> {
        match self.peek() {
            T::Kw(K::Mask) => {
                self.bump();
                let (text, span) = self.quoted("mask literal")?;
                let bits = text
                    .chars()
                    .map(|c| MaskBit::from_char(c).expect("lexer guarantees mask characters"))
                    .collect();
                Some(RegAttr::Mask(BitMask { bits, span }))
            }
            T::Kw(K::Pre) => {
                self.bump();
                self.action_block().map(RegAttr::Pre)
            }
            T::Kw(K::Post) => {
                self.bump();
                self.action_block().map(RegAttr::Post)
            }
            T::Kw(K::Set) => {
                self.bump();
                self.action_block().map(RegAttr::Set)
            }
            _ => self.expected("register attribute (`mask`, `pre`, `post` or `set`)"),
        }
    }

    fn quoted(&mut self, what: &str) -> Option<(String, Span)> {
        if let T::Quoted(_) = self.peek() {
            Some(self.take_text())
        } else {
            self.expected(what)
        }
    }

    /// `{ target = value ; ... }` (trailing `;` optional).
    fn action_block(&mut self) -> Option<ActionBlock> {
        let start = self.peek_span();
        self.expect(&T::LBrace, "`{`");
        let mut stmts = Vec::new();
        while !self.at(&T::RBrace) && !self.at_eof() {
            let target = self.ident("action target")?;
            self.expect(&T::Eq, "`=`");
            let value = self.action_value()?;
            let span = target.span.to(value.span());
            stmts.push(ActionStmt { target, value, span });
            if !self.eat(&T::Semi) {
                break;
            }
        }
        self.expect(&T::RBrace, "`}`");
        let span = start.to(self.prev_span());
        Some(ActionBlock { stmts, span })
    }

    fn action_value(&mut self) -> Option<ActionValue> {
        match self.peek() {
            T::Int(v) => {
                let v = *v;
                let s = self.peek_span();
                self.bump();
                Some(ActionValue::Int(v, s))
            }
            T::Star => {
                let s = self.peek_span();
                self.bump();
                Some(ActionValue::Any(s))
            }
            T::Kw(K::True) => {
                let s = self.peek_span();
                self.bump();
                Some(ActionValue::Bool(true, s))
            }
            T::Kw(K::False) => {
                let s = self.peek_span();
                self.bump();
                Some(ActionValue::Bool(false, s))
            }
            T::Ident(_) => self.ident("value").map(ActionValue::Sym),
            T::LBrace => {
                let start = self.peek_span();
                self.bump();
                let mut fields = Vec::new();
                while !self.at(&T::RBrace) && !self.at_eof() {
                    let name = self.ident("field name")?;
                    self.expect(&T::FatArrow, "`=>`");
                    let value = self.action_value()?;
                    fields.push((name, value));
                    if !self.eat(&T::Semi) && !self.eat(&T::Comma) {
                        break;
                    }
                }
                self.expect(&T::RBrace, "`}`");
                Some(ActionValue::Struct(fields, start.to(self.prev_span())))
            }
            _ => self.expected("action value"),
        }
    }

    /// `private? variable NAME(params)? (= bitexpr)? (, attr)* (: type)?
    ///  (serialized as {...})? ;`
    fn variable_decl(&mut self) -> Option<VariableDecl> {
        let start = self.peek_span();
        let private = self.eat_kw(K::Private);
        self.expect_kw(K::Variable, "`variable`");
        let name = self.ident("variable name")?;
        let params = self.opt_family_params()?;
        let bits = if self.eat(&T::Eq) { Some(self.bit_expr()?) } else { None };
        let mut attrs = Vec::new();
        while self.eat(&T::Comma) {
            attrs.push(self.var_attr()?);
        }
        let ty = if self.eat(&T::Colon) { Some(self.ty()?) } else { None };
        let serialized = if self.at_kw(K::Serialized) {
            self.bump();
            self.expect_kw(K::As, "`as`");
            Some(self.ser_block()?)
        } else {
            None
        };
        self.expect(&T::Semi, "`;`");
        let span = start.to(self.prev_span());
        Some(VariableDecl { private, name, params, bits, attrs, ty, serialized, span })
    }

    /// `x_high[3..0] # x_low[3..0]`
    fn bit_expr(&mut self) -> Option<BitExpr> {
        let start = self.peek_span();
        let mut atoms = vec![self.bit_atom()?];
        while self.eat(&T::Hash) {
            atoms.push(self.bit_atom()?);
        }
        let span = start.to(self.prev_span());
        Some(BitExpr { atoms, span })
    }

    /// `reg`, `reg[6..5]`, `reg[2,7..4]`, `fam(i)[3..0]`
    fn bit_atom(&mut self) -> Option<BitAtom> {
        let reg = self.ident("register name")?;
        let mut span = reg.span;
        let mut args = Vec::new();
        if self.eat(&T::LParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(&T::RParen, "`)`");
            span = span.to(self.prev_span());
        }
        let mut ranges = Vec::new();
        if self.eat(&T::LBracket) {
            loop {
                ranges.push(self.bit_range()?);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(&T::RBracket, "`]`");
            span = span.to(self.prev_span());
        }
        Some(BitAtom { reg, args, ranges, span })
    }

    /// `6..5` (high..low) or a single bit `3`.
    fn bit_range(&mut self) -> Option<BitRange> {
        let (first, fspan) = self.int("bit index")?;
        if self.eat(&T::DotDot) {
            let (second, sspan) = self.int("bit index")?;
            let span = fspan.to(sspan);
            if second > first {
                self.diags.error(
                    ErrorCode::ParseReversedRange,
                    format!("bit range `{first}..{second}` is reversed (bit ranges are written high..low)"),
                    span,
                );
                return Some(BitRange { hi: second as u32, lo: first as u32, span });
            }
            Some(BitRange { hi: first as u32, lo: second as u32, span })
        } else {
            Some(BitRange { hi: first as u32, lo: first as u32, span: fspan })
        }
    }

    fn var_attr(&mut self) -> Option<VarAttr> {
        let start = self.peek_span();
        match self.peek() {
            T::Kw(K::Volatile) => {
                self.bump();
                Some(VarAttr::Volatile(start))
            }
            T::Kw(K::Block) => {
                self.bump();
                Some(VarAttr::Block(start))
            }
            T::Kw(K::Set) => {
                self.bump();
                self.action_block().map(VarAttr::Set)
            }
            T::Kw(K::Read) | T::Kw(K::Write) | T::Kw(K::Trigger) => {
                let mode = if self.eat_kw(K::Read) {
                    Some(Mode::Read)
                } else if self.eat_kw(K::Write) {
                    Some(Mode::Write)
                } else {
                    None
                };
                self.expect_kw(K::Trigger, "`trigger`");
                let exception = if self.eat_kw(K::Except) {
                    Some(TriggerException::Except(self.ident("neutral value name")?))
                } else if self.eat_kw(K::For) {
                    Some(TriggerException::For(self.const_value()?))
                } else {
                    None
                };
                let span = start.to(self.prev_span());
                Some(VarAttr::Trigger { mode, exception, span })
            }
            _ => self.expected("variable attribute (`volatile`, `block`, `trigger` or `set`)"),
        }
    }

    fn const_value(&mut self) -> Option<ConstValue> {
        match self.peek() {
            T::Int(v) => {
                let v = *v;
                let s = self.peek_span();
                self.bump();
                Some(ConstValue::Int(v, s))
            }
            T::Kw(K::True) => {
                let s = self.peek_span();
                self.bump();
                Some(ConstValue::Bool(true, s))
            }
            T::Kw(K::False) => {
                let s = self.peek_span();
                self.bump();
                Some(ConstValue::Bool(false, s))
            }
            T::Quoted(_) => {
                let (q, s) = self.take_text();
                Some(ConstValue::Bits(q, s))
            }
            T::Ident(_) => self.ident("value").map(ConstValue::Sym),
            _ => self.expected("constant value"),
        }
    }

    /// `structure NAME = { fields } (serialized as {...})? ;`
    fn structure_decl(&mut self) -> Option<StructureDecl> {
        let start = self.peek_span();
        self.expect_kw(K::Structure, "`structure`");
        let name = self.ident("structure name")?;
        self.expect(&T::Eq, "`=`");
        self.expect(&T::LBrace, "`{`");
        let mut fields = Vec::new();
        loop {
            self.eat_semi_opt();
            if self.at(&T::RBrace) || self.at_eof() {
                break;
            }
            match self.variable_decl() {
                Some(v) => fields.push(v),
                None => {
                    self.recover_to_semi();
                }
            }
        }
        self.expect(&T::RBrace, "`}`");
        let serialized = if self.at_kw(K::Serialized) {
            self.bump();
            self.expect_kw(K::As, "`as`");
            Some(self.ser_block()?)
        } else {
            None
        };
        self.expect(&T::Semi, "`;`");
        let span = start.to(self.prev_span());
        Some(StructureDecl { name, fields, serialized, span })
    }

    /// `{ icw1; icw2; if (sngl == SINGLE) icw3; }`
    fn ser_block(&mut self) -> Option<SerBlock> {
        let start = self.peek_span();
        self.expect(&T::LBrace, "`{`");
        let mut items = Vec::new();
        while !self.at(&T::RBrace) && !self.at_eof() {
            items.push(self.ser_item()?);
        }
        self.expect(&T::RBrace, "`}`");
        let span = start.to(self.prev_span());
        if items.is_empty() {
            self.diags.error(ErrorCode::ParseEmpty, "serialization order must not be empty", span);
        }
        Some(SerBlock { items, span })
    }

    fn ser_item(&mut self) -> Option<SerItem> {
        if self.at_kw(K::If) {
            let start = self.peek_span();
            self.bump();
            self.expect(&T::LParen, "`(`");
            let cond = self.cond()?;
            self.expect(&T::RParen, "`)`");
            let then = Box::new(self.ser_item()?);
            let els = if self.eat_kw(K::Else) { Some(Box::new(self.ser_item()?)) } else { None };
            let span = start.to(self.prev_span());
            return Some(SerItem::If { cond, then, els, span });
        }
        if self.at(&T::LBrace) {
            let start = self.peek_span();
            self.bump();
            let mut items = Vec::new();
            while !self.at(&T::RBrace) && !self.at_eof() {
                items.push(self.ser_item()?);
            }
            self.expect(&T::RBrace, "`}`");
            return Some(SerItem::Block(items, start.to(self.prev_span())));
        }
        let reg = self.ident("register name")?;
        self.expect(&T::Semi, "`;`");
        Some(SerItem::Reg(reg))
    }

    /// `a == X && b != Y || !(c == Z)`
    fn cond(&mut self) -> Option<Cond> {
        let mut lhs = self.cond_and()?;
        while self.eat(&T::OrOr) {
            let rhs = self.cond_and()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Some(lhs)
    }

    fn cond_and(&mut self) -> Option<Cond> {
        let mut lhs = self.cond_unary()?;
        while self.eat(&T::AndAnd) {
            let rhs = self.cond_unary()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Some(lhs)
    }

    fn cond_unary(&mut self) -> Option<Cond> {
        if self.eat(&T::Not) {
            return Some(Cond::Not(Box::new(self.cond_unary()?)));
        }
        if self.eat(&T::LParen) {
            let c = self.cond()?;
            self.expect(&T::RParen, "`)`");
            return Some(c);
        }
        let lhs = self.ident("variable name")?;
        let op = if self.eat(&T::EqEq) {
            CmpOp::Eq
        } else if self.eat(&T::NotEq) {
            CmpOp::Ne
        } else {
            return self.expected("`==` or `!=`");
        };
        let rhs = self.const_value()?;
        let span = lhs.span.to(rhs.span());
        Some(Cond::Cmp { lhs, op, rhs, span })
    }

    /// `type NAME = type ;`
    fn type_def(&mut self) -> Option<TypeDef> {
        let start = self.peek_span();
        self.expect_kw(K::Type, "`type`");
        let name = self.ident("type name")?;
        self.expect(&T::Eq, "`=`");
        let ty = self.ty()?;
        self.expect(&T::Semi, "`;`");
        let span = start.to(self.prev_span());
        Some(TypeDef { name, ty, span })
    }

    /// `if (cond) { decls } else { decls }` at declaration level.
    fn cond_decl(&mut self) -> Option<CondDecl> {
        let start = self.peek_span();
        self.expect_kw(K::If, "`if`");
        self.expect(&T::LParen, "`(`");
        let cond = self.cond()?;
        self.expect(&T::RParen, "`)`");
        self.expect(&T::LBrace, "`{`");
        let then = self.decls_until_rbrace();
        self.expect(&T::RBrace, "`}`");
        let els = if self.eat_kw(K::Else) {
            self.expect(&T::LBrace, "`{`");
            let e = self.decls_until_rbrace();
            self.expect(&T::RBrace, "`}`");
            e
        } else {
            Vec::new()
        };
        let span = start.to(self.prev_span());
        Some(CondDecl { cond, then, els, span })
    }

    /// Type expressions: `int(8)`, `signed int(8)`, `bool`,
    /// `int{0..31}`, inline enums, named types.
    fn ty(&mut self) -> Option<Type> {
        let start = self.peek_span();
        match self.peek() {
            T::Kw(K::Bool) => {
                self.bump();
                Some(Type { kind: TypeKind::Bool, span: start })
            }
            T::Kw(K::Signed) => {
                self.bump();
                self.expect_kw(K::Int, "`int`");
                self.expect(&T::LParen, "`(`");
                let (n, nspan) = self.int("bit width")?;
                if n == 0 || n > 64 {
                    self.diags.error(
                        ErrorCode::ParseIntRange,
                        format!("integer width must be between 1 and 64 bits, got {n}"),
                        nspan,
                    );
                }
                self.expect(&T::RParen, "`)`");
                Some(Type {
                    kind: TypeKind::SInt(n.clamp(1, 64) as u32),
                    span: start.to(self.prev_span()),
                })
            }
            T::Kw(K::Int) => {
                self.bump();
                if self.at(&T::LBrace) {
                    let set = self.braced_int_set()?;
                    Some(Type { kind: TypeKind::IntSet(set), span: start.to(self.prev_span()) })
                } else {
                    self.expect(&T::LParen, "`(`");
                    let (n, nspan) = self.int("bit width")?;
                    if n == 0 || n > 64 {
                        self.diags.error(
                            ErrorCode::ParseIntRange,
                            format!("integer width must be between 1 and 64 bits, got {n}"),
                            nspan,
                        );
                    }
                    self.expect(&T::RParen, "`)`");
                    Some(Type {
                        kind: TypeKind::UInt(n.clamp(1, 64) as u32),
                        span: start.to(self.prev_span()),
                    })
                }
            }
            T::LBrace => {
                let e = self.enum_type()?;
                let span = e.span;
                Some(Type { kind: TypeKind::Enum(e), span })
            }
            T::Ident(_) => {
                let name = self.ident("type name")?;
                let span = name.span;
                Some(Type { kind: TypeKind::Named(name), span })
            }
            _ => self.expected("a type"),
        }
    }

    /// `{ CONFIGURATION => '1', DEFAULT_MODE => '0' }`
    fn enum_type(&mut self) -> Option<EnumType> {
        let start = self.peek_span();
        self.expect(&T::LBrace, "`{`");
        let mut arms = Vec::new();
        while !self.at(&T::RBrace) && !self.at_eof() {
            let sym = self.ident("enum symbol")?;
            let dir = if self.eat(&T::FatArrow) {
                EnumDir::Write
            } else if self.eat(&T::ReadArrow) {
                EnumDir::Read
            } else if self.eat(&T::BothArrow) {
                EnumDir::Both
            } else {
                return self.expected("`=>`, `<=` or `<=>`");
            };
            let (pattern, pattern_span) = self.quoted("bit pattern")?;
            if pattern.chars().any(|c| c != '0' && c != '1') {
                self.diags.error(
                    ErrorCode::ParseExpected,
                    format!("enum bit pattern `'{pattern}'` must contain only `0` and `1`"),
                    pattern_span,
                );
            }
            let span = sym.span.to(pattern_span);
            arms.push(EnumArm { sym, dir, pattern, pattern_span, span });
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(&T::RBrace, "`}`");
        let span = start.to(self.prev_span());
        if arms.is_empty() {
            self.diags.error(
                ErrorCode::ParseEmpty,
                "enumerated type must have at least one arm",
                span,
            );
        }
        Some(EnumType { arms, span })
    }

    fn expr(&mut self) -> Option<Expr> {
        match self.peek() {
            T::Int(v) => {
                let v = *v;
                let s = self.peek_span();
                self.bump();
                Some(Expr::Int(v, s))
            }
            T::Ident(_) => self.ident("expression").map(Expr::Sym),
            _ => self.expected("an expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Device {
        let (dev, diags) = parse(src);
        assert!(!diags.has_errors(), "unexpected parse errors:\n{:#?}", diags.all());
        dev.expect("no device produced")
    }

    fn parse_err(src: &str) -> DiagSink {
        let (_, diags) = parse(src);
        assert!(diags.has_errors(), "expected parse errors for {src:?}");
        diags
    }

    /// The paper's Figure 1, verbatim modulo comment style.
    const BUSMOUSE: &str = r#"
device logitech_busmouse (base : bit[8] port @ {0..3})
{
  // Signature register (SR)
  register sig_reg = base @ 1 : bit[8];
  variable signature = sig_reg, volatile, write trigger : int(8);

  // Configuration register (CR)
  register cr = write base @ 3, mask '1001000.' : bit[8];
  variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };

  // Interrupt register
  register interrupt_reg = write base @ 2, mask '000.0000' : bit[8];
  variable interrupt = interrupt_reg[4] : { ENABLE => '0', DISABLE => '1' };

  // Index register
  register index_reg = write base @ 2, mask '1..00000' : bit[8];
  private variable index = index_reg[6..5] : int(2);

  register x_low  = read base @ 0, pre {index = 0}, mask '****....' : bit[8];
  register x_high = read base @ 0, pre {index = 1}, mask '****....' : bit[8];
  register y_low  = read base @ 0, pre {index = 2}, mask '****....' : bit[8];
  register y_high = read base @ 0, pre {index = 3}, mask '...*....' : bit[8];

  structure mouse_state = {
    variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
    variable dy = y_high[3..0] # y_low[3..0], volatile : signed int(8);
    variable buttons = y_high[7..5], volatile : int(3);
  };
}
"#;

    #[test]
    fn parses_figure_1_busmouse() {
        let dev = parse_ok(BUSMOUSE);
        assert_eq!(dev.name.name, "logitech_busmouse");
        assert_eq!(dev.params.len(), 1);
        match &dev.params[0].kind {
            ParamKind::Port { width, range } => {
                assert_eq!(*width, 8);
                assert!(range.contains(0) && range.contains(3) && !range.contains(4));
            }
            other => panic!("wrong param kind: {other:?}"),
        }
        // 8 registers + 4 variables + 1 structure = 13 decls.
        assert_eq!(dev.decls.len(), 13);
        let regs: Vec<_> = dev
            .decls
            .iter()
            .filter_map(|d| match d {
                Decl::Register(r) => Some(r.name.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            regs,
            ["sig_reg", "cr", "interrupt_reg", "index_reg", "x_low", "x_high", "y_low", "y_high"]
        );
        let st = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Structure(s) => Some(s),
                _ => None,
            })
            .expect("mouse_state structure");
        assert_eq!(st.name.name, "mouse_state");
        assert_eq!(st.fields.len(), 3);
        let dx = &st.fields[0];
        assert_eq!(dx.name.name, "dx");
        let bits = dx.bits.as_ref().unwrap();
        assert_eq!(bits.atoms.len(), 2);
        assert_eq!(bits.atoms[0].reg.name, "x_high");
        assert_eq!(
            bits.atoms[0].ranges,
            vec![BitRange { hi: 3, lo: 0, span: bits.atoms[0].ranges[0].span }]
        );
        assert!(matches!(dx.ty.as_ref().unwrap().kind, TypeKind::SInt(8)));
    }

    #[test]
    fn parses_ne2000_trigger_fragment() {
        let dev = parse_ok(
            r#"device ne2000_frag (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL : { NEUTRAL => '00', START <=> '10' };
                 variable txp = cmd[2], write trigger except NOP : { NOP => '0', SEND <=> '1' };
                 variable rd = cmd[5..3], write trigger except NODMA : { NODMA => '100', RREAD <=> '001' };
                 private variable page = cmd[7..6] : int(2);
               }"#,
        );
        let st = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Variable(v) if v.name.name == "st" => Some(v),
                _ => None,
            })
            .unwrap();
        match &st.attrs[0] {
            VarAttr::Trigger { mode, exception, .. } => {
                assert_eq!(*mode, Some(Mode::Write));
                match exception {
                    Some(TriggerException::Except(id)) => assert_eq!(id.name, "NEUTRAL"),
                    other => panic!("wrong exception: {other:?}"),
                }
            }
            other => panic!("wrong attr: {other:?}"),
        }
    }

    #[test]
    fn parses_dma_serialized_variable() {
        let dev = parse_ok(
            r#"device dma_frag (data : bit[8] port @ {0..0}, ctl : bit[8] port @ {0..0}) {
                 private variable flip_flop = ff_reg : bool;
                 register ff_reg = write ctl @ 0 : bit[1];
                 register cnt_low = data @ 0, pre {flip_flop = *} : bit[8];
                 register cnt_high = data @ 0 : bit[8];
                 variable x = cnt_high # cnt_low : int(16)
                   serialized as {cnt_low; cnt_high;};
               }"#,
        );
        let x = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Variable(v) if v.name.name == "x" => Some(v),
                _ => None,
            })
            .unwrap();
        let ser = x.serialized.as_ref().expect("serialized block");
        assert_eq!(ser.items.len(), 2);
        assert!(matches!(&ser.items[0], SerItem::Reg(r) if r.name == "cnt_low"));
    }

    #[test]
    fn parses_8259_control_flow_serialization() {
        let dev = parse_ok(
            r#"device pic_frag (base : bit[8] port @ {0..1}) {
                 register icw1 = write base @ 0, mask '...1....' : bit[8];
                 register icw2 = write base @ 1 : bit[8];
                 register icw3 = write base @ 1 : bit[8];
                 register icw4 = write base @ 1, mask '000.....' : bit[8];
                 structure init = {
                   variable sngl = icw1[1] : { SINGLE => '1', CASCADED => '0' };
                   variable ic4 = icw1[0] : bool;
                   variable microprocessor = icw4[0] : { X8086 => '1', MCS80_85 => '0' };
                 } serialized as {
                   icw1;
                   icw2;
                   if (sngl == SINGLE) icw3;
                   if (ic4 == true) icw4;
                 };
               }"#,
        );
        let init = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Structure(s) => Some(s),
                _ => None,
            })
            .unwrap();
        let ser = init.serialized.as_ref().unwrap();
        assert_eq!(ser.items.len(), 4);
        match &ser.items[2] {
            SerItem::If { cond, then, els, .. } => {
                assert!(els.is_none());
                assert!(matches!(**then, SerItem::Reg(ref r) if r.name == "icw3"));
                match cond {
                    Cond::Cmp { lhs, op, rhs, .. } => {
                        assert_eq!(lhs.name, "sngl");
                        assert_eq!(*op, CmpOp::Eq);
                        assert!(matches!(rhs, ConstValue::Sym(s) if s.name == "SINGLE"));
                    }
                    other => panic!("wrong cond: {other:?}"),
                }
            }
            other => panic!("wrong item: {other:?}"),
        }
    }

    #[test]
    fn parses_cs4236b_automata_fragment() {
        let dev = parse_ok(
            r#"device cs_frag (base : bit[8] port @ {0..1}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 register I23 = I(23), mask '......0.';
                 variable ACF = I23[0] : bool;
                 structure XS = {
                   variable XA = I23[2,7..4] : int(5);
                   variable XRAE = I23[3], set {xm = XRAE}, write trigger for true : bool;
                 };
                 register X(j : int{0..17,25}) = base @ 1,
                   pre {XS = {XA => j; XRAE => true}} : bit[8];
               }"#,
        );
        // Family declaration.
        let fam = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Register(r) if r.name.name == "I" => Some(r),
                _ => None,
            })
            .unwrap();
        assert_eq!(fam.params.len(), 1);
        assert!(matches!(fam.params[0].ty.kind, TypeKind::IntSet(_)));
        // Instantiation without an explicit size.
        let inst = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Register(r) if r.name.name == "I23" => Some(r),
                _ => None,
            })
            .unwrap();
        assert!(inst.size.is_none());
        assert!(matches!(
            &inst.spec,
            RegSpec::Instance { family, args }
                if family.name == "I" && matches!(args[0], Expr::Int(23, _))
        ));
        // Multi-range bit list `[2,7..4]`.
        let xs = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Structure(s) => Some(s),
                _ => None,
            })
            .unwrap();
        let xa = &xs.fields[0];
        let ranges = &xa.bits.as_ref().unwrap().atoms[0].ranges;
        assert_eq!(ranges.len(), 2);
        assert_eq!((ranges[0].hi, ranges[0].lo), (2, 2));
        assert_eq!((ranges[1].hi, ranges[1].lo), (7, 4));
        // Structure-valued pre-action.
        let x = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Register(r) if r.name.name == "X" => Some(r),
                _ => None,
            })
            .unwrap();
        let pre = x
            .attrs
            .iter()
            .find_map(|a| match a {
                RegAttr::Pre(b) => Some(b),
                _ => None,
            })
            .unwrap();
        assert!(matches!(pre.stmts[0].value, ActionValue::Struct(ref f, _) if f.len() == 2));
    }

    #[test]
    fn parses_ide_block_variable() {
        let dev = parse_ok(
            r#"device ide_frag (ide : bit[16] port @ {0..7}) {
                 register ide_data = ide @ 0 : bit[16];
                 variable Ide_data = ide_data, trigger, volatile, block : int(16);
               }"#,
        );
        let v = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Variable(v) => Some(v),
                _ => None,
            })
            .unwrap();
        assert_eq!(v.attrs.len(), 3);
        assert!(matches!(v.attrs[0], VarAttr::Trigger { mode: None, exception: None, .. }));
        assert!(matches!(v.attrs[1], VarAttr::Volatile(_)));
        assert!(matches!(v.attrs[2], VarAttr::Block(_)));
    }

    #[test]
    fn parses_dual_port_register() {
        let dev = parse_ok(
            r#"device dp (a : bit[8] port @ {0..1}) {
                 register r = read a @ 0 write a @ 1 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let r = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Register(r) => Some(r),
                _ => None,
            })
            .unwrap();
        assert!(matches!(&r.spec, RegSpec::Ports { .. }));
    }

    #[test]
    fn parses_conditional_decls_and_named_types() {
        let dev = parse_ok(
            r#"device modal (base : bit[8] port @ {0..0}, mode : int(1)) {
                 type onoff = { ON <=> '1', OFF <=> '0' };
                 register r = base @ 0 : bit[8];
                 if (mode == 1) {
                   variable a = r[0] : onoff;
                 } else {
                   variable b = r[0] : bool;
                 }
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        let cond = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Cond(c) => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(cond.then.len(), 1);
        assert_eq!(cond.els.len(), 1);
        assert!(dev.decls.iter().any(|d| matches!(d, Decl::TypeDef(_))));
    }

    #[test]
    fn parses_param_offset_register() {
        let dev = parse_ok(
            r#"device po (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 register r0 = r(0);
                 variable v = r0 : int(8);
               }"#,
        );
        let fam = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Register(r) if r.name.name == "r" => Some(r),
                _ => None,
            })
            .unwrap();
        match &fam.spec {
            RegSpec::Port { port, .. } => {
                assert!(matches!(&port.offset, Some(OffsetExpr::Param(p)) if p.name == "i"));
            }
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn error_missing_semicolon_recovers() {
        let diags = parse_err(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8]
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::ParseExpected));
        // Exactly one error: recovery must not cascade.
        assert_eq!(diags.error_count(), 1, "{:#?}", diags.all());
    }

    #[test]
    fn error_reversed_bit_range() {
        let diags = parse_err(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[0..7] : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::ParseReversedRange));
    }

    #[test]
    fn error_reversed_int_set() {
        let diags = parse_err(r#"device d (base : bit[8] port @ {3..0}) {}"#);
        assert!(diags.has_code(ErrorCode::ParseReversedRange));
    }

    #[test]
    fn error_empty_enum() {
        let diags = parse_err(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : { };
               }"#,
        );
        assert!(diags.has_code(ErrorCode::ParseEmpty));
    }

    #[test]
    fn error_bad_register_size() {
        let diags = parse_err(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[0];
               }"#,
        );
        assert!(diags.has_code(ErrorCode::ParseIntRange));
    }

    #[test]
    fn error_trailing_input() {
        let diags = parse_err("device d (base : bit[8] port @ {0..0}) {} register");
        assert!(diags.has_code(ErrorCode::ParseTrailing));
    }

    #[test]
    fn error_enum_pattern_with_wildcard() {
        let diags = parse_err(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[0] : { A => '*' };
               }"#,
        );
        assert!(diags.has_code(ErrorCode::ParseExpected));
    }

    #[test]
    fn error_garbage_decl_recovers_once() {
        let diags = parse_err(
            r#"device d (base : bit[8] port @ {0..0}) {
                 bogus thing;
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert_eq!(diags.error_count(), 1, "{:#?}", diags.all());
        assert!(diags.has_code(ErrorCode::ParseExpectedDecl));
    }

    #[test]
    fn device_allows_trailing_semicolon() {
        parse_ok("device d (base : bit[8] port @ {0..0}) { register r = base @ 0 : bit[8]; variable v = r : int(8); };");
    }

    #[test]
    fn cond_operator_precedence() {
        let dev = parse_ok(
            r#"device d (base : bit[8] port @ {0..0}, m : int(2), n : int(2)) {
                 register r = base @ 0 : bit[8];
                 if (m == 0 && n == 1 || !(m != 2)) {
                   variable v = r : int(8);
                 } else {
                   variable w = r : int(8);
                 }
               }"#,
        );
        let cond = dev
            .decls
            .iter()
            .find_map(|d| match d {
                Decl::Cond(c) => Some(c),
                _ => None,
            })
            .unwrap();
        // `||` binds loosest: Or(And(..), Not(..)).
        match &cond.cond {
            Cond::Or(lhs, rhs) => {
                assert!(matches!(**lhs, Cond::And(_, _)));
                assert!(matches!(**rhs, Cond::Not(_)));
            }
            other => panic!("wrong precedence: {other:?}"),
        }
    }

    /// The parser moves identifier and bit-literal text out of the tokens
    /// it consumes. A malformed declaration followed by valid ones must
    /// still name the offending token, and nothing parsed after the
    /// recovery may come out empty.
    #[test]
    fn recovery_keeps_token_text() {
        let valid = "
            register ok = base @ 1, mask '****....' : bit[8];
            variable hi = ok[7..4] : { IDLE => '0001', BUSY <=> '0010' };
            variable trig = flag, write trigger for '1' : bool;
            register flag = write base @ 0, mask '0000000*' : bit[8];";
        let header = "device d (base : bit[8] port @ {0..1}) {";
        let broken = format!(
            "{header}
               register bad = base @ 0, foo : bit[8];
               register '101' = base @ 0 : bit[8];
               {valid}
             }}"
        );
        let (dev, diags) = parse(&broken);
        let messages: Vec<&str> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "expected register attribute (`mask`, `pre`, `post` or `set`), found identifier `foo`",
                "expected register name, found bit literal `'101'`",
            ]
        );
        let dev = dev.expect("recovery still yields the device");
        let clean = parse_ok(&format!("{header}{valid} }}"));
        assert_eq!(crate::pretty::print_device(&dev), crate::pretty::print_device(&clean));

        let [Decl::Register(ok), Decl::Variable(hi), Decl::Variable(trig), Decl::Register(flag)] =
            &dev.decls[..]
        else {
            panic!("wrong declarations: {:#?}", dev.decls);
        };
        assert_eq!((ok.name.name.as_str(), flag.name.name.as_str()), ("ok", "flag"));
        let RegSpec::Port { port, .. } = &ok.spec else { panic!("wrong spec: {:?}", ok.spec) };
        assert_eq!(port.base.name, "base");
        let RegAttr::Mask(mask) = &ok.attrs[0] else { panic!("wrong attr: {:?}", ok.attrs) };
        assert_eq!(mask.width(), 8);
        assert_eq!(hi.bits.as_ref().unwrap().atoms[0].reg.name, "ok");
        let Some(TypeKind::Enum(e)) = hi.ty.as_ref().map(|t| &t.kind) else {
            panic!("wrong type: {:?}", hi.ty)
        };
        let arms: Vec<(&str, &str)> =
            e.arms.iter().map(|a| (a.sym.name.as_str(), a.pattern.as_str())).collect();
        assert_eq!(arms, [("IDLE", "0001"), ("BUSY", "0010")]);
        let VarAttr::Trigger { exception: Some(TriggerException::For(value)), .. } = &trig.attrs[0]
        else {
            panic!("wrong attr: {:?}", trig.attrs)
        };
        assert!(matches!(value, ConstValue::Bits(b, _) if b == "1"), "{value:?}");
    }
}
