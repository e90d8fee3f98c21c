//! Abstract syntax tree for Devil specifications.
//!
//! The tree mirrors the concrete syntax closely (every node carries its
//! [`Span`]); all semantic interpretation — layout, typing, direction —
//! happens in `devil-sema`. Nodes are plain data so tests and the
//! mutation harness can construct or rewrite them freely.
//!
//! The tree borrows its names from the source it was parsed from: every
//! node carries that source's lifetime `'s`, an [`Ident`] is a `&'s str`
//! and a span, and a bit literal is a [`Cow`] that owns its text only
//! when the lexer's `-` → `.` normalisation changed it. Parsing therefore
//! allocates no string per name, and dropping the tree frees none.

use crate::span::Span;
#[cfg(doc)]
use crate::token::Token;
use std::borrow::Cow;
use std::fmt;

/// An identifier with its source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ident<'s> {
    /// The identifier text, borrowed from the source.
    pub name: &'s str,
    /// Source location.
    pub span: Span,
}

impl<'s> Ident<'s> {
    /// Creates an identifier (mostly for tests and synthesized nodes).
    pub fn new(name: &'s str, span: Span) -> Self {
        Ident { name, span }
    }
}

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// A complete Devil specification: one device declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Device<'s> {
    /// Device name, e.g. `logitech_busmouse`.
    pub name: Ident<'s>,
    /// Formal parameters (ports and integer mode parameters).
    pub params: Vec<Param<'s>>,
    /// Body declarations, in source order.
    pub decls: Vec<Decl<'s>>,
    /// Span of the whole declaration.
    pub span: Span,
}

/// A formal device parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param<'s> {
    /// Parameter name, e.g. `base`.
    pub name: Ident<'s>,
    /// What kind of parameter this is.
    pub kind: ParamKind<'s>,
    /// Span of the whole parameter.
    pub span: Span,
}

/// The kind of a device parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamKind<'s> {
    /// A ranged port: `base : bit[8] port @ {0..3}`.
    Port {
        /// Access width in bits (`bit[8]`).
        width: u32,
        /// Valid constant offsets (`{0..3}`).
        range: IntSet,
    },
    /// A constant configuration parameter: `mode : int(2)`. Used by
    /// conditional declarations (device modes).
    Int {
        /// The parameter's integer type.
        ty: Type<'s>,
    },
}

/// A top-level declaration inside a device body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decl<'s> {
    /// `register ... ;`
    Register(RegisterDecl<'s>),
    /// `variable ... ;` / `private variable ... ;`
    Variable(VariableDecl<'s>),
    /// `structure name = { ... } serialized as { ... };`
    Structure(StructureDecl<'s>),
    /// `type name = { A => '1', ... };`
    TypeDef(TypeDef<'s>),
    /// `if (mode == 1) { ... } else { ... }` — conditional declarations
    /// keyed on constant device parameters.
    Cond(CondDecl<'s>),
}

impl<'s> Decl<'s> {
    /// The span of the declaration.
    pub fn span(&self) -> Span {
        match self {
            Decl::Register(r) => r.span,
            Decl::Variable(v) => v.span,
            Decl::Structure(s) => s.span,
            Decl::TypeDef(t) => t.span,
            Decl::Cond(c) => c.span,
        }
    }
}

/// Read/write direction keyword.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `read`
    Read,
    /// `write`
    Write,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Read => write!(f, "read"),
            Mode::Write => write!(f, "write"),
        }
    }
}

/// A register declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterDecl<'s> {
    /// Register name.
    pub name: Ident<'s>,
    /// Formal parameters when declaring a register family, e.g.
    /// `register I(i : int{0..31}) = ...`.
    pub params: Vec<RegParam<'s>>,
    /// Where the register lives (port binding or family instantiation).
    pub spec: RegSpec<'s>,
    /// Attributes: masks and pre/post/set action blocks.
    pub attrs: Vec<RegAttr<'s>>,
    /// Declared size `bit[n]`. Optional for family instantiations,
    /// which inherit the family's size.
    pub size: Option<(u32, Span)>,
    /// Span of the declaration.
    pub span: Span,
}

/// A formal parameter of a register (or variable) family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegParam<'s> {
    /// Parameter name, e.g. `i`.
    pub name: Ident<'s>,
    /// Its integer type (typically a value set `int{0..31}`).
    pub ty: Type<'s>,
    /// Span of the parameter.
    pub span: Span,
}

/// The location part of a register declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegSpec<'s> {
    /// A single-port binding, optionally restricted to one direction:
    /// `base @ 1`, `read base @ 0`, `write base @ 3`.
    Port {
        /// Direction restriction; `None` means read-write.
        mode: Option<Mode>,
        /// The bound port.
        port: PortExpr<'s>,
    },
    /// A dual-port binding: `read base @ 0 write base @ 1` — the paper's
    /// "registers are typically defined using two ports".
    Ports {
        /// Port used for reads.
        read: PortExpr<'s>,
        /// Port used for writes.
        write: PortExpr<'s>,
    },
    /// Instantiation of a register family: `I(23)`.
    Instance {
        /// Family name.
        family: Ident<'s>,
        /// Actual arguments.
        args: Vec<Expr<'s>>,
    },
}

/// A port expression `base @ 3` (offset optional: plain `data`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortExpr<'s> {
    /// The port parameter being offset.
    pub base: Ident<'s>,
    /// The constant offset, if any.
    pub offset: Option<OffsetExpr<'s>>,
    /// Span of the expression.
    pub span: Span,
}

/// A constant offset in a port expression. Either a literal or a
/// reference to a register-family parameter (`base @ i`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OffsetExpr<'s> {
    /// Literal offset.
    Int(u64, Span),
    /// Family-parameter offset.
    Param(Ident<'s>),
}

impl<'s> OffsetExpr<'s> {
    /// Span of the offset expression.
    pub fn span(&self) -> Span {
        match self {
            OffsetExpr::Int(_, s) => *s,
            OffsetExpr::Param(i) => i.span,
        }
    }
}

/// An attribute attached to a register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegAttr<'s> {
    /// `mask '1001000.'`
    Mask(BitMask),
    /// `pre { ... }` — actions performed before each access.
    Pre(ActionBlock<'s>),
    /// `post { ... }` — actions performed after each access.
    Post(ActionBlock<'s>),
    /// `set { ... }` — updates to private memory variables performed
    /// when the register is accessed (automata-based addressing).
    Set(ActionBlock<'s>),
}

/// One symbol of a register mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskBit {
    /// `*`: the bit is relevant (usable by variables).
    Relevant,
    /// `0`: irrelevant when read, forced to 0 when written.
    Forced0,
    /// `1`: irrelevant when read, forced to 1 when written.
    Forced1,
    /// `.` (or `-`): irrelevant both ways.
    Irrelevant,
}

impl MaskBit {
    /// The source character for this mask bit.
    pub fn to_char(self) -> char {
        match self {
            MaskBit::Relevant => '*',
            MaskBit::Forced0 => '0',
            MaskBit::Forced1 => '1',
            MaskBit::Irrelevant => '.',
        }
    }

    /// Parses a mask character (`-` is an alias for `.`).
    pub fn from_char(c: char) -> Option<MaskBit> {
        Some(match c {
            '*' => MaskBit::Relevant,
            '0' => MaskBit::Forced0,
            '1' => MaskBit::Forced1,
            '.' | '-' => MaskBit::Irrelevant,
            _ => return None,
        })
    }
}

/// A register mask literal. `bits[0]` is the **most significant** bit,
/// matching the left-to-right source order of `'1..00000'`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMask {
    /// Mask symbols, MSB first.
    pub bits: Vec<MaskBit>,
    /// Span of the literal.
    pub span: Span,
}

impl BitMask {
    /// Number of bits in the mask.
    pub fn width(&self) -> u32 {
        self.bits.len() as u32
    }

    /// The mask symbol for bit index `i` (LSB = 0).
    pub fn bit(&self, i: u32) -> MaskBit {
        self.bits[self.bits.len() - 1 - i as usize]
    }
}

/// A `{ stmt; stmt }` action block (pre/post/set).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActionBlock<'s> {
    /// The statements, in execution order.
    pub stmts: Vec<ActionStmt<'s>>,
    /// Span of the block.
    pub span: Span,
}

/// A single `target = value` action statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActionStmt<'s> {
    /// The variable (or structure) being assigned.
    pub target: Ident<'s>,
    /// The assigned value.
    pub value: ActionValue<'s>,
    /// Span of the statement.
    pub span: Span,
}

/// The right-hand side of an action statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActionValue<'s> {
    /// A literal integer.
    Int(u64, Span),
    /// `*`: any value (used to strobe, e.g. the 8237 flip-flop reset).
    Any(Span),
    /// `true` / `false`.
    Bool(bool, Span),
    /// An identifier: enum symbol, family parameter, or variable.
    Sym(Ident<'s>),
    /// A structure value: `{XA => j; XRAE => true}`.
    Struct(Vec<(Ident<'s>, ActionValue<'s>)>, Span),
}

impl<'s> ActionValue<'s> {
    /// Span of the value.
    pub fn span(&self) -> Span {
        match self {
            ActionValue::Int(_, s) | ActionValue::Any(s) | ActionValue::Bool(_, s) => *s,
            ActionValue::Sym(i) => i.span,
            ActionValue::Struct(_, s) => *s,
        }
    }
}

/// A device-variable declaration (top level or structure field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariableDecl<'s> {
    /// Whether the variable is `private` (hidden from the functional
    /// interface; may be an unmapped memory cell).
    pub private: bool,
    /// Variable name.
    pub name: Ident<'s>,
    /// Formal parameters for variable families (arrays).
    pub params: Vec<RegParam<'s>>,
    /// The register bits backing the variable; `None` for unmapped
    /// private memory variables (`private variable xm : bool;`).
    pub bits: Option<BitExpr<'s>>,
    /// Behaviour attributes (volatile, trigger, block, set).
    pub attrs: Vec<VarAttr<'s>>,
    /// The declared type. Syntactically optional (paper fragments omit
    /// it); the checker requires it.
    pub ty: Option<Type<'s>>,
    /// Per-variable serialization order (the 8237 counter case).
    pub serialized: Option<SerBlock<'s>>,
    /// Span of the declaration.
    pub span: Span,
}

/// A concatenation of register bit-fragments: `x_high[3..0] # x_low[3..0]`.
/// `atoms[0]` holds the **most significant** fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitExpr<'s> {
    /// The fragments, most significant first.
    pub atoms: Vec<BitAtom<'s>>,
    /// Span of the expression.
    pub span: Span,
}

/// One register fragment in a bit expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitAtom<'s> {
    /// The register (or register-family) name.
    pub reg: Ident<'s>,
    /// Arguments when referencing a register family: `cnt(i)`.
    pub args: Vec<Expr<'s>>,
    /// Selected bit ranges, MSB-side first as written: `[2,7..4]`.
    /// Empty means the whole register.
    pub ranges: Vec<BitRange>,
    /// Span of the atom.
    pub span: Span,
}

/// An inclusive bit range `hi..lo`, or a single bit when `hi == lo`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitRange {
    /// Most significant selected bit.
    pub hi: u32,
    /// Least significant selected bit.
    pub lo: u32,
    /// Span of the range.
    pub span: Span,
}

impl BitRange {
    /// Number of bits selected.
    pub fn width(&self) -> u32 {
        self.hi - self.lo + 1
    }
}

/// A behaviour attribute on a variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarAttr<'s> {
    /// `volatile`: reads are not idempotent.
    Volatile(Span),
    /// `block`: generate block-transfer stubs.
    Block(Span),
    /// `trigger` / `read trigger` / `write trigger`, with an optional
    /// neutral-value exception.
    Trigger {
        /// Direction the trigger applies to; `None` = both.
        mode: Option<Mode>,
        /// Exception clause.
        exception: Option<TriggerException<'s>>,
        /// Span of the attribute.
        span: Span,
    },
    /// `set { ... }` — updates private memory variables when this
    /// variable is written.
    Set(ActionBlock<'s>),
}

/// The exception clause of a trigger attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerException<'s> {
    /// `except NEUTRAL` — the named value does not trigger.
    Except(Ident<'s>),
    /// `for true` — the trigger only fires for the given value.
    For(ConstValue<'s>),
}

/// A structure declaration grouping variables for consistent access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureDecl<'s> {
    /// Structure name.
    pub name: Ident<'s>,
    /// Field variables.
    pub fields: Vec<VariableDecl<'s>>,
    /// Optional register write/read ordering.
    pub serialized: Option<SerBlock<'s>>,
    /// Span of the declaration.
    pub span: Span,
}

/// A `serialized as { ... }` block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerBlock<'s> {
    /// Ordered serialization items.
    pub items: Vec<SerItem<'s>>,
    /// Span of the block.
    pub span: Span,
}

/// One item of a serialization order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerItem<'s> {
    /// Access this register next.
    Reg(Ident<'s>),
    /// Conditional access: `if (sngl == SINGLE) icw3;`.
    If {
        /// Guard condition over structure-member variables.
        cond: Cond<'s>,
        /// Item(s) executed when the guard holds.
        then: Box<SerItem<'s>>,
        /// Optional `else` item.
        els: Option<Box<SerItem<'s>>>,
        /// Span.
        span: Span,
    },
    /// A braced group of items.
    Block(Vec<SerItem<'s>>, Span),
}

impl<'s> SerItem<'s> {
    /// Span of the item.
    pub fn span(&self) -> Span {
        match self {
            SerItem::Reg(i) => i.span,
            SerItem::If { span, .. } => *span,
            SerItem::Block(_, s) => *s,
        }
    }
}

/// A boolean guard over variables/parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond<'s> {
    /// `lhs == rhs` / `lhs != rhs`.
    Cmp {
        /// Variable or parameter compared.
        lhs: Ident<'s>,
        /// Comparison operator.
        op: CmpOp,
        /// Constant right-hand side.
        rhs: ConstValue<'s>,
        /// Span.
        span: Span,
    },
    /// `a && b`
    And(Box<Cond<'s>>, Box<Cond<'s>>),
    /// `a || b`
    Or(Box<Cond<'s>>, Box<Cond<'s>>),
    /// `!a`
    Not(Box<Cond<'s>>),
}

impl<'s> Cond<'s> {
    /// Span of the condition.
    pub fn span(&self) -> Span {
        match self {
            Cond::Cmp { span, .. } => *span,
            Cond::And(a, b) | Cond::Or(a, b) => a.span().to(b.span()),
            Cond::Not(c) => c.span(),
        }
    }
}

/// Comparison operators in guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A constant value in guards, trigger clauses, and enum tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstValue<'s> {
    /// Integer literal.
    Int(u64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// Enum symbol.
    Sym(Ident<'s>),
    /// Quoted bit pattern, normalised as [`Token::bits`] gives it.
    Bits(Cow<'s, str>, Span),
}

impl<'s> ConstValue<'s> {
    /// Span of the value.
    pub fn span(&self) -> Span {
        match self {
            ConstValue::Int(_, s) | ConstValue::Bool(_, s) | ConstValue::Bits(_, s) => *s,
            ConstValue::Sym(i) => i.span,
        }
    }
}

/// A named type definition: `type t = { A => '1', B => '0' };`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeDef<'s> {
    /// Type name.
    pub name: Ident<'s>,
    /// The defined type.
    pub ty: Type<'s>,
    /// Span of the definition.
    pub span: Span,
}

/// A conditional declaration group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondDecl<'s> {
    /// Guard over constant device parameters.
    pub cond: Cond<'s>,
    /// Declarations active when the guard holds.
    pub then: Vec<Decl<'s>>,
    /// Declarations active otherwise.
    pub els: Vec<Decl<'s>>,
    /// Span.
    pub span: Span,
}

/// A type expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Type<'s> {
    /// The type's shape.
    pub kind: TypeKind<'s>,
    /// Span of the type expression.
    pub span: Span,
}

/// The shape of a type expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeKind<'s> {
    /// `int(n)` — unsigned integer of `n` bits.
    UInt(u32),
    /// `signed int(n)` — two's-complement integer of `n` bits.
    SInt(u32),
    /// `bool` — one bit.
    Bool,
    /// `int{0..31}` / `int{0..17,25}` — an integer restricted to a set.
    IntSet(IntSet),
    /// An inline enumerated type.
    Enum(EnumType<'s>),
    /// A reference to a named (`type`) definition.
    Named(Ident<'s>),
}

/// A set of integers given as single values and inclusive ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntSet {
    /// The set's items, in source order.
    pub items: Vec<IntSetItem>,
    /// Span of the set.
    pub span: Span,
}

/// One item of an integer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntSetItem {
    /// A single value.
    Single(u64),
    /// An inclusive range `lo..hi`.
    Range(u64, u64),
}

impl IntSet {
    /// Whether `v` is a member of the set.
    pub fn contains(&self, v: u64) -> bool {
        self.items.iter().any(|it| match *it {
            IntSetItem::Single(s) => s == v,
            IntSetItem::Range(lo, hi) => (lo..=hi).contains(&v),
        })
    }

    /// The largest member, or `None` for an empty set.
    pub fn max(&self) -> Option<u64> {
        self.items
            .iter()
            .map(|it| match *it {
                IntSetItem::Single(s) => s,
                IntSetItem::Range(_, hi) => hi,
            })
            .max()
    }

    /// The smallest member, or `None` for an empty set.
    pub fn min(&self) -> Option<u64> {
        self.items
            .iter()
            .map(|it| match *it {
                IntSetItem::Single(s) => s,
                IntSetItem::Range(lo, _) => lo,
            })
            .min()
    }

    /// Iterates over all members, ascending within each item.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().flat_map(|it| match *it {
            IntSetItem::Single(s) => s..=s,
            IntSetItem::Range(lo, hi) => lo..=hi,
        })
    }

    /// Number of members (with multiplicity collapsed per item, not
    /// across items).
    pub fn len(&self) -> u64 {
        self.items
            .iter()
            .map(|it| match *it {
                IntSetItem::Single(_) => 1,
                IntSetItem::Range(lo, hi) => hi - lo + 1,
            })
            .sum()
    }

    /// Whether the set has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// An enumerated type: symbol ↔ bit-pattern mappings with directions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumType<'s> {
    /// The mapping arms, in source order.
    pub arms: Vec<EnumArm<'s>>,
    /// Span of the type.
    pub span: Span,
}

/// One arm of an enumerated type: `CONFIGURATION => '1'`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumArm<'s> {
    /// Symbolic name.
    pub sym: Ident<'s>,
    /// Mapping direction.
    pub dir: EnumDir,
    /// Concrete bit pattern (`0`/`1` characters, MSB first),
    /// normalised as [`Token::bits`] gives it.
    pub pattern: Cow<'s, str>,
    /// Span of the pattern literal.
    pub pattern_span: Span,
    /// Span of the arm.
    pub span: Span,
}

/// Direction of an enum mapping arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnumDir {
    /// `=>`: valid when writing.
    Write,
    /// `<=`: valid when reading.
    Read,
    /// `<=>`: valid both ways.
    Both,
}

impl EnumDir {
    /// Whether the arm applies to reads.
    pub fn readable(self) -> bool {
        matches!(self, EnumDir::Read | EnumDir::Both)
    }

    /// Whether the arm applies to writes.
    pub fn writable(self) -> bool {
        matches!(self, EnumDir::Write | EnumDir::Both)
    }
}

/// A small constant expression (register-family arguments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr<'s> {
    /// Integer literal.
    Int(u64, Span),
    /// Parameter or variable reference.
    Sym(Ident<'s>),
}

impl<'s> Expr<'s> {
    /// Span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) => *s,
            Expr::Sym(i) => i.span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_set_membership() {
        let set = IntSet {
            items: vec![IntSetItem::Range(0, 17), IntSetItem::Single(25)],
            span: Span::DUMMY,
        };
        assert!(set.contains(0));
        assert!(set.contains(17));
        assert!(set.contains(25));
        assert!(!set.contains(18));
        assert!(!set.contains(26));
        assert_eq!(set.max(), Some(25));
        assert_eq!(set.min(), Some(0));
        assert_eq!(set.len(), 19);
        assert_eq!(set.iter().count(), 19);
    }

    #[test]
    fn bit_range_width() {
        let r = BitRange { hi: 6, lo: 5, span: Span::DUMMY };
        assert_eq!(r.width(), 2);
        let single = BitRange { hi: 3, lo: 3, span: Span::DUMMY };
        assert_eq!(single.width(), 1);
    }

    #[test]
    fn mask_bit_indexing_is_lsb_zero() {
        // '1..00000' — bit 7 forced-1, bits 6..5 relevant? No: `.` is
        // irrelevant; the busmouse index_reg mask uses `1..00000` where
        // bits 6..5 are `.` only in prose; test mechanics instead.
        let mask = BitMask {
            bits: "1**00000".chars().map(|c| MaskBit::from_char(c).unwrap()).collect(),
            span: Span::DUMMY,
        };
        assert_eq!(mask.width(), 8);
        assert_eq!(mask.bit(7), MaskBit::Forced1);
        assert_eq!(mask.bit(6), MaskBit::Relevant);
        assert_eq!(mask.bit(5), MaskBit::Relevant);
        assert_eq!(mask.bit(0), MaskBit::Forced0);
    }

    #[test]
    fn mask_bit_char_round_trip() {
        for c in ['*', '0', '1', '.'] {
            assert_eq!(MaskBit::from_char(c).unwrap().to_char(), c);
        }
        assert_eq!(MaskBit::from_char('-'), Some(MaskBit::Irrelevant));
        assert_eq!(MaskBit::from_char('x'), None);
    }

    #[test]
    fn enum_dir_permissions() {
        assert!(EnumDir::Both.readable() && EnumDir::Both.writable());
        assert!(EnumDir::Read.readable() && !EnumDir::Read.writable());
        assert!(!EnumDir::Write.readable() && EnumDir::Write.writable());
    }

    #[test]
    fn empty_int_set() {
        let set = IntSet { items: vec![], span: Span::DUMMY };
        assert!(set.is_empty());
        assert_eq!(set.max(), None);
        assert_eq!(set.len(), 0);
    }
}
