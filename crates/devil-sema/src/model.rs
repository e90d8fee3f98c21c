//! The checked semantic model of a Devil specification.
//!
//! [`CheckedDevice`] is what the rest of the tool chain consumes: names
//! are resolved to indices, register-family instantiations are inlined,
//! conditional declarations are flattened for a concrete parameter
//! binding, and every width/direction fact has been verified.
//!
//! The model borrows the names of its ports, parameters, registers,
//! variables, structures and named types from the specification source
//! (`&'s str`), as the AST does: resolving a spec copies no declared
//! name. References between entities are dense ids ([`RegId`],
//! [`VarId`], ...), never names. What `devil-ir` embeds in its own
//! tables ([`FamilyParam`], [`TypeSem`], [`Action`] and the plans'
//! other parts) stays owned, so a lowered device outlives its source.

use devil_syntax::ast::MaskBit;
use devil_syntax::span::Span;
use std::fmt;

/// Index of a port in [`CheckedDevice::ports`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Index of a register in [`CheckedDevice::registers`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// Index of a variable in [`CheckedDevice::variables`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index of a structure in [`CheckedDevice::structures`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port#{}", self.0)
    }
}
impl fmt::Debug for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reg#{}", self.0)
    }
}
impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "var#{}", self.0)
    }
}
impl fmt::Debug for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "struct#{}", self.0)
    }
}

/// A fully checked device specification.
#[derive(Clone, Debug)]
pub struct CheckedDevice<'s> {
    /// Device name.
    pub name: &'s str,
    /// Port parameters, in declaration order.
    pub ports: Vec<PortDef<'s>>,
    /// Constant integer parameters with their bound values.
    pub int_params: Vec<IntParamDef<'s>>,
    /// Registers (families kept symbolic via [`RegDef::params`]).
    pub registers: Vec<RegDef<'s>>,
    /// Device variables (public, private, and structure fields).
    pub variables: Vec<VarDef<'s>>,
    /// Structures grouping variables.
    pub structures: Vec<StructDef<'s>>,
    /// Named type definitions (for omission checking and codegen), in
    /// source order.
    pub typedefs: Vec<TypeDefSem<'s>>,
}

/// A named type definition.
#[derive(Clone, Debug)]
pub struct TypeDefSem<'s> {
    /// Type name.
    pub name: &'s str,
    /// The resolved type.
    pub ty: TypeSem,
    /// Declaration span.
    pub span: Span,
}

impl<'s> CheckedDevice<'s> {
    /// Looks a register up by name.
    pub fn register(&self, name: &str) -> Option<(RegId, &RegDef<'s>)> {
        self.registers
            .iter()
            .enumerate()
            .find(|(_, r)| r.name == name)
            .map(|(i, r)| (RegId(i as u32), r))
    }

    /// Looks a variable up by name.
    pub fn variable(&self, name: &str) -> Option<(VarId, &VarDef<'s>)> {
        self.variables
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .map(|(i, v)| (VarId(i as u32), v))
    }

    /// Looks a structure up by name.
    pub fn structure(&self, name: &str) -> Option<(StructId, &StructDef<'s>)> {
        self.structures
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (StructId(i as u32), s))
    }

    /// Looks a port up by name.
    pub fn port(&self, name: &str) -> Option<(PortId, &PortDef<'s>)> {
        self.ports
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
            .map(|(i, p)| (PortId(i as u32), p))
    }

    /// The register definition for an id.
    pub fn reg(&self, id: RegId) -> &RegDef<'s> {
        &self.registers[id.0 as usize]
    }

    /// The variable definition for an id.
    pub fn var(&self, id: VarId) -> &VarDef<'s> {
        &self.variables[id.0 as usize]
    }

    /// The structure definition for an id.
    pub fn strct(&self, id: StructId) -> &StructDef<'s> {
        &self.structures[id.0 as usize]
    }

    /// Iterates over the public (non-private, non-field) variables that
    /// make up the device's functional interface, plus structure fields
    /// (which are public through their structure).
    pub fn interface_vars(&self) -> impl Iterator<Item = (VarId, &VarDef<'s>)> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.private)
            .map(|(i, v)| (VarId(i as u32), v))
    }
}

/// A declared port parameter.
#[derive(Clone, Debug)]
pub struct PortDef<'s> {
    /// Port name.
    pub name: &'s str,
    /// Access width in bits.
    pub width: u32,
    /// Valid offsets, as sorted inclusive ranges.
    pub offsets: Vec<(u64, u64)>,
    /// Declaration span.
    pub span: Span,
}

impl PortDef<'_> {
    /// Whether `off` is a declared offset of this port.
    pub fn contains(&self, off: u64) -> bool {
        self.offsets.iter().any(|&(lo, hi)| (lo..=hi).contains(&off))
    }

    /// Iterates over every declared offset.
    pub fn iter_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        self.offsets.iter().flat_map(|&(lo, hi)| lo..=hi)
    }
}

/// A constant integer device parameter and its bound value.
#[derive(Clone, Debug)]
pub struct IntParamDef<'s> {
    /// Parameter name.
    pub name: &'s str,
    /// Bound value used to flatten conditional declarations.
    pub value: u64,
    /// Declaration span.
    pub span: Span,
}

/// A formal parameter of a register or variable family.
#[derive(Clone, Debug)]
pub struct FamilyParam {
    /// Parameter name.
    pub name: String,
    /// Valid values, as inclusive ranges.
    pub values: Vec<(u64, u64)>,
    /// Declaration span.
    pub span: Span,
}

impl FamilyParam {
    /// Whether `v` is a legal argument.
    pub fn contains(&self, v: u64) -> bool {
        self.values.iter().any(|&(lo, hi)| (lo..=hi).contains(&v))
    }

    /// Iterates over every legal argument value.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.values.iter().flat_map(|&(lo, hi)| lo..=hi)
    }
}

/// A register definition (concrete or family).
#[derive(Clone, Debug)]
pub struct RegDef<'s> {
    /// Register name.
    pub name: &'s str,
    /// Family parameters; empty for concrete registers.
    pub params: Vec<FamilyParam>,
    /// Size in bits.
    pub size: u32,
    /// Port binding used for reads, if readable.
    pub read: Option<PortBinding>,
    /// Port binding used for writes, if writable.
    pub write: Option<PortBinding>,
    /// Normalised mask, exactly `size` entries, LSB at index 0.
    pub mask: Vec<MaskBit>,
    /// Actions performed before each access.
    pub pre: Vec<Action>,
    /// Actions performed after each access.
    pub post: Vec<Action>,
    /// Private-state updates performed on access.
    pub set: Vec<Action>,
    /// Declaration span.
    pub span: Span,
}

impl RegDef<'_> {
    /// Whether the register can be read.
    pub fn readable(&self) -> bool {
        self.read.is_some()
    }

    /// Whether the register can be written.
    pub fn writable(&self) -> bool {
        self.write.is_some()
    }

    /// The value forced onto irrelevant bits when writing: `(or_mask,
    /// and_mask)` such that `out = (in & and_mask) | or_mask`.
    pub fn forced_masks(&self) -> (u64, u64) {
        let mut or_mask = 0u64;
        let mut and_mask = !0u64;
        for (i, &b) in self.mask.iter().enumerate() {
            match b {
                MaskBit::Forced1 => or_mask |= 1 << i,
                MaskBit::Forced0 => and_mask &= !(1 << i),
                _ => {}
            }
        }
        if self.size < 64 {
            and_mask &= (1u64 << self.size) - 1;
        }
        (or_mask, and_mask)
    }

    /// Bit mask of the relevant (variable-usable) bits.
    pub fn relevant_bits(&self) -> u64 {
        let mut m = 0u64;
        for (i, &b) in self.mask.iter().enumerate() {
            if b == MaskBit::Relevant {
                m |= 1 << i;
            }
        }
        m
    }
}

/// A resolved port binding `port @ offset`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortBinding {
    /// The port.
    pub port: PortId,
    /// The offset (constant or family-parameter reference).
    pub offset: Offset,
}

/// A register's offset within its port range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offset {
    /// A constant offset.
    Const(u64),
    /// The value of family parameter `params[i]`.
    Param(usize),
}

impl Offset {
    /// Resolves the offset given family-argument values.
    pub fn resolve(self, args: &[u64]) -> u64 {
        match self {
            Offset::Const(v) => v,
            Offset::Param(i) => args[i],
        }
    }
}

/// A pre/post/set action: assign `value` to `target`.
#[derive(Clone, Debug, PartialEq)]
pub struct Action {
    /// What is assigned.
    pub target: ActionTarget,
    /// The assigned value.
    pub value: ActionValue,
    /// Source span.
    pub span: Span,
}

/// The assignable targets of an action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionTarget {
    /// A device variable (possibly private / unmapped).
    Var(VarId),
    /// A structure (assigned a struct-valued [`ActionValue::Struct`]).
    Struct(StructId),
}

/// The value side of an action.
#[derive(Clone, Debug, PartialEq)]
pub enum ActionValue {
    /// A constant bit value.
    Const(u64),
    /// Any value (strobe; the generated code writes 0).
    Any,
    /// The current value of family parameter `i` of the enclosing
    /// register family.
    Param(usize),
    /// The current (cached) value of another variable.
    Var(VarId),
    /// Per-field values for a structure target.
    Struct(Vec<(VarId, ActionValue)>),
}

/// A variable's behaviour, from its attributes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Behavior {
    /// Reads are not idempotent (`volatile`).
    pub volatile: bool,
    /// Generate block-transfer stubs (`block`).
    pub block: bool,
    /// Writes trigger a device action (`write trigger` / `trigger`).
    pub write_trigger: bool,
    /// Reads trigger a device action (`read trigger` / `trigger`).
    pub read_trigger: bool,
}

/// The neutral value of a trigger variable (`except NEUTRAL`), i.e. the
/// value that may safely be written without triggering, or the sole
/// triggering value (`for true` inverts the semantics: every *other*
/// value is neutral).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Neutral {
    /// `except X`: writing the given raw bits does not trigger.
    Except(u64),
    /// `for X`: only the given raw bits trigger.
    For(u64),
}

/// A semantic type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeSem {
    /// Unsigned integer of `n` bits.
    UInt(u32),
    /// Signed (two's-complement) integer of `n` bits.
    SInt(u32),
    /// Boolean (one bit).
    Bool,
    /// Integer restricted to a value set; `width` is the variable's bit
    /// width (which may exceed the minimum needed for `max`).
    IntSet {
        /// Bit width of the backing bits.
        width: u32,
        /// Allowed values as inclusive ranges.
        set: Vec<(u64, u64)>,
    },
    /// Enumerated type.
    Enum(EnumSem),
}

impl TypeSem {
    /// The bit width of values of this type.
    pub fn width(&self) -> u32 {
        match self {
            TypeSem::UInt(n) | TypeSem::SInt(n) => *n,
            TypeSem::Bool => 1,
            TypeSem::IntSet { width, .. } => *width,
            TypeSem::Enum(e) => e.width,
        }
    }

    /// Whether raw bits `v` are a legal *written* value of the type.
    pub fn valid_write(&self, v: u64) -> bool {
        match self {
            TypeSem::UInt(n) | TypeSem::SInt(n) => *n == 64 || v < (1u64 << *n),
            TypeSem::Bool => v <= 1,
            TypeSem::IntSet { set, .. } => set.iter().any(|&(lo, hi)| (lo..=hi).contains(&v)),
            TypeSem::Enum(e) => e.arms.iter().any(|a| a.writable && a.value == v),
        }
    }

    /// Whether raw bits `v` are a legal *read* value of the type.
    pub fn valid_read(&self, v: u64) -> bool {
        match self {
            TypeSem::Enum(e) => e.arms.iter().any(|a| a.readable && a.value == v),
            other => other.valid_write(v),
        }
    }
}

/// A checked enumerated type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumSem {
    /// Optional name when defined via `type`.
    pub name: Option<String>,
    /// Pattern width in bits.
    pub width: u32,
    /// The mapping arms.
    pub arms: Vec<EnumArmSem>,
}

impl EnumSem {
    /// Looks up a symbol, returning its raw value.
    pub fn value_of(&self, sym: &str) -> Option<u64> {
        self.arms.iter().find(|a| a.sym == sym).map(|a| a.value)
    }

    /// Looks up the symbol readable as raw value `v`.
    pub fn sym_for_read(&self, v: u64) -> Option<&str> {
        self.arms.iter().find(|a| a.readable && a.value == v).map(|a| a.sym.as_str())
    }
}

/// One arm of a checked enum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumArmSem {
    /// Symbolic name.
    pub sym: String,
    /// Raw bit value.
    pub value: u64,
    /// Valid when reading.
    pub readable: bool,
    /// Valid when writing.
    pub writable: bool,
}

/// A device variable.
#[derive(Clone, Debug)]
pub struct VarDef<'s> {
    /// Variable name.
    pub name: &'s str,
    /// Hidden from the functional interface.
    pub private: bool,
    /// Family parameters for variable arrays; empty otherwise.
    pub params: Vec<FamilyParam>,
    /// Backing register bits, most-significant chunk first; `None` for
    /// unmapped private memory variables.
    pub bits: Option<Vec<BitChunk>>,
    /// The variable's type.
    pub ty: TypeSem,
    /// Behaviour flags.
    pub behavior: Behavior,
    /// Neutral value for trigger variables.
    pub neutral: Option<Neutral>,
    /// Private-state updates performed when the variable is written.
    pub set: Vec<Action>,
    /// Explicit register access order (per-variable serialization).
    pub serialized: Option<SerPlan>,
    /// Parent structure when the variable is a field.
    pub parent: Option<StructId>,
    /// Declaration span.
    pub span: Span,
}

impl VarDef<'_> {
    /// Total bit width of the variable.
    pub fn width(&self) -> u32 {
        match &self.bits {
            Some(chunks) => chunks.iter().map(BitChunk::width).sum(),
            None => self.ty.width(),
        }
    }

    /// Whether the variable is an unmapped private memory cell.
    pub fn is_memory(&self) -> bool {
        self.bits.is_none()
    }
}

/// A contiguous run of bits taken from one register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitChunk {
    /// The source register.
    pub reg: RegId,
    /// Arguments when the register is a family; indices refer to the
    /// *variable's* family parameters or constants.
    pub args: Vec<ChunkArg>,
    /// Selected bit ranges `(hi, lo)`, most significant first.
    pub ranges: Vec<(u32, u32)>,
}

impl BitChunk {
    /// Number of bits this chunk contributes.
    pub fn width(&self) -> u32 {
        self.ranges.iter().map(|&(hi, lo)| hi - lo + 1).sum()
    }
}

/// An argument to a register family inside a bit chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkArg {
    /// A constant.
    Const(u64),
    /// The enclosing variable's family parameter `i`.
    Param(usize),
}

impl ChunkArg {
    /// Resolves against the variable's family arguments.
    pub fn resolve(self, args: &[u64]) -> u64 {
        match self {
            ChunkArg::Const(v) => v,
            ChunkArg::Param(i) => args[i],
        }
    }
}

/// A checked serialization plan.
#[derive(Clone, Debug)]
pub struct SerPlan {
    /// Ordered steps.
    pub steps: Vec<SerStep>,
}

/// One step of a serialization plan.
#[derive(Clone, Debug)]
pub enum SerStep {
    /// Access the register next.
    Reg(RegId),
    /// Conditional access based on member-variable values.
    If {
        /// The guard.
        cond: CondSem,
        /// Steps when the guard holds.
        then: Vec<SerStep>,
        /// Steps otherwise.
        els: Vec<SerStep>,
    },
}

/// A checked guard condition.
#[derive(Clone, Debug)]
pub enum CondSem {
    /// Compare a variable's raw bits to a constant.
    Cmp {
        /// The variable.
        var: VarId,
        /// `true` for `==`, `false` for `!=`.
        eq: bool,
        /// Raw comparison value.
        value: u64,
    },
    /// Conjunction.
    And(Box<CondSem>, Box<CondSem>),
    /// Disjunction.
    Or(Box<CondSem>, Box<CondSem>),
    /// Negation.
    Not(Box<CondSem>),
}

impl CondSem {
    /// Evaluates the guard with a variable-value lookup.
    pub fn eval(&self, lookup: &dyn Fn(VarId) -> u64) -> bool {
        match self {
            CondSem::Cmp { var, eq, value } => (lookup(*var) == *value) == *eq,
            CondSem::And(a, b) => a.eval(lookup) && b.eval(lookup),
            CondSem::Or(a, b) => a.eval(lookup) || b.eval(lookup),
            CondSem::Not(a) => !a.eval(lookup),
        }
    }
}

/// A structure: a group of variables accessed consistently.
#[derive(Clone, Debug)]
pub struct StructDef<'s> {
    /// Structure name.
    pub name: &'s str,
    /// Member variables, in declaration order.
    pub fields: Vec<VarId>,
    /// Access order over the registers backing the fields.
    pub serialized: Option<SerPlan>,
    /// Declaration span.
    pub span: Span,
}

/// Minimum number of bits needed to represent `v`.
pub fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_mask(mask: &str) -> RegDef<'static> {
        RegDef {
            name: "r",
            params: vec![],
            size: mask.len() as u32,
            read: None,
            write: None,
            mask: mask
                .chars()
                .rev() // model stores LSB at index 0
                .map(|c| MaskBit::from_char(c).unwrap())
                .collect(),
            pre: vec![],
            post: vec![],
            set: vec![],
            span: Span::DUMMY,
        }
    }

    #[test]
    fn forced_masks_follow_paper_semantics() {
        // index_reg mask (prose convention): bit7 forced 1, bits 6..5
        // relevant, bits 4..0 forced 0.
        let r = reg_with_mask("1**00000");
        let (or_mask, and_mask) = r.forced_masks();
        assert_eq!(or_mask, 0b1000_0000);
        assert_eq!(and_mask, 0b1110_0000);
        assert_eq!(r.relevant_bits(), 0b0110_0000);
        // Writing index value 0b10 at bits 6..5: in = 0b0100_0000.
        let written = (0b0100_0000u64 & and_mask) | or_mask;
        assert_eq!(written, 0b1100_0000);
    }

    #[test]
    fn default_mask_is_all_relevant() {
        let r = reg_with_mask("********");
        assert_eq!(r.relevant_bits(), 0xff);
        assert_eq!(r.forced_masks(), (0, 0xff));
    }

    #[test]
    fn irrelevant_bits_are_neither_forced_nor_relevant() {
        let r = reg_with_mask("...*....");
        assert_eq!(r.relevant_bits(), 0b0001_0000);
        assert_eq!(r.forced_masks(), (0, 0xff));
    }

    #[test]
    fn type_widths() {
        assert_eq!(TypeSem::UInt(8).width(), 8);
        assert_eq!(TypeSem::SInt(8).width(), 8);
        assert_eq!(TypeSem::Bool.width(), 1);
        assert_eq!(TypeSem::IntSet { width: 8, set: vec![(0, 31)] }.width(), 8);
    }

    #[test]
    fn type_validity() {
        let set = TypeSem::IntSet { width: 8, set: vec![(0, 17), (25, 25)] };
        assert!(set.valid_write(17));
        assert!(set.valid_write(25));
        assert!(!set.valid_write(18));
        let en = TypeSem::Enum(EnumSem {
            name: None,
            width: 1,
            arms: vec![
                EnumArmSem { sym: "ENABLE".into(), value: 0, readable: false, writable: true },
                EnumArmSem { sym: "DISABLE".into(), value: 1, readable: false, writable: true },
            ],
        });
        assert!(en.valid_write(0) && en.valid_write(1));
        assert!(!en.valid_read(0), "write-only arms are not readable");
        assert!(TypeSem::UInt(64).valid_write(u64::MAX));
        assert!(!TypeSem::UInt(2).valid_write(4));
        assert!(TypeSem::SInt(8).valid_write(0xff), "signed types accept raw patterns");
    }

    #[test]
    fn enum_lookup() {
        let e = EnumSem {
            name: Some("cfg".into()),
            width: 1,
            arms: vec![
                EnumArmSem { sym: "ON".into(), value: 1, readable: true, writable: true },
                EnumArmSem { sym: "OFF".into(), value: 0, readable: true, writable: true },
            ],
        };
        assert_eq!(e.value_of("ON"), Some(1));
        assert_eq!(e.value_of("MISSING"), None);
        assert_eq!(e.sym_for_read(0), Some("OFF"));
    }

    #[test]
    fn chunk_width_sums_ranges() {
        let c = BitChunk { reg: RegId(0), args: vec![], ranges: vec![(2, 2), (7, 4)] };
        assert_eq!(c.width(), 5);
    }

    #[test]
    fn cond_eval() {
        let c = CondSem::And(
            Box::new(CondSem::Cmp { var: VarId(0), eq: true, value: 1 }),
            Box::new(CondSem::Not(Box::new(CondSem::Cmp { var: VarId(1), eq: true, value: 0 }))),
        );
        let lookup = |v: VarId| if v.0 == 0 { 1 } else { 7 };
        assert!(c.eval(&lookup));
        let lookup2 = |v: VarId| if v.0 == 0 { 1 } else { 0 };
        assert!(!c.eval(&lookup2));
    }

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(31), 5);
        assert_eq!(bits_for(32), 6);
    }

    #[test]
    fn offset_resolution() {
        assert_eq!(Offset::Const(3).resolve(&[]), 3);
        assert_eq!(Offset::Param(0).resolve(&[9]), 9);
        assert_eq!(ChunkArg::Param(1).resolve(&[4, 5]), 5);
    }

    #[test]
    fn port_membership() {
        let p =
            PortDef { name: "base", width: 8, offsets: vec![(0, 3), (7, 7)], span: Span::DUMMY };
        assert!(p.contains(0) && p.contains(3) && p.contains(7));
        assert!(!p.contains(4));
        assert_eq!(p.iter_offsets().collect::<Vec<_>>(), vec![0, 1, 2, 3, 7]);
    }
}
