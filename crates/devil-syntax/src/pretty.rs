//! Pretty-printer: renders an AST back to canonical Devil source.
//!
//! The output re-parses to an identical tree (checked by property tests),
//! which makes the printer usable for formatting tools and for the
//! mutation harness, which needs to turn rewritten trees back into text.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole device declaration as canonical Devil source.
pub fn print_device(dev: &Device) -> String {
    let mut p = Printer::new();
    p.device(dev);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer { out: String::new(), indent: 0 }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn device(&mut self, dev: &Device) {
        let params = dev.params.iter().map(|p| self.param_str(p)).collect::<Vec<_>>().join(", ");
        self.line(&format!("device {} ({params})", dev.name));
        self.line("{");
        self.indent += 1;
        for d in &dev.decls {
            self.decl(d);
        }
        self.indent -= 1;
        self.line("}");
    }

    fn param_str(&mut self, p: &Param) -> String {
        match &p.kind {
            ParamKind::Port { width, range } => {
                format!("{} : bit[{width}] port @ {}", p.name, int_set_str(range))
            }
            ParamKind::Int { ty } => format!("{} : {}", p.name, type_str(ty)),
        }
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Register(r) => self.register(r),
            Decl::Variable(v) => {
                let s = self.variable_str(v);
                self.line(&s);
            }
            Decl::Structure(s) => self.structure(s),
            Decl::TypeDef(t) => {
                let ty = type_str(&t.ty);
                self.line(&format!("type {} = {ty};", t.name));
            }
            Decl::Cond(c) => self.cond_decl(c),
        }
    }

    fn register(&mut self, r: &RegisterDecl) {
        let mut s = format!("register {}", r.name);
        if !r.params.is_empty() {
            let ps = r
                .params
                .iter()
                .map(|p| format!("{} : {}", p.name, type_str(&p.ty)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(s, "({ps})");
        }
        s.push_str(" = ");
        match &r.spec {
            RegSpec::Port { mode, port } => {
                if let Some(m) = mode {
                    let _ = write!(s, "{m} ");
                }
                s.push_str(&port_str(port));
            }
            RegSpec::Ports { read, write } => {
                let _ = write!(s, "read {} write {}", port_str(read), port_str(write));
            }
            RegSpec::Instance { family, args } => {
                let args = args.iter().map(expr_str).collect::<Vec<_>>().join(", ");
                let _ = write!(s, "{family}({args})");
            }
        }
        for attr in &r.attrs {
            s.push_str(", ");
            match attr {
                RegAttr::Mask(m) => {
                    let _ = write!(s, "mask '{}'", mask_str(m));
                }
                RegAttr::Pre(b) => {
                    let _ = write!(s, "pre {}", action_block_str(b));
                }
                RegAttr::Post(b) => {
                    let _ = write!(s, "post {}", action_block_str(b));
                }
                RegAttr::Set(b) => {
                    let _ = write!(s, "set {}", action_block_str(b));
                }
            }
        }
        if let Some((n, _)) = r.size {
            let _ = write!(s, " : bit[{n}]");
        }
        s.push(';');
        self.line(&s);
    }

    fn variable_str(&mut self, v: &VariableDecl) -> String {
        let mut s = String::new();
        if v.private {
            s.push_str("private ");
        }
        let _ = write!(s, "variable {}", v.name);
        if !v.params.is_empty() {
            let ps = v
                .params
                .iter()
                .map(|p| format!("{} : {}", p.name, type_str(&p.ty)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(s, "({ps})");
        }
        if let Some(bits) = &v.bits {
            let atoms = bits.atoms.iter().map(atom_str).collect::<Vec<_>>().join(" # ");
            let _ = write!(s, " = {atoms}");
        }
        for attr in &v.attrs {
            s.push_str(", ");
            match attr {
                VarAttr::Volatile(_) => s.push_str("volatile"),
                VarAttr::Block(_) => s.push_str("block"),
                VarAttr::Set(b) => {
                    let _ = write!(s, "set {}", action_block_str(b));
                }
                VarAttr::Trigger { mode, exception, .. } => {
                    if let Some(m) = mode {
                        let _ = write!(s, "{m} ");
                    }
                    s.push_str("trigger");
                    match exception {
                        Some(TriggerException::Except(id)) => {
                            let _ = write!(s, " except {id}");
                        }
                        Some(TriggerException::For(cv)) => {
                            let _ = write!(s, " for {}", const_value_str(cv));
                        }
                        None => {}
                    }
                }
            }
        }
        if let Some(ty) = &v.ty {
            let _ = write!(s, " : {}", type_str(ty));
        }
        if let Some(ser) = &v.serialized {
            let _ = write!(s, " serialized as {}", ser_block_str(ser));
        }
        s.push(';');
        s
    }

    fn structure(&mut self, st: &StructureDecl) {
        self.line(&format!("structure {} = {{", st.name));
        self.indent += 1;
        for f in &st.fields {
            let s = self.variable_str(f);
            self.line(&s);
        }
        self.indent -= 1;
        match &st.serialized {
            Some(ser) => {
                let s = ser_block_str(ser);
                self.line(&format!("}} serialized as {s};"));
            }
            None => self.line("};"),
        }
    }

    fn cond_decl(&mut self, c: &CondDecl) {
        self.line(&format!("if ({}) {{", cond_str(&c.cond)));
        self.indent += 1;
        for d in &c.then {
            self.decl(d);
        }
        self.indent -= 1;
        if c.els.is_empty() {
            self.line("}");
        } else {
            self.line("} else {");
            self.indent += 1;
            for d in &c.els {
                self.decl(d);
            }
            self.indent -= 1;
            self.line("}");
        }
    }
}

fn port_str(p: &PortExpr) -> String {
    match &p.offset {
        Some(OffsetExpr::Int(v, _)) => format!("{} @ {v}", p.base),
        Some(OffsetExpr::Param(i)) => format!("{} @ {i}", p.base),
        None => p.base.name.clone(),
    }
}

fn mask_str(m: &BitMask) -> String {
    m.bits.iter().map(|b| b.to_char()).collect()
}

fn atom_str(a: &BitAtom) -> String {
    let mut s = a.reg.name.clone();
    if !a.args.is_empty() {
        let args = a.args.iter().map(expr_str).collect::<Vec<_>>().join(", ");
        let _ = write!(s, "({args})");
    }
    if !a.ranges.is_empty() {
        let rs = a
            .ranges
            .iter()
            .map(|r| if r.hi == r.lo { format!("{}", r.hi) } else { format!("{}..{}", r.hi, r.lo) })
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(s, "[{rs}]");
    }
    s
}

fn expr_str(e: &Expr) -> String {
    match e {
        Expr::Int(v, _) => v.to_string(),
        Expr::Sym(i) => i.name.clone(),
    }
}

fn action_block_str(b: &ActionBlock) -> String {
    let stmts = b
        .stmts
        .iter()
        .map(|s| format!("{} = {}", s.target, action_value_str(&s.value)))
        .collect::<Vec<_>>()
        .join("; ");
    format!("{{{stmts}}}")
}

fn action_value_str(v: &ActionValue) -> String {
    match v {
        ActionValue::Int(n, _) => n.to_string(),
        ActionValue::Any(_) => "*".to_string(),
        ActionValue::Bool(b, _) => b.to_string(),
        ActionValue::Sym(i) => i.name.clone(),
        ActionValue::Struct(fields, _) => {
            let fs = fields
                .iter()
                .map(|(n, v)| format!("{n} => {}", action_value_str(v)))
                .collect::<Vec<_>>()
                .join("; ");
            format!("{{{fs}}}")
        }
    }
}

fn ser_block_str(b: &SerBlock) -> String {
    let items = b.items.iter().map(ser_item_str).collect::<Vec<_>>().join(" ");
    format!("{{{items}}}")
}

fn ser_item_str(item: &SerItem) -> String {
    match item {
        SerItem::Reg(r) => format!("{r};"),
        SerItem::If { cond, then, els, .. } => {
            let mut s = format!("if ({}) {}", cond_str(cond), ser_item_str(then));
            if let Some(e) = els {
                let _ = write!(s, " else {}", ser_item_str(e));
            }
            s
        }
        SerItem::Block(items, _) => {
            let inner = items.iter().map(ser_item_str).collect::<Vec<_>>().join(" ");
            format!("{{{inner}}}")
        }
    }
}

fn cond_str(c: &Cond) -> String {
    match c {
        Cond::Cmp { lhs, op, rhs, .. } => {
            let op = match op {
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("{lhs} {op} {}", const_value_str(rhs))
        }
        Cond::And(a, b) => format!("({} && {})", cond_str(a), cond_str(b)),
        Cond::Or(a, b) => format!("({} || {})", cond_str(a), cond_str(b)),
        Cond::Not(a) => format!("!({})", cond_str(a)),
    }
}

fn const_value_str(cv: &ConstValue) -> String {
    match cv {
        ConstValue::Int(v, _) => v.to_string(),
        ConstValue::Bool(b, _) => b.to_string(),
        ConstValue::Sym(i) => i.name.clone(),
        ConstValue::Bits(b, _) => format!("'{b}'"),
    }
}

fn int_set_str(set: &IntSet) -> String {
    let items = set
        .items
        .iter()
        .map(|it| match it {
            IntSetItem::Single(v) => v.to_string(),
            IntSetItem::Range(lo, hi) => format!("{lo}..{hi}"),
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{items}}}")
}

fn type_str(ty: &Type) -> String {
    match &ty.kind {
        TypeKind::UInt(n) => format!("int({n})"),
        TypeKind::SInt(n) => format!("signed int({n})"),
        TypeKind::Bool => "bool".to_string(),
        TypeKind::IntSet(set) => format!("int{}", int_set_str(set)),
        TypeKind::Enum(e) => {
            let arms = e
                .arms
                .iter()
                .map(|a| {
                    let dir = match a.dir {
                        EnumDir::Write => "=>",
                        EnumDir::Read => "<=",
                        EnumDir::Both => "<=>",
                    };
                    format!("{} {dir} '{}'", a.sym, a.pattern)
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{ {arms} }}")
        }
        TypeKind::Named(i) => i.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) {
        let (dev, diags) = parse(src);
        assert!(!diags.has_errors(), "{:#?}", diags.all());
        let dev = dev.unwrap();
        let printed = print_device(&dev);
        let (dev2, diags2) = parse(&printed);
        assert!(!diags2.has_errors(), "re-parse failed:\n{printed}\n{:#?}", diags2.all());
        let dev2 = dev2.unwrap();
        // Compare trees modulo spans by printing both.
        assert_eq!(printed, print_device(&dev2), "printer not idempotent for:\n{src}");
    }

    #[test]
    fn round_trips_busmouse() {
        round_trip(
            r#"device logitech_busmouse (base : bit[8] port @ {0..3}) {
                 register sig_reg = base @ 1 : bit[8];
                 variable signature = sig_reg, volatile, write trigger : int(8);
                 register cr = write base @ 3, mask '1001000.' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
                 register index_reg = write base @ 2, mask '1..00000' : bit[8];
                 private variable index = index_reg[6..5] : int(2);
                 register x_low = read base @ 0, pre {index = 0}, mask '****....' : bit[8];
                 register x_high = read base @ 0, pre {index = 1}, mask '****....' : bit[8];
                 structure mouse_state = {
                   variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
                 };
               }"#,
        );
    }

    #[test]
    fn round_trips_advanced_features() {
        round_trip(
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
                 register X(j : int{0..17,25}) = base @ 1, pre {XS = {XA => 0; XRAE => true}} : bit[8];
               }"#,
        );
    }

    #[test]
    fn round_trips_serialization_and_conditions() {
        round_trip(
            r#"device pic (base : bit[8] port @ {0..1}, cascade : int(1)) {
                 register icw1 = write base @ 0, mask '...1....' : bit[8];
                 register icw2 = write base @ 1 : bit[8];
                 register icw3 = write base @ 1 : bit[8];
                 structure init = {
                   variable sngl = icw1[1] : { SINGLE => '1', CASCADED => '0' };
                 } serialized as { icw1; icw2; if (sngl == SINGLE) icw3; };
                 if (cascade == 1) { variable extra = icw3[0] : bool; }
               }"#,
        );
    }

    #[test]
    fn round_trips_dual_port_and_typedefs() {
        round_trip(
            r#"device dp (a : bit[8] port @ {0..1}) {
                 type onoff = { ON <=> '1', OFF <=> '0' };
                 register r = read a @ 0 write a @ 1 : bit[8];
                 variable v = r[0] : onoff;
                 variable rest = r[7..1] : int(7);
               }"#,
        );
    }

    #[test]
    fn prints_single_bit_range_compactly() {
        let (dev, _) = parse(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[3] : bool;
               }"#,
        );
        let printed = print_device(&dev.unwrap());
        assert!(printed.contains("r[3]"), "{printed}");
        assert!(!printed.contains("r[3..3]"), "{printed}");
    }

    #[test]
    fn prints_variable_serialization() {
        let (dev, _) = parse(
            r#"device d (data : bit[8] port @ {0..0}) {
                 register cnt_low = data @ 0 : bit[8];
                 register cnt_high = data @ 0 : bit[8];
                 variable x = cnt_high # cnt_low : int(16) serialized as {cnt_low; cnt_high;};
               }"#,
        );
        let printed = print_device(&dev.unwrap());
        assert!(printed.contains("serialized as {cnt_low; cnt_high;}"), "{printed}");
    }
}
