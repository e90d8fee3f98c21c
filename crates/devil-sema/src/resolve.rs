//! Name resolution and lowering from AST to the checked model.
//!
//! Resolution runs in phases so that forward references work (the paper's
//! specifications freely reference variables from register pre-actions
//! declared earlier in the file):
//!
//! 1. flatten conditional declarations against the bound parameters,
//! 2. collect all names (duplicate detection),
//! 3. resolve named types,
//! 4. resolve register skeletons (ports, sizes, masks, families),
//! 5. resolve variables (bit chunks, types, behaviours),
//! 6. resolve actions (register pre/post/set, variable set) and
//!    serialization plans, which may reference any variable.

use crate::model::*;
use devil_syntax::ast::{self, MaskBit};
use devil_syntax::diag::{DiagSink, ErrorCode};
use devil_syntax::span::Span;
use std::collections::HashMap;

/// Resolves `device` into a [`CheckedDevice`], binding the constant
/// integer parameters to `int_params` (name/value pairs).
///
/// Diagnostics go into `diags`; a model is returned on a best-effort
/// basis even in the presence of errors so later stages can be exercised
/// by tooling, but callers must treat it as valid only when
/// `!diags.has_errors()`.
pub fn resolve(
    device: &ast::Device,
    int_params: &[(&str, u64)],
    diags: &mut DiagSink,
) -> CheckedDevice {
    Resolver::new(device, int_params, diags).run()
}

struct Resolver<'a, 'b, 'd> {
    dev: &'a ast::Device,
    /// The caller's `int_params`, in the caller's order.
    bindings: &'b [(&'b str, u64)],
    diags: &'d mut DiagSink,

    ports: Vec<PortDef>,
    int_params: Vec<IntParamDef>,
    registers: Vec<RegDef>,
    variables: Vec<VarDef>,
    structures: Vec<StructDef>,

    /// Named-type table: name -> resolved type.
    types: HashMap<String, (TypeSem, Span)>,
    /// All declared names with their kind, for duplicate detection.
    names: HashMap<&'a str, (&'static str, Span)>,

    /// AST declarations flattened through `if` groups.
    reg_decls: Vec<&'a ast::RegisterDecl>,
    var_decls: Vec<(&'a ast::VariableDecl, Option<StructId>)>,
    struct_decls: Vec<&'a ast::StructureDecl>,
}

impl<'a, 'b, 'd> Resolver<'a, 'b, 'd> {
    fn new(
        dev: &'a ast::Device,
        int_params: &'b [(&'b str, u64)],
        diags: &'d mut DiagSink,
    ) -> Self {
        Resolver {
            dev,
            bindings: int_params,
            diags,
            ports: Vec::new(),
            int_params: Vec::new(),
            registers: Vec::new(),
            variables: Vec::new(),
            structures: Vec::new(),
            types: HashMap::new(),
            names: HashMap::new(),
            reg_decls: Vec::new(),
            var_decls: Vec::new(),
            struct_decls: Vec::new(),
        }
    }

    fn run(mut self) -> CheckedDevice {
        self.resolve_params();
        let dev = self.dev;
        self.flatten_decls(&dev.decls);
        self.resolve_typedefs();
        self.resolve_register_skeletons();
        self.resolve_variables();
        self.resolve_register_actions();
        self.resolve_serializations();
        let mut typedefs: Vec<TypeDefSem> = self
            .types
            .into_iter()
            .map(|(name, (ty, span))| TypeDefSem { name, ty, span })
            .collect();
        typedefs.sort_by_key(|a| a.span);
        CheckedDevice {
            name: self.dev.name.name.clone(),
            ports: self.ports,
            int_params: self.int_params,
            registers: self.registers,
            variables: self.variables,
            structures: self.structures,
            typedefs,
        }
    }

    fn declare(&mut self, name: &'a ast::Ident, kind: &'static str) -> bool {
        if let Some((prev_kind, prev_span)) = self.names.get(name.name.as_str()) {
            let prev_span = *prev_span;
            let prev_kind = *prev_kind;
            self.diags.push(
                devil_syntax::Diagnostic::error(
                    ErrorCode::DDuplicateName,
                    format!("`{}` is declared twice (first as a {prev_kind})", name.name),
                    name.span,
                )
                .with_note("first declaration here", Some(prev_span)),
            );
            false
        } else {
            self.names.insert(&name.name, (kind, name.span));
            true
        }
    }

    // ---- phase 1: parameters ----

    /// The value bound to integer parameter `name`; the last binding
    /// wins when the caller repeats a name.
    fn binding(&self, name: &str) -> Option<u64> {
        self.bindings.iter().rev().find(|&&(n, _)| n == name).map(|&(_, v)| v)
    }

    fn resolve_params(&mut self) {
        let dev = self.dev;
        for p in &dev.params {
            if !self.declare(&p.name, "device parameter") {
                continue;
            }
            match &p.kind {
                ast::ParamKind::Port { width, range } => {
                    // Every port access moves one byte, word or dword:
                    // the bus and the emitted `in`/`out` have no other
                    // width.
                    if !matches!(width, 8 | 16 | 32) {
                        self.diags.error(
                            ErrorCode::TWidthMismatch,
                            format!(
                                "port `{}` is {width} bits wide; a port access is 8, 16 or 32 bits",
                                p.name.name
                            ),
                            p.span,
                        );
                    }
                    let offsets = normalize_set(range);
                    self.ports.push(PortDef {
                        name: p.name.name.clone(),
                        width: *width,
                        offsets,
                        span: p.span,
                    });
                }
                ast::ParamKind::Int { ty } => {
                    let value = match self.binding(&p.name.name) {
                        Some(v) => v,
                        None => {
                            self.diags.error(
                                ErrorCode::TCondGuard,
                                format!(
                                    "integer device parameter `{}` must be bound to a value to check this device",
                                    p.name.name
                                ),
                                p.span,
                            );
                            0
                        }
                    };
                    // Width check against the declared type.
                    if let ast::TypeKind::UInt(n) = ty.kind {
                        if n < 64 && value >= (1u64 << n) {
                            self.diags.error(
                                ErrorCode::TValueRange,
                                format!(
                                    "bound value {value} does not fit parameter `{}` of type int({n})",
                                    p.name.name
                                ),
                                p.span,
                            );
                        }
                    }
                    self.int_params.push(IntParamDef {
                        name: p.name.name.clone(),
                        value,
                        span: p.span,
                    });
                }
            }
        }
        // Reject bindings that don't correspond to any parameter, once
        // per name, in the caller's order.
        for (i, &(k, _)) in self.bindings.iter().enumerate() {
            let declared = self.int_params.iter().any(|p| p.name == k);
            if declared || self.bindings[..i].iter().any(|&(n, _)| n == k) {
                continue;
            }
            self.diags.error(
                ErrorCode::TParamMismatch,
                format!("binding for unknown device parameter `{k}`"),
                self.dev.span,
            );
        }
    }

    // ---- phase 2: flatten conditionals, collect declarations ----

    fn flatten_decls(&mut self, decls: &'a [ast::Decl]) {
        for d in decls {
            match d {
                ast::Decl::Register(r) => self.reg_decls.push(r),
                ast::Decl::Variable(v) => self.var_decls.push((v, None)),
                ast::Decl::Structure(s) => self.struct_decls.push(s),
                ast::Decl::TypeDef(_) => {} // handled in resolve_typedefs
                ast::Decl::Cond(c) => {
                    let taken = self.eval_param_cond(&c.cond);
                    self.flatten_decls(if taken { &c.then } else { &c.els });
                }
            }
        }
    }

    /// Evaluates a declaration-level guard over integer parameters.
    fn eval_param_cond(&mut self, cond: &ast::Cond) -> bool {
        match cond {
            ast::Cond::Cmp { lhs, op, rhs, span } => {
                let Some(lv) = self.binding(&lhs.name) else {
                    self.diags.error(
                        ErrorCode::TCondGuard,
                        format!(
                            "conditional declarations may only test integer device parameters; `{}` is not one",
                            lhs.name
                        ),
                        lhs.span,
                    );
                    return false;
                };
                let rv = match rhs {
                    ast::ConstValue::Int(v, _) => *v,
                    ast::ConstValue::Bool(b, _) => *b as u64,
                    ast::ConstValue::Bits(b, _) => u64::from_str_radix(b, 2).unwrap_or(0),
                    ast::ConstValue::Sym(s) => {
                        self.diags.error(
                            ErrorCode::TCondGuard,
                            format!(
                                "symbol `{}` cannot be compared against a device parameter",
                                s.name
                            ),
                            *span,
                        );
                        return false;
                    }
                };
                match op {
                    ast::CmpOp::Eq => lv == rv,
                    ast::CmpOp::Ne => lv != rv,
                }
            }
            ast::Cond::And(a, b) => {
                let av = self.eval_param_cond(a);
                let bv = self.eval_param_cond(b);
                av && bv
            }
            ast::Cond::Or(a, b) => {
                let av = self.eval_param_cond(a);
                let bv = self.eval_param_cond(b);
                av || bv
            }
            ast::Cond::Not(c) => !self.eval_param_cond(c),
        }
    }

    // ---- phase 3: named types ----

    fn resolve_typedefs(&mut self) {
        // Typedefs are collected from the original declaration list (not
        // the flattened one) because they are mode-independent.
        fn collect<'x>(decls: &'x [ast::Decl], out: &mut Vec<&'x ast::TypeDef>) {
            for d in decls {
                match d {
                    ast::Decl::TypeDef(t) => out.push(t),
                    ast::Decl::Cond(c) => {
                        collect(&c.then, out);
                        collect(&c.els, out);
                    }
                    _ => {}
                }
            }
        }
        let mut defs = Vec::new();
        collect(&self.dev.decls, &mut defs);
        for t in defs {
            if !self.declare(&t.name, "type") {
                continue;
            }
            if let Some(sem) = self.resolve_type(&t.ty, None, Some(&t.name.name)) {
                self.types.insert(t.name.name.clone(), (sem, t.span));
            }
        }
    }

    /// Resolves a type expression. `var_width` is the bit width of the
    /// variable the type is attached to (None when unknown, e.g. in a
    /// typedef); `enum_name` names the enum when this is a typedef body.
    fn resolve_type(
        &mut self,
        ty: &ast::Type,
        var_width: Option<u32>,
        enum_name: Option<&str>,
    ) -> Option<TypeSem> {
        match &ty.kind {
            ast::TypeKind::UInt(n) => Some(TypeSem::UInt(*n)),
            ast::TypeKind::SInt(n) => Some(TypeSem::SInt(*n)),
            ast::TypeKind::Bool => Some(TypeSem::Bool),
            ast::TypeKind::IntSet(set) => {
                let ranges = normalize_set(set);
                let max = ranges.iter().map(|&(_, hi)| hi).max().unwrap_or(0);
                let min_width = bits_for(max).max(1);
                let width = match var_width {
                    Some(w) => {
                        if w < min_width {
                            self.diags.error(
                                ErrorCode::TWidthMismatch,
                                format!(
                                    "value set needs {min_width} bits for its maximum {max}, but the variable has only {w}"
                                ),
                                ty.span,
                            );
                        }
                        w
                    }
                    None => min_width,
                };
                Some(TypeSem::IntSet { width, set: ranges })
            }
            ast::TypeKind::Enum(e) => self.resolve_enum(e, var_width, enum_name),
            ast::TypeKind::Named(name) => match self.types.get(&name.name) {
                Some((sem, _)) => {
                    if let (TypeSem::Enum(en), Some(w)) = (sem, var_width) {
                        if en.width != w {
                            self.diags.error(
                                ErrorCode::TEnumPatternWidth,
                                format!(
                                    "type `{}` has {}-bit patterns but the variable is {w} bits wide",
                                    name.name, en.width
                                ),
                                name.span,
                            );
                        }
                    }
                    if let (TypeSem::IntSet { width, set }, Some(w)) = (sem, var_width) {
                        let max = set.iter().map(|&(_, hi)| hi).max().unwrap_or(0);
                        if bits_for(max).max(1) > w {
                            self.diags.error(
                                ErrorCode::TWidthMismatch,
                                format!("type `{}` does not fit in {w} bits", name.name),
                                name.span,
                            );
                        }
                        return Some(TypeSem::IntSet { width: w.max(*width), set: set.clone() });
                    }
                    Some(sem.clone())
                }
                None => {
                    self.diags.error(
                        ErrorCode::TUndefined,
                        format!("undefined type `{}`", name.name),
                        name.span,
                    );
                    None
                }
            },
        }
    }

    fn resolve_enum(
        &mut self,
        e: &ast::EnumType,
        var_width: Option<u32>,
        name: Option<&str>,
    ) -> Option<TypeSem> {
        let width = match var_width {
            Some(w) => w,
            None => e.arms.first().map_or(1, |a| a.pattern.len() as u32),
        };
        let mut arms: Vec<EnumArmSem> = Vec::new();
        for arm in &e.arms {
            if arm.pattern.len() as u32 != width {
                self.diags.error(
                    ErrorCode::TEnumPatternWidth,
                    format!(
                        "bit pattern `'{}'` has {} bits but {} are required",
                        arm.pattern,
                        arm.pattern.len(),
                        width
                    ),
                    arm.pattern_span,
                );
            }
            let value = u64::from_str_radix(&arm.pattern, 2).unwrap_or(0);
            if arms.iter().any(|a| a.sym == arm.sym.name) {
                self.diags.error(
                    ErrorCode::DDuplicateEnumSym,
                    format!("enum symbol `{}` is defined twice", arm.sym.name),
                    arm.sym.span,
                );
                continue;
            }
            let readable = arm.dir.readable();
            let writable = arm.dir.writable();
            if arms
                .iter()
                .any(|a| a.value == value && ((a.readable && readable) || (a.writable && writable)))
            {
                self.diags.error(
                    ErrorCode::DDuplicateEnumPattern,
                    format!(
                        "bit pattern `'{}'` is mapped twice for the same direction",
                        arm.pattern
                    ),
                    arm.pattern_span,
                );
                continue;
            }
            arms.push(EnumArmSem { sym: arm.sym.name.clone(), value, readable, writable });
        }
        Some(TypeSem::Enum(EnumSem { name: name.map(str::to_string), width, arms }))
    }

    // ---- phase 4: register skeletons ----

    fn resolve_register_skeletons(&mut self) {
        // Two passes: first declare all names (so instances can reference
        // families declared later), then resolve bodies.
        let decls = std::mem::take(&mut self.reg_decls);
        for r in &decls {
            self.declare(&r.name, "register");
        }
        // Family table: name -> index into self.registers once pushed.
        // Resolve in source order; instances of not-yet-resolved families
        // are handled by a second sweep.
        let mut pending: Vec<&ast::RegisterDecl> = Vec::new();
        for r in &decls {
            if let ast::RegSpec::Instance { .. } = &r.spec {
                pending.push(r);
                continue;
            }
            if let Some(def) = self.resolve_concrete_register(r) {
                self.registers.push(def);
            }
        }
        for r in pending {
            if let Some(def) = self.resolve_instance_register(r) {
                self.registers.push(def);
            }
        }
        self.reg_decls = decls;
    }

    fn resolve_family_params(&mut self, params: &[ast::RegParam]) -> Vec<FamilyParam> {
        let mut out = Vec::new();
        for p in params {
            if out.iter().any(|f: &FamilyParam| f.name == p.name.name) {
                self.diags.error(
                    ErrorCode::DDuplicateParam,
                    format!("family parameter `{}` is declared twice", p.name.name),
                    p.name.span,
                );
                continue;
            }
            let values = match &p.ty.kind {
                ast::TypeKind::IntSet(set) => normalize_set(set),
                ast::TypeKind::UInt(n) => {
                    let hi = if *n >= 64 { u64::MAX } else { (1u64 << *n) - 1 };
                    vec![(0, hi)]
                }
                _ => {
                    self.diags.error(
                        ErrorCode::TParamMismatch,
                        format!(
                            "family parameter `{}` must have an integer type (`int(n)` or `int{{..}}`)",
                            p.name.name
                        ),
                        p.ty.span,
                    );
                    vec![(0, 0)]
                }
            };
            out.push(FamilyParam { name: p.name.name.clone(), values, span: p.span });
        }
        out
    }

    fn resolve_concrete_register(&mut self, r: &ast::RegisterDecl) -> Option<RegDef> {
        let params = self.resolve_family_params(&r.params);
        let size = match r.size {
            Some((n, _)) => n,
            None => {
                self.diags.error(
                    ErrorCode::TMissingType,
                    format!("register `{}` needs an explicit size `: bit[n]`", r.name.name),
                    r.span,
                );
                8
            }
        };
        let (read, write) = match &r.spec {
            ast::RegSpec::Port { mode, port } => {
                let b = self.resolve_binding(port, &params, size)?;
                match mode {
                    Some(ast::Mode::Read) => (Some(b), None),
                    Some(ast::Mode::Write) => (None, Some(b)),
                    None => (Some(b.clone()), Some(b)),
                }
            }
            ast::RegSpec::Ports { read, write } => {
                let rb = self.resolve_binding(read, &params, size);
                let wb = self.resolve_binding(write, &params, size);
                (rb, wb)
            }
            ast::RegSpec::Instance { .. } => unreachable!("instances resolved separately"),
        };
        let mask = self.resolve_mask(&r.attrs, size, r.span);
        Some(RegDef {
            name: r.name.name.clone(),
            params,
            size,
            read,
            write,
            mask,
            pre: Vec::new(),
            post: Vec::new(),
            set: Vec::new(),
            span: r.span,
        })
    }

    fn resolve_instance_register(&mut self, r: &ast::RegisterDecl) -> Option<RegDef> {
        let ast::RegSpec::Instance { family: family_name, args } = &r.spec else { unreachable!() };
        let Some((fam_id, _)) = self.find_register(&family_name.name) else {
            self.diags.error(
                ErrorCode::TUndefined,
                format!("undefined register family `{}`", family_name.name),
                family_name.span,
            );
            return None;
        };
        let fam = &self.registers[fam_id.0 as usize];
        if !r.params.is_empty() {
            self.diags.error(
                ErrorCode::TParamMismatch,
                "a register-family instantiation cannot itself declare parameters",
                r.span,
            );
        }
        if args.len() != fam.params.len() {
            self.diags.error(
                ErrorCode::TParamMismatch,
                format!(
                    "family `{}` takes {} argument(s), {} supplied",
                    fam.name,
                    fam.params.len(),
                    args.len()
                ),
                r.span,
            );
            return None;
        }
        let mut values = Vec::new();
        for (a, p) in args.iter().zip(&fam.params) {
            match a {
                ast::Expr::Int(v, span) => {
                    if !p.contains(*v) {
                        self.diags.error(
                            ErrorCode::TParamMismatch,
                            format!("argument {v} is outside parameter `{}`'s value set", p.name),
                            *span,
                        );
                    }
                    values.push(*v);
                }
                ast::Expr::Sym(s) => {
                    self.diags.error(
                        ErrorCode::TParamMismatch,
                        format!(
                            "family instantiation arguments must be constants, got `{}`",
                            s.name
                        ),
                        s.span,
                    );
                    values.push(0);
                }
            }
        }
        // Inline the family: concrete ports, inherited or overridden mask.
        let size = match r.size {
            Some((n, nspan)) => {
                if n != fam.size {
                    self.diags.error(
                        ErrorCode::TWidthMismatch,
                        format!("instance size {n} differs from family size {}", fam.size),
                        nspan,
                    );
                }
                fam.size
            }
            None => fam.size,
        };
        let resolve_b = |b: &PortBinding| PortBinding {
            port: b.port,
            offset: Offset::Const(b.offset.resolve(&values)),
        };
        let read = fam.read.as_ref().map(resolve_b);
        let write = fam.write.as_ref().map(resolve_b);
        let mask = if r.attrs.iter().any(|a| matches!(a, ast::RegAttr::Mask(_))) {
            self.resolve_mask(&r.attrs, size, r.span)
        } else {
            fam.mask.clone()
        };
        // Action resolution happens later; remember the instantiation so
        // family-parameter references can be substituted.
        Some(RegDef {
            name: r.name.name.clone(),
            params: Vec::new(),
            size,
            read,
            write,
            mask,
            pre: Vec::new(),
            post: Vec::new(),
            set: Vec::new(),
            span: r.span,
        })
    }

    fn resolve_binding(
        &mut self,
        port: &ast::PortExpr,
        params: &[FamilyParam],
        size: u32,
    ) -> Option<PortBinding> {
        let Some((pid, _)) = self.find_port(&port.base.name) else {
            let kind = self.names.get(port.base.name.as_str()).map(|(k, _)| *k);
            let code = if kind.is_some() { ErrorCode::TWrongKind } else { ErrorCode::TUndefined };
            self.diags.error(code, format!("`{}` is not a port", port.base.name), port.base.span);
            return None;
        };
        let pdef = &self.ports[pid.0 as usize];
        if pdef.width != size {
            self.diags.error(
                ErrorCode::TWidthMismatch,
                format!(
                    "register size ({size} bits) must match the access width of port `{}` ({} bits)",
                    pdef.name, pdef.width
                ),
                port.span,
            );
        }
        let offset = match &port.offset {
            Some(ast::OffsetExpr::Int(v, vspan)) => {
                if !pdef.contains(*v) {
                    self.diags.error(
                        ErrorCode::TPortOffset,
                        format!("offset {v} is outside the declared range of port `{}`", pdef.name),
                        *vspan,
                    );
                }
                Offset::Const(*v)
            }
            Some(ast::OffsetExpr::Param(p)) => {
                match params.iter().position(|fp| fp.name == p.name) {
                    Some(i) => {
                        // Every value the parameter can take must be a
                        // valid offset.
                        for v in params[i].iter() {
                            if !pdef.contains(v) {
                                self.diags.error(
                                    ErrorCode::TPortOffset,
                                    format!(
                                        "parameter `{}` can be {v}, which is outside port `{}`'s range",
                                        p.name, pdef.name
                                    ),
                                    p.span,
                                );
                                break;
                            }
                        }
                        Offset::Param(i)
                    }
                    None => {
                        self.diags.error(
                            ErrorCode::TUndefined,
                            format!("`{}` is not a parameter of this register", p.name),
                            p.span,
                        );
                        Offset::Const(0)
                    }
                }
            }
            None => {
                // A bare port reference uses the port's sole offset; the
                // port must have exactly one.
                let mut offs = pdef.iter_offsets();
                match (offs.next(), offs.next()) {
                    (Some(only), None) => Offset::Const(only),
                    (first, _) => {
                        self.diags.error(
                            ErrorCode::TPortOffset,
                            format!(
                                "port `{}` has {} possible offsets; specify one with `@`",
                                pdef.name,
                                pdef.iter_offsets().count()
                            ),
                            port.span,
                        );
                        Offset::Const(first.unwrap_or(0))
                    }
                }
            }
        };
        Some(PortBinding { port: pid, offset })
    }

    fn resolve_mask(&mut self, attrs: &[ast::RegAttr], size: u32, rspan: Span) -> Vec<MaskBit> {
        let mut mask: Option<&ast::BitMask> = None;
        for a in attrs {
            if let ast::RegAttr::Mask(m) = a {
                if mask.is_some() {
                    self.diags.error(
                        ErrorCode::DDuplicateName,
                        "register has more than one mask",
                        m.span,
                    );
                }
                mask = Some(m);
            }
        }
        match mask {
            Some(m) => {
                if m.width() != size {
                    self.diags.error(
                        ErrorCode::TMaskWidth,
                        format!("mask has {} bits but the register has {size}", m.width()),
                        m.span,
                    );
                }
                // Store LSB-first; pad/truncate defensively on width error.
                let mut bits: Vec<MaskBit> = m.bits.iter().rev().copied().collect();
                bits.resize(size as usize, MaskBit::Irrelevant);
                bits
            }
            None => {
                let _ = rspan;
                vec![MaskBit::Relevant; size as usize]
            }
        }
    }

    // ---- phase 5: variables ----

    fn resolve_variables(&mut self) {
        // Collect structure declarations first so fields know their parent.
        let struct_decls = std::mem::take(&mut self.struct_decls);
        for s in &struct_decls {
            if !self.declare(&s.name, "structure") {
                continue;
            }
            let sid = StructId(self.structures.len() as u32);
            self.structures.push(StructDef {
                name: s.name.name.clone(),
                fields: Vec::new(),
                serialized: None,
                span: s.span,
            });
            for f in &s.fields {
                self.var_decls.push((f, Some(sid)));
            }
        }
        self.struct_decls = struct_decls;

        let var_decls = std::mem::take(&mut self.var_decls);
        for (v, parent) in &var_decls {
            if !self.declare(&v.name, "variable") {
                continue;
            }
            if let Some(def) = self.resolve_variable(v, *parent) {
                let vid = VarId(self.variables.len() as u32);
                if let Some(sid) = parent {
                    self.structures[sid.0 as usize].fields.push(vid);
                }
                self.variables.push(def);
            }
        }
        self.var_decls = var_decls;
    }

    fn resolve_variable(
        &mut self,
        v: &ast::VariableDecl,
        parent: Option<StructId>,
    ) -> Option<VarDef> {
        let params = self.resolve_family_params(&v.params);
        let bits = match &v.bits {
            Some(be) => Some(self.resolve_bit_expr(be, &params)?),
            None => {
                if !v.private {
                    self.diags.error(
                        ErrorCode::TMissingType,
                        format!(
                            "variable `{}` has no register mapping; only private variables may be unmapped memory cells",
                            v.name.name
                        ),
                        v.span,
                    );
                }
                None
            }
        };
        let width = bits.as_ref().map(|chunks: &Vec<BitChunk>| {
            chunks.iter().map(super::model::BitChunk::width).sum::<u32>()
        });
        let ty = match &v.ty {
            Some(t) => self.resolve_type(t, width, None)?,
            None => {
                self.diags.error(
                    ErrorCode::TMissingType,
                    format!("variable `{}` has no type", v.name.name),
                    v.span,
                );
                TypeSem::UInt(width.unwrap_or(1))
            }
        };
        if let Some(w) = width {
            let tw = ty.width();
            let exact = matches!(
                ty,
                TypeSem::UInt(_) | TypeSem::SInt(_) | TypeSem::Bool | TypeSem::Enum(_)
            );
            if exact && tw != w {
                self.diags.error(
                    ErrorCode::TWidthMismatch,
                    format!(
                        "variable `{}` selects {w} register bit(s) but its type is {tw} bit(s) wide",
                        v.name.name
                    ),
                    v.span,
                );
            }
        }
        // Behaviour attributes.
        let mut behavior = Behavior::default();
        let mut neutral_ast: Option<&ast::TriggerException> = None;
        let set_actions: Vec<Action> = Vec::new();
        for attr in &v.attrs {
            match attr {
                ast::VarAttr::Volatile(_) => behavior.volatile = true,
                ast::VarAttr::Block(_) => behavior.block = true,
                ast::VarAttr::Trigger { mode, exception, .. } => {
                    match mode {
                        Some(ast::Mode::Read) => behavior.read_trigger = true,
                        Some(ast::Mode::Write) => behavior.write_trigger = true,
                        None => {
                            behavior.read_trigger = true;
                            behavior.write_trigger = true;
                        }
                    }
                    if let Some(e) = exception {
                        neutral_ast = Some(e);
                    }
                }
                ast::VarAttr::Set(b) => {
                    // Defer: action targets may be declared later. Store
                    // the AST pointer index via a placeholder resolved in
                    // resolve_serializations. To keep things simpler we
                    // resolve immediately against what's known plus the
                    // not-yet-resolved variables; instead, stash for the
                    // late pass.
                    let _ = b;
                }
            }
        }
        let neutral = neutral_ast.and_then(|e| self.resolve_neutral(e, &ty));
        // `set` blocks and serialization plans are resolved in the late
        // pass (resolve_serializations), after all variables exist.
        let _ = &set_actions;
        Some(VarDef {
            name: v.name.name.clone(),
            private: v.private,
            params,
            bits,
            ty,
            behavior,
            neutral,
            set: Vec::new(),
            serialized: None,
            parent,
            span: v.span,
        })
    }

    fn resolve_neutral(&mut self, e: &ast::TriggerException, ty: &TypeSem) -> Option<Neutral> {
        match e {
            ast::TriggerException::Except(sym) => match ty {
                TypeSem::Enum(en) => match en.value_of(&sym.name) {
                    Some(v) => Some(Neutral::Except(v)),
                    None => {
                        self.diags.error(
                            ErrorCode::TTriggerValue,
                            format!(
                                "`{}` is not a value of this variable's enumerated type",
                                sym.name
                            ),
                            sym.span,
                        );
                        None
                    }
                },
                _ => {
                    self.diags.error(
                        ErrorCode::TTriggerValue,
                        format!(
                            "`except {}` requires the variable to have an enumerated type",
                            sym.name
                        ),
                        sym.span,
                    );
                    None
                }
            },
            ast::TriggerException::For(cv) => {
                let raw = Self::const_value_bits(self.diags, cv, ty)?;
                Some(Neutral::For(raw))
            }
        }
    }

    /// The raw bits of a constant compared against or assigned to a value
    /// of type `ty`. Takes the diagnostics instead of `self`, like
    /// [`Self::resolve_action_value`].
    fn const_value_bits(diags: &mut DiagSink, cv: &ast::ConstValue, ty: &TypeSem) -> Option<u64> {
        let v = match cv {
            ast::ConstValue::Int(v, _) => *v,
            ast::ConstValue::Bool(b, _) => *b as u64,
            ast::ConstValue::Bits(b, span) => match u64::from_str_radix(b, 2) {
                Ok(v) => v,
                Err(_) => {
                    diags.error(
                        ErrorCode::TTriggerValue,
                        format!("`'{b}'` is not a constant bit pattern"),
                        *span,
                    );
                    return None;
                }
            },
            ast::ConstValue::Sym(sym) => match ty {
                TypeSem::Enum(en) => match en.value_of(&sym.name) {
                    Some(v) => v,
                    None => {
                        diags.error(
                            ErrorCode::TUndefined,
                            format!(
                                "`{}` is not a value of the expected enumerated type",
                                sym.name
                            ),
                            sym.span,
                        );
                        return None;
                    }
                },
                _ => {
                    diags.error(
                        ErrorCode::TUndefined,
                        format!("symbol `{}` used where a constant was expected", sym.name),
                        sym.span,
                    );
                    return None;
                }
            },
        };
        if !ty.valid_write(v) {
            diags.error(
                ErrorCode::TValueRange,
                format!("value {v} is not a member of the expected type"),
                cv.span(),
            );
        }
        Some(v)
    }

    fn resolve_bit_expr(
        &mut self,
        be: &ast::BitExpr,
        params: &[FamilyParam],
    ) -> Option<Vec<BitChunk>> {
        let mut chunks = Vec::new();
        for atom in &be.atoms {
            let Some((rid, _)) = self.find_register(&atom.reg.name) else {
                let kind = self.names.get(atom.reg.name.as_str()).map(|(k, _)| *k);
                let code =
                    if kind.is_some() { ErrorCode::TWrongKind } else { ErrorCode::TUndefined };
                self.diags.error(
                    code,
                    format!("`{}` is not a register", atom.reg.name),
                    atom.reg.span,
                );
                return None;
            };
            let reg = &self.registers[rid.0 as usize];
            // Family arguments.
            let mut args = Vec::new();
            if atom.args.len() != reg.params.len() {
                self.diags.error(
                    ErrorCode::TParamMismatch,
                    format!(
                        "register `{}` takes {} argument(s), {} supplied",
                        reg.name,
                        reg.params.len(),
                        atom.args.len()
                    ),
                    atom.span,
                );
                return None;
            }
            for (a, fp) in atom.args.iter().zip(&reg.params) {
                match a {
                    ast::Expr::Int(v, vspan) => {
                        if !fp.contains(*v) {
                            self.diags.error(
                                ErrorCode::TParamMismatch,
                                format!(
                                    "argument {v} is outside parameter `{}`'s value set",
                                    fp.name
                                ),
                                *vspan,
                            );
                        }
                        args.push(ChunkArg::Const(*v));
                    }
                    ast::Expr::Sym(s) => match params.iter().position(|vp| vp.name == s.name) {
                        Some(i) => {
                            // The variable parameter's values must all be
                            // legal for the register parameter.
                            for val in params[i].iter() {
                                if !fp.contains(val) {
                                    self.diags.error(
                                        ErrorCode::TParamMismatch,
                                        format!(
                                            "variable parameter `{}` can be {val}, outside register parameter `{}`'s set",
                                            s.name, fp.name
                                        ),
                                        s.span,
                                    );
                                    break;
                                }
                            }
                            args.push(ChunkArg::Param(i));
                        }
                        None => {
                            self.diags.error(
                                ErrorCode::TUndefined,
                                format!("`{}` is not a parameter of this variable", s.name),
                                s.span,
                            );
                            args.push(ChunkArg::Const(0));
                        }
                    },
                }
            }
            // Bit ranges.
            // A zero-width register (only reachable past a parse error)
            // has no whole-register range to select.
            let ranges: Vec<(u32, u32)> = if atom.ranges.is_empty() {
                reg.size.checked_sub(1).map(|hi| vec![(hi, 0)]).unwrap_or_default()
            } else {
                atom.ranges.iter().map(|r| (r.hi, r.lo)).collect()
            };
            for &(hi, lo) in &ranges {
                if hi >= reg.size {
                    self.diags.error(
                        ErrorCode::TBitOutOfRange,
                        format!(
                            "bit {hi} is outside register `{}` (size {} bits)",
                            reg.name, reg.size
                        ),
                        atom.span,
                    );
                }
                for b in lo..hi.saturating_add(1).min(reg.size) {
                    if reg.mask[b as usize] != MaskBit::Relevant {
                        self.diags.error(
                            ErrorCode::TBitOutOfRange,
                            format!(
                                "bit {b} of register `{}` is not relevant (mask `'{}'`)",
                                reg.name,
                                reg.mask.iter().rev().map(|m| m.to_char()).collect::<String>()
                            ),
                            atom.span,
                        );
                    }
                }
            }
            chunks.push(BitChunk { reg: rid, args, ranges });
        }
        Some(chunks)
    }

    // ---- phase 6: late resolution (actions, serialization) ----

    fn resolve_register_actions(&mut self) {
        let decls = std::mem::take(&mut self.reg_decls);
        for &r in &decls {
            let Some((rid, _)) = self.find_register(&r.name.name) else { continue };
            // For instances, substitute family parameters by constants and
            // inherit the family's actions.
            let (fam_decl, subst, own_params) = match &r.spec {
                ast::RegSpec::Instance { family, args } => {
                    let fam_decl = decls.iter().find(|d| d.name.name == family.name).copied();
                    let consts: Vec<u64> = args
                        .iter()
                        .map(|a| match a {
                            ast::Expr::Int(v, _) => *v,
                            ast::Expr::Sym(_) => 0,
                        })
                        .collect();
                    let fam_params =
                        fam_decl.map(|d| self.resolve_family_params(&d.params)).unwrap_or_default();
                    (fam_decl, consts, fam_params)
                }
                _ => {
                    let params = self.resolve_family_params(&r.params);
                    (None, Vec::new(), params)
                }
            };
            let mut pre = Vec::new();
            let mut post = Vec::new();
            let mut set = Vec::new();
            let inherited = fam_decl.map(|d| d.attrs.as_slice()).unwrap_or_default();
            for (kind, block) in
                collect_action_blocks(inherited).chain(collect_action_blocks(&r.attrs))
            {
                for stmt in &block.stmts {
                    if let Some(a) = self.resolve_action(stmt, &own_params, &subst) {
                        match kind {
                            ActionKind::Pre => pre.push(a),
                            ActionKind::Post => post.push(a),
                            ActionKind::Set => set.push(a),
                        }
                    }
                }
            }
            let def = &mut self.registers[rid.0 as usize];
            def.pre = pre;
            def.post = post;
            def.set = set;
        }
        self.reg_decls = decls;
        // Variable `set` blocks.
        let var_decls = std::mem::take(&mut self.var_decls);
        for &(v, _) in &var_decls {
            let Some((vid, vdef)) = self.find_variable(&v.name.name) else { continue };
            let has_set = v.attrs.iter().any(|a| matches!(a, ast::VarAttr::Set(_)));
            let params = if has_set { vdef.params.clone() } else { Vec::new() };
            let mut actions = Vec::new();
            for attr in &v.attrs {
                if let ast::VarAttr::Set(b) = attr {
                    for stmt in &b.stmts {
                        if let Some(a) = self.resolve_action(stmt, &params, &[]) {
                            actions.push(a);
                        }
                    }
                }
            }
            self.variables[vid.0 as usize].set = actions;
        }
        self.var_decls = var_decls;
    }

    /// Resolves one action statement. `params` are the enclosing family
    /// parameters; `subst` maps family-parameter indices to constants
    /// when resolving an inherited (instance) action.
    fn resolve_action(
        &mut self,
        stmt: &ast::ActionStmt,
        params: &[FamilyParam],
        subst: &[u64],
    ) -> Option<Action> {
        // Target: variable or structure.
        if let Some((vid, vdef)) = find_variable(&self.variables, &stmt.target.name) {
            let value = Self::resolve_action_value(
                self.diags,
                &self.variables,
                &stmt.value,
                Some(&vdef.ty),
                params,
                subst,
            )?;
            return Some(Action { target: ActionTarget::Var(vid), value, span: stmt.span });
        }
        if let Some((sid, _)) = self.find_structure(&stmt.target.name) {
            let value = match &stmt.value {
                ast::ActionValue::Struct(fields, _span) => {
                    let mut out = Vec::new();
                    for (fname, fval) in fields {
                        match find_variable(&self.variables, &fname.name) {
                            Some((fvid, fdef)) => {
                                if fdef.parent != Some(sid) {
                                    self.diags.error(
                                        ErrorCode::TStructureMisuse,
                                        format!(
                                            "`{}` is not a field of structure `{}`",
                                            fname.name, stmt.target.name
                                        ),
                                        fname.span,
                                    );
                                }
                                let v = Self::resolve_action_value(
                                    self.diags,
                                    &self.variables,
                                    fval,
                                    Some(&fdef.ty),
                                    params,
                                    subst,
                                )?;
                                out.push((fvid, v));
                            }
                            None => {
                                self.diags.error(
                                    ErrorCode::TUndefined,
                                    format!("undefined structure field `{}`", fname.name),
                                    fname.span,
                                );
                                return None;
                            }
                        }
                    }
                    ActionValue::Struct(out)
                }
                other => {
                    self.diags.error(
                        ErrorCode::TStructureMisuse,
                        "assigning to a structure requires a `{field => value; ...}` value",
                        other.span(),
                    );
                    return None;
                }
            };
            return Some(Action { target: ActionTarget::Struct(sid), value, span: stmt.span });
        }
        self.diags.error(
            ErrorCode::TUndefined,
            format!("`{}` is not a variable or structure", stmt.target.name),
            stmt.target.span,
        );
        None
    }

    /// Resolves an action's right-hand side against its target's type.
    /// Takes the diagnostics and variable table instead of `self`, so
    /// callers can pass a type borrowed from that table.
    fn resolve_action_value(
        diags: &mut DiagSink,
        variables: &[VarDef],
        v: &ast::ActionValue,
        target_ty: Option<&TypeSem>,
        params: &[FamilyParam],
        subst: &[u64],
    ) -> Option<ActionValue> {
        match v {
            ast::ActionValue::Int(n, span) => {
                if let Some(ty) = target_ty {
                    if !ty.valid_write(*n) {
                        diags.error(
                            ErrorCode::TActionValue,
                            format!("value {n} is not a member of the target's type"),
                            *span,
                        );
                    }
                }
                Some(ActionValue::Const(*n))
            }
            ast::ActionValue::Any(_) => Some(ActionValue::Any),
            ast::ActionValue::Bool(b, span) => {
                if let Some(ty) = target_ty {
                    if !matches!(ty, TypeSem::Bool) {
                        diags.error(
                            ErrorCode::TActionValue,
                            "boolean value assigned to a non-boolean target",
                            *span,
                        );
                    }
                }
                Some(ActionValue::Const(*b as u64))
            }
            ast::ActionValue::Sym(sym) => {
                // Priority: family parameter, enum symbol of target type,
                // variable reference.
                if let Some(i) = params.iter().position(|p| p.name == sym.name) {
                    if let Some(&c) = subst.get(i) {
                        return Some(ActionValue::Const(c));
                    }
                    return Some(ActionValue::Param(i));
                }
                if let Some(TypeSem::Enum(en)) = target_ty {
                    if let Some(val) = en.value_of(&sym.name) {
                        return Some(ActionValue::Const(val));
                    }
                }
                if let Some((vid, _)) = find_variable(variables, &sym.name) {
                    return Some(ActionValue::Var(vid));
                }
                diags.error(
                    ErrorCode::TUndefined,
                    format!("undefined value `{}` in action", sym.name),
                    sym.span,
                );
                None
            }
            ast::ActionValue::Struct(_, span) => {
                diags.error(
                    ErrorCode::TStructureMisuse,
                    "structure value assigned to a non-structure target",
                    *span,
                );
                None
            }
        }
    }

    fn resolve_serializations(&mut self) {
        // Variable-level serialization plans.
        let var_decls = std::mem::take(&mut self.var_decls);
        for &(v, _) in &var_decls {
            let Some(ser) = &v.serialized else { continue };
            let Some((vid, vdef)) = self.find_variable(&v.name.name) else { continue };
            let regs: Vec<RegId> = vdef
                .bits
                .as_ref()
                .map(|chunks| chunks.iter().map(|c| c.reg).collect())
                .unwrap_or_default();
            let plan = self.resolve_ser_block(ser, &regs, None);
            self.variables[vid.0 as usize].serialized = plan;
        }
        self.var_decls = var_decls;
        // Structure-level serialization plans.
        let struct_decls = std::mem::take(&mut self.struct_decls);
        for &s in &struct_decls {
            let Some(ser) = &s.serialized else { continue };
            let Some((sid, sdef)) = self.find_structure(&s.name.name) else { continue };
            let mut regs: Vec<RegId> = Vec::new();
            for &fid in &sdef.fields {
                if let Some(chunks) = &self.variables[fid.0 as usize].bits {
                    for c in chunks {
                        if !regs.contains(&c.reg) {
                            regs.push(c.reg);
                        }
                    }
                }
            }
            let fields = sdef.fields.clone();
            let plan = self.resolve_ser_block(ser, &regs, Some(&fields));
            self.structures[sid.0 as usize].serialized = plan;
        }
        self.struct_decls = struct_decls;
    }

    /// `allowed` is the set of registers backing the serialized entity;
    /// `members` restricts condition variables for structures.
    fn resolve_ser_block(
        &mut self,
        block: &ast::SerBlock,
        allowed: &[RegId],
        members: Option<&[VarId]>,
    ) -> Option<SerPlan> {
        let steps = self.resolve_ser_items(&block.items, allowed, members)?;
        Some(SerPlan { steps })
    }

    fn resolve_ser_items(
        &mut self,
        items: &[ast::SerItem],
        allowed: &[RegId],
        members: Option<&[VarId]>,
    ) -> Option<Vec<SerStep>> {
        let mut out = Vec::new();
        for item in items {
            match item {
                ast::SerItem::Reg(name) => {
                    let Some((rid, _)) = self.find_register(&name.name) else {
                        self.diags.error(
                            ErrorCode::TSerialization,
                            format!("`{}` is not a register", name.name),
                            name.span,
                        );
                        return None;
                    };
                    if !allowed.contains(&rid) {
                        self.diags.error(
                            ErrorCode::TSerialization,
                            format!("register `{}` does not back the serialized entity", name.name),
                            name.span,
                        );
                    }
                    out.push(SerStep::Reg(rid));
                }
                ast::SerItem::If { cond, then, els, .. } => {
                    let cond = self.resolve_cond(cond, members)?;
                    let then =
                        self.resolve_ser_items(std::slice::from_ref(then), allowed, members)?;
                    let els = match els {
                        Some(e) => {
                            self.resolve_ser_items(std::slice::from_ref(e), allowed, members)?
                        }
                        None => Vec::new(),
                    };
                    out.push(SerStep::If { cond, then, els });
                }
                ast::SerItem::Block(items, _) => {
                    let inner = self.resolve_ser_items(items, allowed, members)?;
                    out.extend(inner);
                }
            }
        }
        Some(out)
    }

    fn resolve_cond(&mut self, cond: &ast::Cond, members: Option<&[VarId]>) -> Option<CondSem> {
        match cond {
            ast::Cond::Cmp { lhs, op, rhs, .. } => {
                let Some((vid, vdef)) = find_variable(&self.variables, &lhs.name) else {
                    self.diags.error(
                        ErrorCode::TSerialization,
                        format!("`{}` is not a variable", lhs.name),
                        lhs.span,
                    );
                    return None;
                };
                if let Some(m) = members {
                    if !m.contains(&vid) {
                        self.diags.error(
                            ErrorCode::TSerialization,
                            format!(
                                "serialization conditions may only test structure members; `{}` is not one",
                                lhs.name
                            ),
                            lhs.span,
                        );
                    }
                }
                let value = Self::const_value_bits(self.diags, rhs, &vdef.ty)?;
                Some(CondSem::Cmp { var: vid, eq: matches!(op, ast::CmpOp::Eq), value })
            }
            ast::Cond::And(a, b) => {
                let a = self.resolve_cond(a, members)?;
                let b = self.resolve_cond(b, members)?;
                Some(CondSem::And(Box::new(a), Box::new(b)))
            }
            ast::Cond::Or(a, b) => {
                let a = self.resolve_cond(a, members)?;
                let b = self.resolve_cond(b, members)?;
                Some(CondSem::Or(Box::new(a), Box::new(b)))
            }
            ast::Cond::Not(a) => {
                let a = self.resolve_cond(a, members)?;
                Some(CondSem::Not(Box::new(a)))
            }
        }
    }

    // ---- lookups ----

    fn find_port(&self, name: &str) -> Option<(PortId, &PortDef)> {
        self.ports
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
            .map(|(i, p)| (PortId(i as u32), p))
    }

    fn find_register(&self, name: &str) -> Option<(RegId, &RegDef)> {
        self.registers
            .iter()
            .enumerate()
            .find(|(_, r)| r.name == name)
            .map(|(i, r)| (RegId(i as u32), r))
    }

    fn find_variable(&self, name: &str) -> Option<(VarId, &VarDef)> {
        find_variable(&self.variables, name)
    }

    fn find_structure(&self, name: &str) -> Option<(StructId, &StructDef)> {
        self.structures
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (StructId(i as u32), s))
    }
}

/// Looks a variable up by name in `variables`.
fn find_variable<'v>(variables: &'v [VarDef], name: &str) -> Option<(VarId, &'v VarDef)> {
    variables.iter().enumerate().find(|(_, v)| v.name == name).map(|(i, v)| (VarId(i as u32), v))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ActionKind {
    Pre,
    Post,
    Set,
}

fn collect_action_blocks(
    attrs: &[ast::RegAttr],
) -> impl Iterator<Item = (ActionKind, &ast::ActionBlock)> {
    attrs.iter().filter_map(|a| match a {
        ast::RegAttr::Pre(b) => Some((ActionKind::Pre, b)),
        ast::RegAttr::Post(b) => Some((ActionKind::Post, b)),
        ast::RegAttr::Set(b) => Some((ActionKind::Set, b)),
        ast::RegAttr::Mask(_) => None,
    })
}

/// Normalizes an AST integer set into sorted, merged inclusive ranges.
fn normalize_set(set: &ast::IntSet) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = set
        .items
        .iter()
        .map(|it| match *it {
            ast::IntSetItem::Single(v) => (v, v),
            ast::IntSetItem::Range(lo, hi) => (lo, hi),
        })
        .collect();
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some((_, phi)) if lo <= phi.saturating_add(1) => *phi = (*phi).max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_syntax::parse;

    fn resolve_src(src: &str) -> (CheckedDevice, DiagSink) {
        let (dev, mut diags) = parse(src);
        let dev = dev.expect("parse produced no device");
        assert!(!diags.has_errors(), "parse errors: {:#?}", diags.all());
        let model = resolve(&dev, &[], &mut diags);
        (model, diags)
    }

    fn resolve_ok(src: &str) -> CheckedDevice {
        let (model, diags) = resolve_src(src);
        assert!(!diags.has_errors(), "resolve errors: {:#?}", diags.all());
        model
    }

    const MINI: &str = r#"
device mini (base : bit[8] port @ {0..1}) {
  register a = base @ 0 : bit[8];
  register b = write base @ 1, mask '1**00000' : bit[8];
  variable whole = a : int(8);
  variable two = b[6..5] : int(2);
}
"#;

    #[test]
    fn resolves_mini_device() {
        let m = resolve_ok(MINI);
        assert_eq!(m.ports.len(), 1);
        assert_eq!(m.registers.len(), 2);
        assert_eq!(m.variables.len(), 2);
        let (_, a) = m.register("a").unwrap();
        assert!(a.readable() && a.writable());
        let (_, b) = m.register("b").unwrap();
        assert!(!b.readable() && b.writable());
        assert_eq!(b.relevant_bits(), 0b0110_0000);
        assert_eq!(b.forced_masks(), (0b1000_0000, 0b1110_0000));
        let (_, two) = m.variable("two").unwrap();
        assert_eq!(two.width(), 2);
        assert_eq!(two.bits.as_ref().unwrap()[0].ranges, vec![(6, 5)]);
    }

    #[test]
    fn whole_register_reference_uses_full_width() {
        let m = resolve_ok(MINI);
        let (_, whole) = m.variable("whole").unwrap();
        assert_eq!(whole.width(), 8);
        assert_eq!(whole.bits.as_ref().unwrap()[0].ranges, vec![(7, 0)]);
    }

    #[test]
    fn error_undefined_port() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = nothere @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TUndefined));
    }

    #[test]
    fn error_port_offset_out_of_range() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register r = base @ 2 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TPortOffset));
    }

    #[test]
    fn error_register_port_width_mismatch() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[16] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TWidthMismatch));
    }

    #[test]
    fn error_port_width_outside_8_16_32() {
        let (_, diags) = resolve_src(
            r#"device w12 (base : bit[12] port @ {0..0}) {
                 register r = base @ 0 : bit[12];
                 variable v = r : int(12);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TWidthMismatch));
        for width in [8, 16, 32] {
            resolve_ok(&format!(
                "device d (base : bit[{width}] port @ {{0..0}}) {{
                   register r = base @ 0 : bit[{width}];
                   variable v = r : int({width});
                 }}"
            ));
        }
    }

    #[test]
    fn error_mask_width() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '****' : bit[8];
                 variable v = r[3..0] : int(4);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TMaskWidth));
    }

    #[test]
    fn error_variable_type_width_mismatch() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[3..0] : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TWidthMismatch));
    }

    #[test]
    fn error_bit_out_of_range() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[8] : bool;
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TBitOutOfRange));
    }

    #[test]
    fn error_variable_on_forced_mask_bit() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = write base @ 0, mask '0000000*' : bit[8];
                 variable v = r[1] : bool;
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TBitOutOfRange));
    }

    #[test]
    fn error_duplicate_names() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register r = base @ 0 : bit[8];
                 register r = base @ 1 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::DDuplicateName));
    }

    #[test]
    fn error_duplicate_enum_symbol_and_pattern() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[1..0] : { A => '01', A => '10' };
                 variable w = r[3..2] : { X => '01', Y => '01' };
                 variable rest = r[7..4] : int(4);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::DDuplicateEnumSym));
        assert!(diags.has_code(ErrorCode::DDuplicateEnumPattern));
    }

    #[test]
    fn pre_action_resolves_forward_variable() {
        // `x_low` references `index`, declared earlier; also test that a
        // register's pre-action may reference a variable declared later.
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..2}) {
                 register x_low = read base @ 0, pre {index = 0} : bit[8];
                 register index_reg = write base @ 2, mask '1**00000' : bit[8];
                 private variable index = index_reg[6..5] : int(2);
                 variable xv = x_low : int(8);
                 register unused_filler = base @ 1 : bit[8];
                 variable filler = unused_filler : int(8);
               }"#,
        );
        let (_, x_low) = m.register("x_low").unwrap();
        assert_eq!(x_low.pre.len(), 1);
        let (iid, _) = m.variable("index").unwrap();
        assert!(matches!(x_low.pre[0].target, ActionTarget::Var(v) if v == iid));
        assert!(matches!(x_low.pre[0].value, ActionValue::Const(0)));
    }

    #[test]
    fn family_instance_inlines_ports_and_actions() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0 : bit[8];
                 variable IA = control : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 register I23 = I(23), mask '*******0';
                 variable ACF = I23[7..1] : int(7);
                 variable ID(i : int{0..31}) = I(i), volatile : int(8);
               }"#,
        );
        let (_, i23) = m.register("I23").unwrap();
        assert_eq!(i23.size, 8);
        assert!(i23.params.is_empty());
        // Family parameter `i` substituted by 23 in the inherited pre.
        assert_eq!(i23.pre.len(), 1);
        assert!(matches!(i23.pre[0].value, ActionValue::Const(23)));
        // Mask overridden.
        assert_eq!(i23.relevant_bits(), 0b1111_1110);
        // Parameterized variable keeps the parameter symbolic.
        let (_, id) = m.variable("ID").unwrap();
        assert_eq!(id.params.len(), 1);
        let chunk = &id.bits.as_ref().unwrap()[0];
        assert_eq!(chunk.args, vec![ChunkArg::Param(0)]);
        // The family register keeps its own symbolic pre-action.
        let (_, fam) = m.register("I").unwrap();
        assert!(matches!(fam.pre[0].value, ActionValue::Param(0)));
    }

    #[test]
    fn error_family_arg_out_of_set() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0 : bit[8];
                 variable IA = control : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 register I40 = I(40);
                 variable v = I40 : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TParamMismatch));
    }

    #[test]
    fn error_family_wrong_arity() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0 : bit[8];
                 variable IA = control : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 register bad = I(1, 2);
                 variable v = bad : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TParamMismatch));
    }

    #[test]
    fn structure_fields_get_parent_and_order() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 structure s = {
                   variable lo = r[3..0], volatile : int(4);
                   variable hi = r[7..4], volatile : int(4);
                 };
               }"#,
        );
        let (sid, sdef) = m.structure("s").unwrap();
        assert_eq!(sdef.fields.len(), 2);
        let (lid, lo) = m.variable("lo").unwrap();
        assert_eq!(lo.parent, Some(sid));
        assert_eq!(sdef.fields[0], lid);
    }

    #[test]
    fn serialized_variable_plan() {
        let m = resolve_ok(
            r#"device d (data : bit[8] port @ {0..0}, ctl : bit[8] port @ {1..1}) {
                 register ff = write ctl @ 1, mask '0000000*' : bit[8];
                 private variable flip_flop = ff[0] : bool;
                 register cnt_low = data @ 0, pre {flip_flop = *} : bit[8];
                 register cnt_high = data @ 0 : bit[8];
                 variable x = cnt_high # cnt_low : int(16) serialized as {cnt_low; cnt_high;};
               }"#,
        );
        let (_, x) = m.variable("x").unwrap();
        let plan = x.serialized.as_ref().unwrap();
        assert_eq!(plan.steps.len(), 2);
        let (lo_id, _) = m.register("cnt_low").unwrap();
        assert!(matches!(plan.steps[0], SerStep::Reg(r) if r == lo_id));
        // The pre-action strobe resolved to Any.
        let (_, cnt_low) = m.register("cnt_low").unwrap();
        assert!(matches!(cnt_low.pre[0].value, ActionValue::Any));
    }

    #[test]
    fn error_serialized_register_not_backing() {
        let (_, diags) = resolve_src(
            r#"device d (data : bit[8] port @ {0..1}) {
                 register a = data @ 0 : bit[8];
                 register b = data @ 1 : bit[8];
                 variable x = a : int(8) serialized as {b;};
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TSerialization));
    }

    #[test]
    fn conditional_decls_flatten_by_binding() {
        let src = r#"device d (base : bit[8] port @ {0..0}, mode : int(1)) {
                 register r = base @ 0 : bit[8];
                 if (mode == 1) {
                   variable a = r : int(8);
                 } else {
                   variable b = r : int(8);
                 }
               }"#;
        let (dev, mut diags) = parse(src);
        let dev = dev.unwrap();
        let m1 = resolve(&dev, &[("mode", 1)], &mut diags);
        assert!(!diags.has_errors(), "{:#?}", diags.all());
        assert!(m1.variable("a").is_some());
        assert!(m1.variable("b").is_none());
        let mut diags2 = DiagSink::new();
        let m0 = resolve(&dev, &[("mode", 0)], &mut diags2);
        assert!(m0.variable("b").is_some());
        assert!(m0.variable("a").is_none());
    }

    #[test]
    fn error_unbound_int_param() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}, mode : int(1)) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TCondGuard));
    }

    #[test]
    fn error_unknown_binding() {
        let (dev, mut diags) = parse(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let _ = resolve(&dev.unwrap(), &[("ghost", 1)], &mut diags);
        assert!(diags.has_code(ErrorCode::TParamMismatch));
    }

    #[test]
    fn unknown_bindings_are_reported_in_the_callers_order() {
        let (dev, _) = parse(
            r#"device d (base : bit[8] port @ {0..0}, mode : int(1)) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let dev = dev.unwrap();
        // Several orders, so a hash order cannot match them all by luck;
        // a repeated unknown name is reported once.
        for names in [["zeta", "alpha", "mid"], ["alpha", "zeta", "mid"], ["mid", "zeta", "alpha"]]
        {
            let bindings =
                [(names[0], 1), ("mode", 0), (names[1], 2), (names[2], 3), (names[0], 4)];
            let mut diags = DiagSink::new();
            let _ = resolve(&dev, &bindings, &mut diags);
            let reported: Vec<&str> = diags
                .all()
                .iter()
                .filter(|d| d.code == ErrorCode::TParamMismatch)
                .map(|d| d.message.as_str())
                .collect();
            let expected: Vec<String> = names
                .iter()
                .map(|n| format!("binding for unknown device parameter `{n}`"))
                .collect();
            assert_eq!(reported, expected);
        }
    }

    #[test]
    fn trigger_neutral_resolution() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL => '00', START <=> '01', STOP <=> '10' };
                 variable rest = cmd[7..2] : int(6);
               }"#,
        );
        let (_, st) = m.variable("st").unwrap();
        assert_eq!(st.neutral, Some(Neutral::Except(0)));
        assert!(st.behavior.write_trigger);
        assert!(!st.behavior.read_trigger);
    }

    #[test]
    fn error_trigger_neutral_not_in_type() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except MISSING
                   : { NEUTRAL => '00', START <=> '01' };
                 variable rest = cmd[7..2] : int(6);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TTriggerValue));
    }

    #[test]
    fn trigger_for_bool() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable XRAE = r[0], write trigger for true : bool;
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        let (_, x) = m.variable("XRAE").unwrap();
        assert_eq!(x.neutral, Some(Neutral::For(1)));
    }

    #[test]
    fn unmapped_private_memory_variable() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        let (xid, xm) = m.variable("xm").unwrap();
        assert!(xm.is_memory());
        assert_eq!(xm.width(), 1);
        let (_, control) = m.register("control").unwrap();
        assert!(matches!(control.set[0].target, ActionTarget::Var(v) if v == xid));
    }

    #[test]
    fn error_public_unmapped_variable() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 variable ghost : bool;
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TMissingType));
    }

    #[test]
    fn struct_valued_pre_action() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register idx = write base @ 0, mask '000***00' : bit[8];
                 structure XS = {
                   variable XA = idx[4..2] : int(3);
                 };
                 register data = base @ 1, pre {XS = {XA => 5}} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        let (_, data) = m.register("data").unwrap();
        let (sid, _) = m.structure("XS").unwrap();
        assert!(matches!(data.pre[0].target, ActionTarget::Struct(s) if s == sid));
        match &data.pre[0].value {
            ActionValue::Struct(fields) => {
                assert_eq!(fields.len(), 1);
                assert!(matches!(fields[0].1, ActionValue::Const(5)));
            }
            other => panic!("wrong value: {other:?}"),
        }
    }

    #[test]
    fn error_action_value_out_of_type() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register idx = write base @ 0, mask '000000**' : bit[8];
                 private variable sel = idx[1..0] : int(2);
                 register data = base @ 1, pre {sel = 9} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TActionValue));
    }

    #[test]
    fn normalize_set_merges_adjacent() {
        use devil_syntax::ast::{IntSet, IntSetItem};
        let set = IntSet {
            items: vec![
                IntSetItem::Range(4, 6),
                IntSetItem::Single(7),
                IntSetItem::Range(0, 2),
                IntSetItem::Single(25),
            ],
            span: Span::DUMMY,
        };
        assert_eq!(normalize_set(&set), vec![(0, 2), (4, 7), (25, 25)]);
    }

    #[test]
    fn int_set_type_width_comes_from_variable() {
        let m = resolve_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register control = base @ 0 : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        let (_, ia) = m.variable("IA").unwrap();
        assert_eq!(ia.ty.width(), 8, "IntSet adopts the variable's 8-bit width");
        assert!(ia.ty.valid_write(31));
        assert!(!ia.ty.valid_write(32));
    }

    #[test]
    fn error_int_set_too_wide_for_variable() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[1..0] : int{0..31};
                 variable rest = r[7..2] : int(6);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TWidthMismatch));
    }

    #[test]
    fn dual_port_register_directions() {
        let m = resolve_ok(
            r#"device d (a : bit[8] port @ {0..1}) {
                 register r = read a @ 0 write a @ 1 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let (_, r) = m.register("r").unwrap();
        assert!(r.readable() && r.writable());
        assert_ne!(r.read, r.write);
    }

    #[test]
    fn named_type_resolution_and_width_check() {
        let (_, diags) = resolve_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 type wide = { A <=> '0011', B <=> '1100' };
                 register r = base @ 0 : bit[8];
                 variable v = r[0] : wide;
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TEnumPatternWidth));
    }

    #[test]
    fn zero_width_register_is_an_error_not_a_panic() {
        // `bit[0]` is a parse error; resolution of the AST the parser
        // still returns must report, not index past the empty mask or
        // underflow the whole-register range.
        for var in ["variable v = r[0] : bool;", "variable v = r : int(8);"] {
            let src = format!(
                "device d (base : bit[8] port @ {{0..0}}) {{ register r = base @ 0 : bit[0]; {var} }}"
            );
            let (dev, mut diags) = parse(&src);
            let dev = dev.expect("the parser recovers a device");
            let _ = resolve(&dev, &[], &mut diags);
            assert!(diags.has_errors(), "{var}: expected an error diagnostic");
        }
    }
}
