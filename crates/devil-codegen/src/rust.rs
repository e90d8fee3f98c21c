//! The Rust stub emitter: generates a typed module over
//! `devil_runtime::DeviceAccess`.
//!
//! Where the C backend reproduces the paper's macro output, the Rust
//! backend is what a modern release would ship (the `svd2rust` shape):
//! a struct holding the cache, inherent methods per variable, enums for
//! enumerated types, and structure readers that fill the cache.
//!
//! Like the C backend, every access with a compiled plan gets a method,
//! lowered from the precompiled [`devil_ir::PlanStep`] arena — the same
//! step sequences the plan executor runs. Guard-split conditional
//! serializations emit a [`devil_ir::PlanGuard`]-driven `if`/`else if`
//! chain selecting one straight-line variant.
//!
//! Family variable methods take their arguments before the value
//! (`get_ID(dev, a0)`, `set_ID(dev, a0, v)`) and return a `Result`: an
//! argument outside its parameter's domain fails with the runtime's
//! `RtError::ArgOutOfRange` before any bus op or cache change.

use crate::plan::{
    families, fixed_pairs, gets_field, offset_operand, stages_field, Dense, Field, PortOff, Shift,
};
use devil_ir::{
    AccessPlan, AccessStep, Compose, DeviceIr, FieldSeg, FuseOp, GuardSource, PlanSlot, PlanStep,
    PlanValue, Superplan, VarIr, WriteSeg,
};
use devil_sema::model::TypeSem;
use std::fmt::{self, Write as _};

/// Emits a Rust module implementing the device interface.
pub fn emit_rust(ir: &DeviceIr) -> String {
    let mut out = String::new();
    let ty_name = camel(&ir.name);
    let _ = writeln!(out, "// Generated by devilc from device `{}`. Do not edit.", ir.name);
    // Method and field names come from spec identifiers (`get_ID`), and
    // a superplan takes as many operands as its spec declares.
    let _ = writeln!(
        out,
        "#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]"
    );
    let _ = writeln!(out, "use devil_runtime::DeviceAccess;\n");

    // Enumerated types.
    for var in &ir.vars {
        if let TypeSem::Enum(en) = &var.ty {
            let ename = camel(&format!("{}_{}", ir.name, var.name));
            let _ = writeln!(out, "/// Values of the `{}` variable.", var.name);
            let _ = writeln!(out, "#[derive(Clone, Copy, Debug, PartialEq, Eq)]");
            let _ = writeln!(out, "pub enum {ename} {{");
            for arm in &en.arms {
                let _ = writeln!(out, "    /// `'{:b}'`", arm.value);
                let _ = writeln!(out, "    {},", camel(&arm.sym.to_lowercase()));
            }
            let _ = writeln!(out, "}}");
            let _ = writeln!(out, "impl {ename} {{");
            let _ = writeln!(out, "    /// The raw bit pattern.");
            let _ = writeln!(out, "    pub fn bits(self) -> u64 {{");
            let _ = writeln!(out, "        match self {{");
            for arm in &en.arms {
                let _ = writeln!(
                    out,
                    "            {ename}::{} => {:#x},",
                    camel(&arm.sym.to_lowercase()),
                    arm.value
                );
            }
            let _ = writeln!(out, "        }}\n    }}\n}}\n");
        }
    }

    // The device struct: per-register cache (+ validity), one vector of
    // each per register family, and the memory cells.
    // Family caches are vectors sized by `new`, so a device with
    // families implements `Default` through `new` rather than deriving
    // one that would leave them empty.
    let sized = families(ir).next().is_some();
    let _ = writeln!(out, "/// Generated interface for `{}`.", ir.name);
    if !sized {
        let _ = writeln!(out, "#[derive(Default)]");
    }
    let _ = writeln!(out, "pub struct {ty_name} {{");
    // Cache and cell fields are `pub` so differential harnesses can
    // compare final state against the interpreter's — the Rust twin of
    // the C stub's plainly visible cache struct.
    for reg in &ir.regs {
        if reg.params.is_empty() {
            let _ = writeln!(out, "    pub cache_{}: u64,", reg.name);
            let _ = writeln!(out, "    pub valid_{}: bool,", reg.name);
        } else if reg.family_slots.is_some() {
            let _ = writeln!(out, "    pub cache_{}: Vec<u64>,", reg.name);
            let _ = writeln!(out, "    pub valid_{}: Vec<bool>,", reg.name);
        }
    }
    for var in ir.vars.iter().filter(|v| v.mem_cell.is_some()) {
        let _ = writeln!(out, "    pub mem_{}: u64,", var.name);
    }
    let _ = writeln!(out, "}}\n");
    if sized {
        let _ = writeln!(
            out,
            "impl Default for {ty_name} {{\n    fn default() -> Self {{\n        Self::new()\n    }}\n}}\n"
        );
    }
    let _ = writeln!(out, "impl {ty_name} {{");
    let _ = writeln!(out, "    /// Creates an interface with a cold cache.");
    let _ = writeln!(out, "    pub fn new() -> Self {{");
    if !sized {
        let _ = writeln!(out, "        Self::default()\n    }}\n");
    } else {
        let _ = writeln!(out, "        Self {{");
        for reg in &ir.regs {
            let _ = match &reg.family_slots {
                _ if reg.params.is_empty() => {
                    writeln!(out, "            cache_{0}: 0,\n            valid_{0}: false,", reg.name)
                }
                Some(fs) => writeln!(
                    out,
                    "            cache_{0}: vec![0; {1}],\n            valid_{0}: vec![false; {1}],",
                    reg.name, fs.count
                ),
                None => Ok(()),
            };
        }
        for var in ir.vars.iter().filter(|v| v.mem_cell.is_some()) {
            let _ = writeln!(out, "            mem_{}: 0,", var.name);
        }
        let _ = writeln!(out, "        }}\n    }}\n");
    }

    // Register primitives: the raw device access plus cache update.
    // Actions never live here — the plan steps sequence them. A family
    // primitive takes the instance's cache index and port offset.
    for reg in &ir.regs {
        let family = !reg.params.is_empty();
        if family && reg.family_slots.is_none() {
            continue;
        }
        let (params, at) = if family { (", k: usize, offset: u64", "[k]") } else { ("", "") };
        if let Some(b) = &reg.read {
            let _ = writeln!(
                out,
                "    fn read_{}(&mut self, dev: &mut dyn DeviceAccess{params}) {{",
                reg.name
            );
            let _ = writeln!(
                out,
                "        self.cache_{}{at} = dev.read({}, {}, {});",
                reg.name,
                b.port.0,
                PortOff((!family).then_some(&b.offset), "offset"),
                reg.size
            );
            let _ = writeln!(out, "        self.valid_{}{at} = true;\n    }}\n", reg.name);
        }
        if let Some(b) = &reg.write {
            let _ = writeln!(
                out,
                "    fn write_{}(&mut self, dev: &mut dyn DeviceAccess{params}) {{",
                reg.name
            );
            let _ = writeln!(
                out,
                "        dev.write({}, {}, {}, (self.cache_{}{at} & {:#x}) | {:#x});",
                b.port.0,
                PortOff((!family).then_some(&b.offset), "offset"),
                reg.size,
                reg.name,
                reg.and_mask,
                reg.or_mask
            );
            let _ = writeln!(out, "        self.valid_{}{at} = true;\n    }}\n", reg.name);
        }
    }
    for (reg, fs) in families(ir) {
        let params: Vec<String> = (0..fs.dims.len()).map(|d| format!("v{d}: u64")).collect();
        let _ = writeln!(out, "    /// The cache index of an instance of family `{}`.", reg.name);
        let _ = writeln!(out, "    fn ix_{}({}) -> usize {{", reg.name, params.join(", "));
        out.push_str("        (");
        let wrap = fs.dims.len() > 1;
        for (d, dim) in fs.dims.iter().enumerate() {
            let v = format!("v{d}");
            out.push_str(if d == 0 { "" } else { " + " });
            out.push_str(if wrap { "(" } else { "" });
            if let [(lo, _, base)] = dim.ranges[..] {
                let _ = write!(out, "{}", Dense(&v, lo, base, ""));
            } else {
                let _ = write!(out, "match {v} {{ ");
                let (last, tested) = dim.ranges.split_last().expect("non-empty domain");
                for &(lo, hi, base) in tested {
                    let _ = write!(out, "{} => {}, ", Pattern(lo, hi), Dense(&v, lo, base, ""));
                }
                let _ = write!(out, "_ => {} }}", Dense(&v, last.0, last.2, ""));
            }
            if wrap {
                let _ = write!(out, ") * {}", dim.stride);
            }
        }
        out.push_str(") as usize\n    }\n\n");
    }

    // Variable accessors.
    for var in &ir.vars {
        emit_var(&mut out, ir, var);
    }

    // Structure accessors.
    for st in &ir.structs {
        let directions = [
            (&st.read_plan, "get", "Reads", "into the cache."),
            (&st.write_plan, "put", "Flushes", "from the cache (stage fields first)."),
        ];
        for (plan, verb, what, how) in directions {
            if let Some(plan) = plan.as_deref() {
                let _ = writeln!(out, "    /// {what} the `{}` structure {how}", st.name);
                let _ = writeln!(
                    out,
                    "    pub fn {verb}_{}(&mut self, dev: &mut dyn DeviceAccess) {{",
                    st.name
                );
                emit_plan(&mut out, ir, plan, "        ", "v");
                let _ = writeln!(out, "    }}\n");
            }
        }
    }

    // Fused superplans: one guard evaluation, then the whole batched
    // body — the `run_superplan` fast path as straight-line code.
    for sp in ir.superplans() {
        emit_superplan(&mut out, ir, sp);
    }
    let _ = writeln!(out, "}}");
    out
}

/// One fused superplan as an inherent method: parameters are the fused
/// operands (`a0..`), the per-read output slice, and the block buffers
/// the body streams through (present only when used).
fn emit_superplan(out: &mut String, ir: &DeviceIr, sp: &Superplan) {
    let mut params = String::new();
    for i in 0..sp.args {
        let _ = write!(params, ", a{i}: u64");
    }
    if sp.outputs > 0 {
        params.push_str(", outs: &mut [u64]");
    }
    if sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. })) {
        params.push_str(", block_out: &[u64]");
    }
    if sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. })) {
        params.push_str(", block_in: &mut [u64]");
    }
    let _ =
        writeln!(out, "    /// Fused superplan `{}`: one guard evaluation, batched I/O.", sp.name);
    let _ = writeln!(
        out,
        "    pub fn sp_{}(&mut self, dev: &mut dyn DeviceAccess{params}) {{",
        sp.name
    );
    for step in ir.variant_steps(&sp.stage) {
        step_stmts(ir, step, "        ", "v", out);
    }
    emit_plan(out, ir, &sp.plan, "        ", "v");
    let _ = writeln!(out, "    }}\n");
}

/// The emitted module's type name for a device name (`logitech_busmouse`
/// becomes `LogitechBusmouse`); enum types and variants are named the
/// same way.
pub fn camel(s: &str) -> String {
    s.split(['_', '-'])
        .filter(|p| !p.is_empty())
        .map(|p| {
            let mut c = p.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

/// A plan operand as a Rust expression; `input` names the setter's
/// argument.
struct Operand<'a>(&'a PlanValue, &'a str);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.0 {
            PlanValue::Input => f.write_str(self.1),
            PlanValue::Const(c) => write!(f, "{c:#x}"),
            // A superplan operand or a family argument: a parameter.
            PlanValue::Arg(i) => write!(f, "a{i}"),
        }
    }
}

/// A match pattern for `lo..=hi`.
struct Pattern(u64, u64);

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Pattern(lo, hi) if lo == hi => write!(f, "{lo:#x}"),
            Pattern(lo, hi) => write!(f, "{lo:#x}..={hi:#x}"),
        }
    }
}

/// A family instance's cache index: its index helper over its
/// arguments.
struct Ix<'a>(&'a [PlanValue], &'a str);

impl fmt::Display for Ix<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Self::ix_{}(", self.1)?;
        for (i, a) in self.0.iter().enumerate() {
            write!(f, "{}{}", if i == 0 { "" } else { ", " }, Operand(a, ""))?;
        }
        f.write_str(")")
    }
}

/// A cache field behind a slot: `self.<kind>_<reg>`, subscripted for a
/// family instance.
struct Member<'a>(&'static str, &'a Field<'a>);

impl fmt::Display for Member<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Member(kind, field) = *self;
        write!(f, "self.{kind}_{}", field.reg)?;
        match &field.args {
            None => Ok(()),
            Some(args) => write!(f, "[{}]", Ix(args, field.reg)),
        }
    }
}

/// The trailing arguments of a primitive call: none for a concrete
/// register, the cache index and port offset for a family instance.
fn prim_args(field: &Field<'_>, a: &AccessStep) -> String {
    match &field.args {
        None => String::new(),
        Some(args) => {
            format!(", {}, {}", Ix(args, field.reg), Operand(&offset_operand(a.offset), ""))
        }
    }
}

/// Appends the masked store `cache = (cache & keep) | terms` as one
/// statement, in its shortest form: a store whose target is also its
/// left operand assigns with `&=` or `|=`. Appends nothing when the
/// store changes no bit. Constant segments never reach here: the IR
/// folds them into `const_or`.
fn compose_stmt(out: &mut String, indent: &str, cache: &Member<'_>, c: &Compose, input: &str) {
    let shift = |ws: &WriteSeg| ws.seg.reg_lo as i64 - ws.seg.var_lo as i64;
    let count = usize::from(c.const_or != 0) + c.segs.len();
    let _ = match (c.keep_and, count) {
        (u64::MAX, 0) => return,
        (keep, 0) => write!(out, "{indent}{cache} &= {keep:#x}"),
        (u64::MAX, _) => write!(out, "{indent}{cache} |= "),
        (keep, _) => write!(out, "{indent}{cache} = ({cache} & {keep:#x}) | "),
    };
    // A lone term is the whole assigned value: no parentheses.
    let (open, close) = if c.keep_and == u64::MAX && count == 1 { ("", "") } else { ("(", ")") };
    let mut sep = "";
    if c.const_or != 0 {
        let _ = write!(out, "{:#x}", c.const_or);
        sep = " | ";
    }
    for ws in &c.segs {
        let v = Shift(Operand(&ws.value, input), shift(ws));
        let _ = write!(out, "{sep}{open}{v} & {:#x}{close}", ws.seg.reg_mask());
        sep = " | ";
    }
    out.push_str(";\n");
}

/// One plan step as Rust statements. `input` names the value being
/// written (the setter's argument), if any.
fn step_stmts(ir: &DeviceIr, step: &PlanStep, indent: &str, input: &str, out: &mut String) {
    match step {
        PlanStep::Read(a) => {
            let field = Field::of(ir, &a.slot);
            let _ = writeln!(out, "{indent}self.read_{}(dev{});", field.reg, prim_args(&field, a));
        }
        PlanStep::Write { access: a, compose: c, .. } => {
            let field = Field::of(ir, &a.slot);
            compose_stmt(out, indent, &Member("cache", &field), c, input);
            let _ = writeln!(out, "{indent}self.write_{}(dev{});", field.reg, prim_args(&field, a));
        }
        PlanStep::Store(slot, c) => {
            // Cache-only store, no device access (see the interpreter's
            // `store_var_bits`).
            let field = Field::of(ir, slot);
            compose_stmt(out, indent, &Member("cache", &field), c, input);
            let _ = writeln!(out, "{indent}{} = true;", Member("valid", &field));
        }
        PlanStep::SetCell { cell, value, mask } => {
            // Cells keep their variable's raw width, like the runtime.
            let owner = ir.mem_owner(*cell).expect("cells are owned");
            let name = &ir.var(owner).name;
            let v = Operand(value, input);
            let _ = match value {
                PlanValue::Const(_) => writeln!(out, "{indent}self.mem_{name} = {v};"),
                _ if *mask == u64::MAX => writeln!(out, "{indent}self.mem_{name} = {v};"),
                _ => writeln!(out, "{indent}self.mem_{name} = {v} & {mask:#x};"),
            };
        }
        // Fused block transfers: one bus transaction over the caller's
        // whole buffer (the `rep insw` shape). Only superplan bodies
        // contain these; the emitted methods bind the buffer names.
        PlanStep::BlockIn { port, offset, size } => {
            let _ = writeln!(out, "{indent}dev.read_block({port}, {offset:#x}, {size}, block_in);");
        }
        PlanStep::BlockOut { port, offset, size } => {
            let _ =
                writeln!(out, "{indent}dev.write_block({port}, {offset:#x}, {size}, block_out);");
        }
        PlanStep::Assemble { out: o, segs } => {
            let _ = writeln!(out, "{indent}outs[{o}] = {};", assemble_expr(fixed_pairs(ir, segs)));
        }
    }
}

/// A whole plan as Rust statements: the single variant's straight
/// line, or a guard-driven `if`/`else if` chain selecting one variant —
/// exhaustive over the tested values, exactly like
/// `AccessPlan::select_variant` (the last variant is the final else).
fn emit_plan(out: &mut String, ir: &DeviceIr, plan: &AccessPlan, indent: &str, input: &str) {
    if plan.selector.is_empty() {
        for step in ir.variant_steps(&plan.variants[0]) {
            step_stmts(ir, step, indent, input, out);
        }
        return;
    }
    let inner = format!("{indent}    ");
    for (k, v) in plan.variants.iter().enumerate() {
        if k + 1 == plan.variants.len() {
            let _ = writeln!(out, "{indent}}} else {{");
        } else {
            let kw = if k == 0 { "if" } else { "} else if" };
            let _ = write!(out, "{indent}{kw} ");
            for (i, g) in plan.guards(k).enumerate() {
                let sep = if i == 0 { "" } else { " && " };
                let (mask, expected) = (g.mask, g.expected);
                let _ = match g.source {
                    GuardSource::Slot(s) => {
                        let cache = Member("cache", &Field::of(ir, &PlanSlot::Fixed(s)));
                        write!(out, "{sep}({cache} & {mask:#x}) == {expected:#x}")
                    }
                    // Cells hold values masked to their variable's
                    // width and are compared whole.
                    GuardSource::Cell(c) => {
                        let owner = ir.mem_owner(c).expect("cells are owned");
                        write!(out, "{sep}self.mem_{} == {expected:#x}", ir.var(owner).name)
                    }
                    // The setter's own value argument (the general
                    // path's store-then-evaluate order).
                    GuardSource::Input => {
                        write!(out, "{sep}({input} & {mask:#x}) == {expected:#x}")
                    }
                };
            }
            out.push_str(" {\n");
        }
        for step in ir.variant_steps(v) {
            step_stmts(ir, step, &inner, input, out);
        }
    }
    let _ = writeln!(out, "{indent}}}");
}

/// A variable assembled from cache fields: a whole value or argument,
/// so a lone term drops its outer parentheses.
fn assemble_expr<'a>(pairs: impl Iterator<Item = (Field<'a>, FieldSeg)>) -> String {
    let mut s = String::new();
    let mut terms = 0;
    for (field, seg) in pairs {
        let cache = format_args!("({} & {:#x})", Member("cache", &field), seg.reg_mask());
        let sep = if terms == 0 { "" } else { " | " };
        let _ = write!(s, "{sep}{}", Shift(cache, seg.var_lo as i64 - seg.reg_lo as i64));
        terms += 1;
    }
    match terms {
        0 => s.push('0'),
        // Every term is one parenthesized group.
        1 => {
            s.pop();
            s.remove(0);
        }
        _ => {}
    }
    s
}

fn emit_var(out: &mut String, ir: &DeviceIr, var: &VarIr) {
    let rust_ty = if matches!(var.ty, TypeSem::SInt(_)) { "i64" } else { "u64" };
    // Memory cells: direct cache access. Stores keep the variable's raw
    // width, like the runtime.
    if var.mem_cell.is_some() {
        let stored = match var.raw_mask() {
            u64::MAX => "v".to_string(),
            mask => format!("v & {mask:#x}"),
        };
        let _ = writeln!(out, "    /// Reads the private memory cell `{}`.", var.name);
        let _ = writeln!(out, "    pub fn get_{}(&mut self) -> u64 {{", var.name);
        let _ = writeln!(out, "        self.mem_{}\n    }}\n", var.name);
        if var.parent.is_some() && stages_field(ir, var) {
            // Staging a mem-cell field is a pure cell store (the C
            // stub's `setf_` define); the structure writer flushes.
            let _ = writeln!(
                out,
                "    /// Stages `{}` in the cell (flush with the structure writer).",
                var.name
            );
            let _ = writeln!(out, "    pub fn stage_{}(&mut self, v: u64) {{", var.name);
            let _ = writeln!(out, "        self.mem_{} = {stored};\n    }}\n", var.name);
        }
        if let Some(plan) = var.write_plan.as_deref() {
            let _ = writeln!(out, "    /// Writes the private memory cell `{}`.", var.name);
            if var.set.is_empty() {
                let _ = writeln!(out, "    pub fn set_{}(&mut self, v: u64) {{", var.name);
                let _ = writeln!(out, "        self.mem_{} = {stored};\n    }}\n", var.name);
            } else {
                // Foldable set actions ride the compiled write plan.
                let _ = writeln!(
                    out,
                    "    pub fn set_{}(&mut self, dev: &mut dyn DeviceAccess, v: u64) {{",
                    var.name
                );
                emit_plan(out, ir, plan, "        ", "v");
                let _ = writeln!(out, "    }}\n");
            }
        }
        return;
    }

    let is_field = var.parent.is_some();
    // Field cache accessors (`get_field_id` / `set_field_id`).
    if let (true, Some(pairs)) = (gets_field(var), &var.slot_assemble) {
        let expr = assemble_expr(fixed_pairs(ir, pairs));
        let _ = writeln!(
            out,
            "    /// Gets `{}` from the cache (fill it with the structure reader).",
            var.name
        );
        let _ = writeln!(out, "    pub fn get_{}(&mut self) -> {rust_ty} {{", var.name);
        let _ = writeln!(out, "        {}\n    }}\n", signed_wrap(var, &expr));
    }
    if stages_field(ir, var) {
        let _ = writeln!(
            out,
            "    /// Stages `{}` in the cache (flush with the structure writer).",
            var.name
        );
        let _ = writeln!(out, "    pub fn stage_{}(&mut self, v: u64) {{", var.name);
        for s in &var.segs {
            let n = &ir.reg(s.reg).name;
            let mask = s.seg.reg_mask();
            let shifted = Shift("v", s.seg.reg_lo as i64 - s.seg.var_lo as i64);
            let _ = writeln!(
                out,
                "        self.cache_{n} = (self.cache_{n} & !{mask:#x}) | ({shifted} & {mask:#x});"
            );
            let _ = writeln!(out, "        self.valid_{n} = true;");
        }
        let _ = writeln!(out, "    }}\n");
    }

    // A family variable's arguments come first and are checked against
    // their domains before anything else, as the runtime's
    // `validate_args` does; its methods return a `Result`.
    let family = !var.params.is_empty();
    let params: String = (0..var.params.len()).map(|k| format!(", a{k}: u64")).collect();
    let (res_open, res_close) =
        if family { ("Result<", ", devil_runtime::RtError>") } else { ("", "") };
    let (ok_open, ok_close) = if family { ("Ok(", ")") } else { ("", "") };

    // Full read (`read_id`): idempotent variables serve a fully-cached
    // value; volatile and read-trigger ones always execute the plan.
    if let Some(plan) = var.read_plan.as_deref() {
        let fields = || plan.assemble.iter().map(|(slot, seg)| (Field::of(ir, slot), *seg));
        let expr = assemble_expr(fields());
        let name =
            if is_field { format!("read_{}", var.name) } else { format!("get_{}", var.name) };
        let _ = writeln!(out, "    /// Reads `{}` from the device.", var.name);
        let _ = writeln!(
            out,
            "    pub fn {name}(&mut self, dev: &mut dyn DeviceAccess{params}) -> {res_open}{rust_ty}{res_close} {{"
        );
        arg_check(out, var);
        if !var.behavior.volatile && !var.behavior.read_trigger {
            let mut valids: Vec<String> = Vec::new();
            for (field, _) in fields() {
                let mut v = String::with_capacity(32);
                let _ = write!(v, "{}", Member("valid", &field));
                if !valids.contains(&v) {
                    valids.push(v);
                }
            }
            let _ = writeln!(out, "        if !({}) {{", valids.join(" && "));
            emit_plan(out, ir, plan, "            ", "v");
            let _ = writeln!(out, "        }}");
        } else {
            emit_plan(out, ir, plan, "        ", "v");
        }
        let _ = writeln!(out, "        {ok_open}{}{ok_close}\n    }}\n", signed_wrap(var, &expr));
    }

    // Write-through (`write_id`).
    if let Some(plan) = var.write_plan.as_deref() {
        let _ = writeln!(out, "    /// Writes `{}` to the device.", var.name);
        let _ = writeln!(
            out,
            "    pub fn set_{}(&mut self, dev: &mut dyn DeviceAccess{params}, v: u64){} {{",
            var.name,
            if family { " -> Result<(), devil_runtime::RtError>" } else { "" }
        );
        arg_check(out, var);
        emit_plan(out, ir, plan, "        ", "v");
        if family {
            let _ = writeln!(out, "        Ok(())");
        }
        let _ = writeln!(out, "    }}\n");
    }
}

fn signed_wrap(var: &VarIr, expr: &str) -> String {
    if matches!(var.ty, TypeSem::SInt(_)) {
        format!("devil_runtime::sign_extend({expr}, {})", var.width)
    } else {
        expr.to_string()
    }
}

/// A family method's argument check: the first argument outside its
/// parameter's domain fails the call before any bus op.
fn arg_check(out: &mut String, var: &VarIr) {
    for (k, p) in var.params.iter().enumerate() {
        let _ = write!(out, "        if !matches!(a{k}, ");
        for (i, &(lo, hi)) in p.values.iter().enumerate() {
            let _ = write!(out, "{}{}", if i == 0 { "" } else { " | " }, Pattern(lo, hi));
        }
        let _ = writeln!(out, ") {{");
        let _ = writeln!(
            out,
            "            return Err(devil_runtime::RtError::ArgOutOfRange {{ var: \"{}\".into(), value: a{k} }});",
            var.name
        );
        let _ = writeln!(out, "        }}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir_for(src: &str) -> DeviceIr {
        devil_ir::lower(&devil_sema::check_source(src, &[]).unwrap())
    }

    #[test]
    fn busmouse_module_shape() {
        let ir = ir_for(include_str!("../../../specs/busmouse.dil"));
        let m = emit_rust(&ir);
        assert!(m.contains("pub struct LogitechBusmouse"), "{m}");
        assert!(m.contains("pub fn get_mouse_state(&mut self"), "{m}");
        assert!(m.contains("pub fn get_dy(&mut self)"), "{m}");
        assert!(m.contains("sign_extend"), "dy is signed");
        assert!(m.contains("pub enum LogitechBusmouseConfig"), "{m}");
        assert!(m.contains("Configuration,"), "{m}");
    }

    #[test]
    fn masked_write_in_generated_code() {
        let ir = ir_for(include_str!("../../../specs/busmouse.dil"));
        let m = emit_rust(&ir);
        // index_reg forces bit 7 and clears 4..0.
        assert!(m.contains("| 0x80"), "{m}");
        assert!(m.contains("& 0xe0"), "{m}");
    }

    #[test]
    fn conditional_flushes_emit_guarded_if_chains() {
        let ir = ir_for(include_str!("../../../specs/pic8259.dil"));
        let m = emit_rust(&ir);
        assert!(m.contains("pub fn put_init(&mut self"), "{m}");
        assert!(m.contains("if (self.cache_icw1 & 0x2) == 0x0"), "{m}");
        assert!(m.contains("} else if"), "{m}");
        assert!(m.contains("} else {"), "{m}");
        assert!(m.contains("pub fn stage_sngl(&mut self"), "{m}");
    }

    #[test]
    fn family_tested_conditions_emit() {
        // `sel` lives on a family instance: the conditional structure
        // accessors test its element of the family's cache vector.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register f(i : int{0..1}) = base @ i, mask '.......*' : bit[8];
                 register a = base @ 2 : bit[8];
                 register c = base @ 3 : bit[8];
                 structure s = {
                   variable sel = f(1)[0], volatile : bool;
                   variable fa = a, volatile : int(8);
                   variable v = c, volatile : int(8);
                 } serialized as { a; if (sel == true) c; };
               }"#,
        );
        let m = emit_rust(&ir);
        assert!(m.contains("pub fn get_s(&mut self"), "{m}");
        assert!(m.contains("if (self.cache_f[Self::ix_f(0x1)] & 0x1) == 0x0 {"), "{m}");
        assert!(m.contains("cache_f: vec![0; 2],"), "{m}");
        assert!(!m.contains("derive(Default)"), "{m}");
        assert!(
            m.contains("impl Default for D {\n    fn default() -> Self {\n        Self::new()"),
            "{m}"
        );
    }

    #[test]
    fn family_variable_methods_return_results() {
        let ir = ir_for(include_str!("../../../specs/cs4236b.dil"));
        let m = emit_rust(&ir);
        assert!(m.contains("pub fn get_XD(&mut self, dev: &mut dyn DeviceAccess, a0: u64) -> Result<u64, devil_runtime::RtError> {"), "{m}");
        assert!(m.contains("pub fn set_ID(&mut self, dev: &mut dyn DeviceAccess, a0: u64, v: u64) -> Result<(), devil_runtime::RtError> {"), "{m}");
        assert!(m.contains("        if !matches!(a0, 0x0..=0x11 | 0x19) {"), "{m}");
        assert!(m.contains("self.read_X(dev, Self::ix_X(a0), 0x1);"), "{m}");
        assert!(
            m.contains("(match v0 { 0x0..=0x11 => v0, _ => 18 + (v0 - 0x19) }) as usize"),
            "{m}"
        );
        assert!(m.contains("        (v0) as usize\n"), "{m}");
    }

    #[test]
    fn masked_stores_take_their_shortest_form() {
        let m = emit_rust(&ir_for(include_str!("../../../specs/dma8237.dil")));
        assert!(m.contains("        self.cache_ff_reg &= 0xfffffffffffffffe;\n"), "{m}");
        assert!(!m.contains("self.cache_ff_reg = self.cache_ff_reg"), "{m}");
    }

    #[test]
    fn generated_code_is_balanced() {
        for (_, src) in [
            ("busmouse", include_str!("../../../specs/busmouse.dil")),
            ("ide", include_str!("../../../specs/ide.dil")),
            ("pic", include_str!("../../../specs/pic8259.dil")),
            ("dma", include_str!("../../../specs/dma8237.dil")),
        ] {
            let m = emit_rust(&ir_for(src));
            let opens = m.matches('{').count();
            let closes = m.matches('}').count();
            assert_eq!(opens, closes, "unbalanced braces");
        }
    }
}
