//! The Rust stub emitter: generates a typed module over
//! `devil_runtime::DeviceAccess`.
//!
//! Where the C backend reproduces the paper's macro output, the Rust
//! backend is what a modern release would ship (the `svd2rust` shape):
//! a struct holding the cache, inherent methods per variable, enums for
//! enumerated types, and structure readers that fill the cache.
//!
//! Like the C backend, method bodies are lowered from the precompiled
//! [`devil_ir::PlanStep`] arena — the same step sequences the fast-path
//! interpreter executes. Guard-split conditional serializations emit a
//! [`devil_ir::PlanGuard`]-driven `if`/`else if` chain selecting one
//! straight-line variant. Accesses without an emittable plan keep the
//! interpreter API, marked by a comment.

use crate::plan::{assemble_slots, Shift, StubApi};
use devil_ir::{
    AccessPlan, Compose, DeviceIr, FieldSeg, FuseOp, GuardSource, PlanStep, PlanValue, Superplan,
    VarIr,
};
use devil_sema::model::{StructId, TypeSem, VarId};
use std::fmt::{self, Write as _};

/// Emits a Rust module implementing the device interface.
pub fn emit_rust(ir: &DeviceIr) -> String {
    let api = StubApi::of(ir);
    let mut out = String::new();
    let ty_name = camel(&ir.name);
    let _ = writeln!(out, "// Generated by devilc from device `{}`. Do not edit.", ir.name);
    let _ = writeln!(out, "#![allow(clippy::identity_op, clippy::eq_op)]");
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

    // The device struct: per-register cache (+ validity) + memory cells.
    let _ = writeln!(out, "/// Generated interface for `{}`.", ir.name);
    let _ = writeln!(out, "#[derive(Default)]");
    let _ = writeln!(out, "pub struct {ty_name} {{");
    // Cache and cell fields are `pub` so differential harnesses can
    // compare final state against the interpreter's — the Rust twin of
    // the C stub's plainly visible cache struct.
    for reg in ir.regs.iter().filter(|r| r.params.is_empty()) {
        let _ = writeln!(out, "    pub cache_{}: u64,", reg.name);
        let _ = writeln!(out, "    pub valid_{}: bool,", reg.name);
    }
    for var in ir.vars.iter().filter(|v| v.mem_cell.is_some()) {
        let _ = writeln!(out, "    pub mem_{}: u64,", var.name);
    }
    let _ = writeln!(out, "}}\n");
    let _ = writeln!(out, "impl {ty_name} {{");
    let _ = writeln!(out, "    /// Creates an interface with a cold cache.");
    let _ = writeln!(out, "    pub fn new() -> Self {{");
    let _ = writeln!(out, "        Self::default()\n    }}\n");

    // Register primitives: the raw device access plus cache update.
    // Actions never live here — the plan steps sequence them.
    for reg in ir.regs.iter().filter(|r| r.params.is_empty()) {
        if let Some(b) = &reg.read {
            let _ =
                writeln!(out, "    fn read_{}(&mut self, dev: &mut dyn DeviceAccess) {{", reg.name);
            let _ = writeln!(
                out,
                "        self.cache_{} = dev.read({}, {}, {});",
                reg.name,
                b.port.0,
                const_offset(b),
                reg.size
            );
            let _ = writeln!(out, "        self.valid_{} = true;\n    }}\n", reg.name);
        }
        if let Some(b) = &reg.write {
            let _ = writeln!(
                out,
                "    fn write_{}(&mut self, dev: &mut dyn DeviceAccess) {{",
                reg.name
            );
            let _ = writeln!(
                out,
                "        dev.write({}, {}, {}, (self.cache_{} & {:#x}) | {:#x});",
                b.port.0,
                const_offset(b),
                reg.size,
                reg.name,
                reg.and_mask,
                reg.or_mask
            );
            let _ = writeln!(out, "        self.valid_{} = true;\n    }}\n", reg.name);
        }
    }

    // Variable accessors.
    for (vi, var) in ir.vars.iter().enumerate() {
        if !var.params.is_empty() {
            let _ = writeln!(
                out,
                "    // Parameterized variable `{}`: served by the interpreter API.",
                var.name
            );
            continue;
        }
        emit_var(&mut out, ir, &api, VarId(vi as u32), var);
    }

    // Structure accessors.
    for (si, st) in ir.structs.iter().enumerate() {
        let sid = StructId(si as u32);
        if api.read_structs.contains(&sid) {
            let plan = st.read_plan.as_deref().expect("api vetted the read plan");
            let _ = writeln!(out, "    /// Reads the `{}` structure into the cache.", st.name);
            let _ = writeln!(
                out,
                "    pub fn get_{}(&mut self, dev: &mut dyn DeviceAccess) {{",
                st.name
            );
            emit_plan(&mut out, ir, plan, "        ", "v");
            let _ = writeln!(out, "    }}\n");
        } else if !st.read_order.is_empty() {
            let _ = writeln!(
                out,
                "    // Structure `{}` (read): not plan-compiled; served by the interpreter API.",
                st.name
            );
        }
        if api.write_structs.contains(&sid) {
            let plan = st.write_plan.as_deref().expect("api vetted the write plan");
            let _ = writeln!(
                out,
                "    /// Flushes the `{}` structure from the cache (stage fields first).",
                st.name
            );
            let _ = writeln!(
                out,
                "    pub fn put_{}(&mut self, dev: &mut dyn DeviceAccess) {{",
                st.name
            );
            emit_plan(&mut out, ir, plan, "        ", "v");
            let _ = writeln!(out, "    }}\n");
        } else if !st.write_order.is_empty() {
            let _ = writeln!(
                out,
                "    // Structure `{}` (write): not plan-compiled; served by the interpreter API.",
                st.name
            );
        }
    }

    // Fused superplans: one guard evaluation, then the whole batched
    // body — the `run_superplan` fast path as straight-line code.
    for (si, sp) in ir.superplans().iter().enumerate() {
        if api.emits_superplan(si) {
            emit_superplan(&mut out, ir, sp);
        } else {
            let _ = writeln!(
                out,
                "    // Superplan `{}`: not emittable; served by the interpreter API.",
                sp.name
            );
        }
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

fn camel(s: &str) -> String {
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

/// Concrete registers always bind constant offsets.
fn const_offset(b: &devil_sema::model::PortBinding) -> u64 {
    match b.offset {
        devil_sema::model::Offset::Const(c) => c,
        devil_sema::model::Offset::Param(_) => {
            unreachable!("concrete register with parameterized offset")
        }
    }
}

/// A plan operand as a Rust expression; `input` names the setter's
/// argument.
struct Operand<'a>(&'a PlanValue, &'a str);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.0 {
            PlanValue::Input => f.write_str(self.1),
            PlanValue::Const(c) => write!(f, "{c:#x}"),
            // Superplan operands become stub parameters; ordinary plans
            // carrying `Arg` (family plans) are never emitted.
            PlanValue::Arg(i) => write!(f, "a{i}"),
        }
    }
}

/// Appends the composed raw-value expression of a masked store/write to
/// `out`.
fn compose_expr(out: &mut String, n: &str, c: &Compose, input: &str) {
    if c.keep_and == u64::MAX {
        let _ = write!(out, "self.cache_{n}");
    } else {
        let _ = write!(out, "(self.cache_{n} & {:#x})", c.keep_and);
    }
    if c.const_or != 0 {
        let _ = write!(out, " | {:#x}", c.const_or);
    }
    for ws in &c.segs {
        let shifted = Shift(Operand(&ws.value, input), ws.seg.reg_lo as i64 - ws.seg.var_lo as i64);
        let _ = write!(out, " | ({shifted} & {:#x})", ws.seg.reg_mask());
    }
}

/// One plan step as Rust statements. `input` names the value being
/// written (the setter's argument), if any.
fn step_stmts(ir: &DeviceIr, step: &PlanStep, indent: &str, input: &str, out: &mut String) {
    match step {
        PlanStep::Read(a) => {
            let _ = writeln!(out, "{indent}self.read_{}(dev);", ir.reg(a.reg).name);
        }
        PlanStep::Write { access: a, compose: c, .. } => {
            let n = &ir.reg(a.reg).name;
            if c.is_identity() {
                let _ = writeln!(out, "{indent}self.write_{n}(dev);");
                return;
            }
            let _ = write!(out, "{indent}self.cache_{n} = ");
            compose_expr(out, n, c, input);
            let _ = writeln!(out, ";\n{indent}self.write_{n}(dev);");
        }
        PlanStep::Store(slot, c) => {
            // Cache-only store, no device access (see the interpreter's
            // `store_var_bits`).
            let s = slot.fixed().expect("family plans are not emitted");
            let owner = ir.slot_owner(s).expect("emittable stores hit owned slots");
            let n = &ir.reg(owner).name;
            let _ = write!(out, "{indent}self.cache_{n} = ");
            compose_expr(out, n, c, input);
            let _ = writeln!(out, ";\n{indent}self.valid_{n} = true;");
        }
        PlanStep::SetCell { cell, value, mask } => {
            // Cells keep their variable's raw width, like the runtime.
            let owner = ir.mem_owner(*cell).expect("cells are owned");
            let name = &ir.var(owner).name;
            let v = Operand(value, input);
            let _ = match value {
                PlanValue::Const(_) => writeln!(out, "{indent}self.mem_{name} = {v};"),
                _ if *mask == u64::MAX => writeln!(out, "{indent}self.mem_{name} = {v};"),
                _ => writeln!(out, "{indent}self.mem_{name} = ({v} & {mask:#x});"),
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
            let _ = writeln!(out, "{indent}outs[{o}] = {};", assemble_expr(ir, segs));
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
                        let owner = ir.slot_owner(s).expect("emittable plans guard owned slots");
                        let reg = &ir.reg(owner).name;
                        write!(out, "{sep}(self.cache_{reg} & {mask:#x}) == {expected:#x}")
                    }
                    GuardSource::Cell(_) => unreachable!("cell guards are not emittable"),
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

/// A variable assembled from named cache fields.
fn assemble_expr(ir: &DeviceIr, pairs: &[(usize, FieldSeg)]) -> String {
    if pairs.is_empty() {
        return "0".to_string();
    }
    let mut s = String::new();
    for (k, &(slot, seg)) in pairs.iter().enumerate() {
        let owner = ir.slot_owner(slot).expect("assemble slots are owned");
        let field = format_args!("(self.cache_{} & {:#x})", ir.reg(owner).name, seg.reg_mask());
        let sep = if k == 0 { "" } else { " | " };
        let _ = write!(s, "{sep}{}", Shift(field, seg.var_lo as i64 - seg.reg_lo as i64));
    }
    s
}

fn emit_var(out: &mut String, ir: &DeviceIr, api: &StubApi, vid: VarId, var: &VarIr) {
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
        if var.parent.is_some() && api.stages_field(vid) {
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
        if api.writes_var(vid) {
            let _ = writeln!(out, "    /// Writes the private memory cell `{}`.", var.name);
            if var.set.is_empty() {
                let _ = writeln!(out, "    pub fn set_{}(&mut self, v: u64) {{", var.name);
                let _ = writeln!(out, "        self.mem_{} = {stored};\n    }}\n", var.name);
            } else {
                // Foldable set actions ride the compiled write plan.
                let plan = var.write_plan.as_deref().expect("api vetted the write plan");
                let _ = writeln!(
                    out,
                    "    pub fn set_{}(&mut self, dev: &mut dyn DeviceAccess, v: u64) {{",
                    var.name
                );
                emit_plan(out, ir, plan, "        ", "v");
                let _ = writeln!(out, "    }}\n");
            }
        } else if var.writable {
            let _ = writeln!(
                out,
                "    // Variable `{}` (write): not plan-compiled; served by the interpreter API.",
                var.name
            );
        }
        return;
    }

    let is_field = var.parent.is_some();
    // Field cache accessors (`get_field_id` / `set_field_id`).
    if is_field {
        if api.gets_field(vid) {
            let pairs = var.slot_assemble.as_ref().expect("api vetted slot_assemble");
            let expr = assemble_expr(ir, pairs);
            let _ = writeln!(
                out,
                "    /// Gets `{}` from the cache (fill it with the structure reader).",
                var.name
            );
            let _ = writeln!(out, "    pub fn get_{}(&mut self) -> {rust_ty} {{", var.name);
            let _ = writeln!(out, "        {}\n    }}\n", signed_wrap(var, &expr));
        }
        if api.stages_field(vid) {
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
    }

    // Full read (`read_id`): idempotent variables serve a fully-cached
    // value; volatile and read-trigger ones always execute the plan.
    if api.reads_var(vid) {
        let plan = var.read_plan.as_deref().expect("api vetted the read plan");
        let slots = assemble_slots(plan);
        let expr = assemble_expr(ir, &slots);
        let name =
            if is_field { format!("read_{}", var.name) } else { format!("get_{}", var.name) };
        let _ = writeln!(out, "    /// Reads `{}` from the device.", var.name);
        let _ = writeln!(
            out,
            "    pub fn {name}(&mut self, dev: &mut dyn DeviceAccess) -> {rust_ty} {{"
        );
        if !var.behavior.volatile && !var.behavior.read_trigger {
            let mut valids: Vec<String> = Vec::new();
            for &(slot, _) in &slots {
                let owner = ir.slot_owner(slot).expect("assemble slots are owned");
                let v = format!("self.valid_{}", ir.reg(owner).name);
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
        let _ = writeln!(out, "        {}\n    }}\n", signed_wrap(var, &expr));
    } else if var.readable && !is_field {
        let _ = writeln!(
            out,
            "    // Variable `{}` (read): not plan-compiled; served by the interpreter API.",
            var.name
        );
    }

    // Write-through (`write_id`).
    if api.writes_var(vid) {
        let plan = var.write_plan.as_deref().expect("api vetted the write plan");
        let _ = writeln!(out, "    /// Writes `{}` to the device.", var.name);
        let _ = writeln!(
            out,
            "    pub fn set_{}(&mut self, dev: &mut dyn DeviceAccess, v: u64) {{",
            var.name
        );
        emit_plan(out, ir, plan, "        ", "v");
        let _ = writeln!(out, "    }}\n");
    } else if var.writable {
        let _ = writeln!(
            out,
            "    // Variable `{}` (write): not plan-compiled; served by the interpreter API.",
            var.name
        );
    }
}

fn signed_wrap(var: &VarIr, expr: &str) -> String {
    if matches!(var.ty, TypeSem::SInt(_)) {
        format!("devil_runtime::sign_extend({expr}, {})", var.width)
    } else {
        expr.to_string()
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
    fn family_tested_conditions_keep_the_interpreter_api() {
        // `sel` lives on a family instance: its guard slot has no named
        // cache field, so the conditional structure accessors are
        // suppressed with a marker.
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
        assert!(!m.contains("pub fn get_s("), "{m}");
        assert!(m.contains("(read): not plan-compiled"), "{m}");
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
