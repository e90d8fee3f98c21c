//! The C stub emitter: generates the macro-based interface of the
//! paper's Figure 3 (`bm_get_mouse_state()`, `bm_get_dy()`, ...).
//!
//! The output is a self-contained header. A cache struct holds the last
//! raw value (and a validity flag) of every concrete register plus the
//! private memory cells; getter macros for structure fields read the
//! cache, structure readers perform the effective I/O.
//!
//! Stub bodies are lowered from the device's precompiled
//! [`devil_ir::PlanStep`] arena — the exact step sequences the
//! plan executor executes — so generated code and interpreter
//! share one lowering. Guard-split conditional serializations emit a
//! [`devil_ir::PlanGuard`]-driven ternary chain selecting one
//! straight-line variant, mirroring `AccessPlan::select_variant`.
//! Accesses without an emittable plan (register families, hashed
//! caches, the documented guard-split fallback causes) keep the
//! interpreter API, marked by a comment.

use crate::plan::{assemble_slots, Shift, StubApi};
use devil_ir::{
    Compose, DeviceIr, FieldSeg, FuseOp, GuardSource, PlanGuard, PlanStep, PlanValue, Superplan,
    VarIr,
};
use devil_sema::model::{Offset, SerStep, TypeSem, VarId};
use std::fmt::{self, Write as _};

/// Emits a C header for the device, using `prefix` for all identifiers
/// (the paper's `#define dev_name bm`).
pub fn emit_c(ir: &DeviceIr, prefix: &str) -> String {
    let api = StubApi::of(ir);
    let mut out = String::new();
    let guard = format!("{}_DIL_H", prefix.to_uppercase());
    let _ = writeln!(out, "/* Generated by devilc from device `{}`. Do not edit. */", ir.name);
    let _ = writeln!(out, "#ifndef {guard}\n#define {guard}\n");
    let _ = writeln!(out, "/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives");
    let _ = writeln!(out, " * (the compiled-stub test harness does). */");
    let _ = writeln!(out, "#ifndef DEVIL_NO_SYS_IO");
    let _ = writeln!(out, "#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */");
    let _ = writeln!(out, "#endif\n");

    // Cache structure: raw value + validity flag per concrete register
    // (a never-accessed register has no cached value to compose from),
    // one 64-bit cell per private memory variable.
    let _ = writeln!(out, "struct {prefix}_cache_t {{");
    let _ = writeln!(out, "    unsigned long __dil_base__[{}];", ir.ports.len());
    for reg in &ir.regs {
        if reg.params.is_empty() {
            let _ = writeln!(out, "    unsigned long long cache_{};", reg.name);
            let _ = writeln!(out, "    unsigned char valid_{};", reg.name);
        }
    }
    for var in &ir.vars {
        if var.mem_cell.is_some() {
            let _ = writeln!(out, "    unsigned long long mem_{};", var.name);
        }
    }
    let _ = writeln!(out, "}};");
    let _ = writeln!(out, "extern struct {prefix}_cache_t {prefix}_cache;\n");

    // Enum symbol values.
    for var in &ir.vars {
        if let TypeSem::Enum(en) = &var.ty {
            for arm in &en.arms {
                let _ = writeln!(
                    out,
                    "#define {prefix}_{}_{} {:#x}u",
                    var.name.to_uppercase(),
                    arm.sym,
                    arm.value
                );
            }
        }
    }
    let _ = writeln!(out);

    // Per-register primitive I/O expressions (concrete registers only;
    // families are served by the interpreter API).
    for reg in &ir.regs {
        if !reg.params.is_empty() {
            let _ = writeln!(
                out,
                "/* register family `{}`: use the generated function API. */",
                reg.name
            );
            continue;
        }
        if let Some(b) = &reg.read {
            let _ = writeln!(
                out,
                "#define {prefix}__read_{}() ({}({prefix}_cache.__dil_base__[{}] + {}))",
                reg.name,
                in_fn(reg.size),
                b.port.0,
                const_offset(&b.offset)
            );
        }
        if let Some(b) = &reg.write {
            let _ = writeln!(
                out,
                "#define {prefix}__write_{}(v) ({}((((v) & {}) | {}), {prefix}_cache.__dil_base__[{}] + {}))",
                reg.name,
                out_fn(reg.size),
                Hex(reg.and_mask),
                Hex(reg.or_mask),
                b.port.0,
                const_offset(&b.offset)
            );
        }
    }
    let _ = writeln!(out);

    // Variable stubs.
    for (vi, var) in ir.vars.iter().enumerate() {
        if !var.params.is_empty() {
            let _ = writeln!(
                out,
                "/* parameterized variable `{}`: use the generated function API. */",
                var.name
            );
            continue;
        }
        emit_var_stubs(&mut out, ir, prefix, &api, VarId(vi as u32), var);
    }

    // Structure stubs: readers and flushes lowered from the struct
    // plans; guard-split conditional serializations become a ternary
    // chain over the variants' slot guards.
    for (si, st) in ir.structs.iter().enumerate() {
        let sid = devil_sema::model::StructId(si as u32);
        if api.read_structs.contains(&sid) {
            let plan = st.read_plan.as_deref().expect("api vetted the read plan");
            let _ = writeln!(
                out,
                "#define {prefix}_get_{}() ( \\\n    {} )",
                st.name,
                plan_body(ir, prefix, plan, "(v)")
            );
        } else if order_has_reg(ir, &st.read_order, &|r| r.readable()) {
            let _ = writeln!(
                out,
                "/* structure `{}` (read): not plan-compiled; use the generated function API. */",
                st.name
            );
        }
        if api.write_structs.contains(&sid) {
            let plan = st.write_plan.as_deref().expect("api vetted the write plan");
            let _ = writeln!(
                out,
                "#define {prefix}_put_{}() ( \\\n    {} )",
                st.name,
                plan_body(ir, prefix, plan, "(v)")
            );
        } else if order_has_reg(ir, &st.write_order, &|r| r.writable()) {
            let _ = writeln!(
                out,
                "/* structure `{}` (write): not plan-compiled; use the generated function API. */",
                st.name
            );
        }
    }

    // Fused superplans: emitted as functions (block transfers and
    // if-chains need statements, not comma expressions). Block
    // primitives move one burst per call — the `rep insw` shape.
    let block_widths: Vec<u32> = {
        let mut w: Vec<u32> = api
            .superplans
            .iter()
            .flat_map(|&si| ir.superplans()[si].plan.variants.iter().flat_map(|v| ir.shape(v)))
            .filter(|s| s.block)
            .map(|s| s.size)
            .collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    if !block_widths.is_empty() {
        let _ = writeln!(out, "\n/* Block-transfer primitives: one burst transaction per call.");
        let _ = writeln!(out, " * The DEVIL_NO_SYS_IO harness supplies its own. */");
        let _ = writeln!(out, "#ifndef DEVIL_NO_SYS_IO");
        for w in &block_widths {
            let _ = writeln!(
                out,
                "#define devil_ins{w}(p, b, n) do {{ unsigned long __i; \\\n    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = {}(p); }} while (0)",
                in_fn(*w)
            );
            let _ = writeln!(
                out,
                "#define devil_outs{w}(p, b, n) do {{ unsigned long __i; \\\n    for (__i = 0; __i < (unsigned long)(n); ++__i) {}((b)[__i], (p)); }} while (0)",
                out_fn(*w)
            );
        }
        let _ = writeln!(out, "#endif");
    }
    for (si, sp) in ir.superplans().iter().enumerate() {
        if api.emits_superplan(si) {
            superplan_fn(&mut out, ir, prefix, sp);
        } else {
            let _ = writeln!(
                out,
                "/* superplan `{}`: not emittable; use the generated function API. */",
                sp.name
            );
        }
    }

    let _ = writeln!(out, "\n#endif /* {guard} */");
    out
}

/// One fused superplan as a `static inline` function: parameters are
/// the fused operands (`a0..`), the per-read output array, and the
/// block buffers (with word counts) the body streams through — each
/// present only when the superplan uses it.
fn superplan_fn(out: &mut String, ir: &DeviceIr, prefix: &str, sp: &Superplan) {
    let mut params: Vec<String> =
        (0..sp.args).map(|i| format!("unsigned long long a{i}")).collect();
    if sp.outputs > 0 {
        params.push("unsigned long long *outs".to_string());
    }
    if sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. })) {
        params.push("const unsigned long long *blk_out".to_string());
        params.push("unsigned long blk_out_n".to_string());
    }
    if sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. })) {
        params.push("unsigned long long *blk_in".to_string());
        params.push("unsigned long blk_in_n".to_string());
    }
    let params = if params.is_empty() { "void".to_string() } else { params.join(", ") };
    let _ =
        writeln!(out, "/* fused superplan `{}`: one guard evaluation, batched I/O. */", sp.name);
    let _ = writeln!(out, "static inline void {prefix}_sp_{}({params})", sp.name);
    let _ = writeln!(out, "{{");
    for step in ir.variant_steps(&sp.stage) {
        sp_step_stmt(ir, prefix, step, "    ", out);
    }
    if sp.plan.selector.is_empty() {
        for step in ir.variant_steps(&sp.plan.variants[0]) {
            sp_step_stmt(ir, prefix, step, "    ", out);
        }
        let _ = writeln!(out, "}}");
        return;
    }
    // Guard-driven selection, exhaustive like `select_variant`: the
    // last variant is the final else.
    for (k, v) in sp.plan.variants.iter().enumerate() {
        if k + 1 == sp.plan.variants.len() {
            let _ = writeln!(out, "    }} else {{");
        } else {
            out.push_str(if k == 0 { "    if (" } else { "    } else if (" });
            guard_cond(out, ir, prefix, sp.plan.guards(k), "(v)");
            out.push_str(") {\n");
        }
        for step in ir.variant_steps(v) {
            sp_step_stmt(ir, prefix, step, "        ", out);
        }
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
}

/// One fused-body step as a C statement. Non-block steps reuse the
/// comma-expression lowering; block transfers and output assembly are
/// statement-only.
fn sp_step_stmt(ir: &DeviceIr, prefix: &str, step: &PlanStep, indent: &str, out: &mut String) {
    match step {
        PlanStep::BlockIn { port, offset, size } => {
            let _ = writeln!(
                out,
                "{indent}devil_ins{size}({prefix}_cache.__dil_base__[{port}] + {offset}, blk_in, blk_in_n);"
            );
        }
        PlanStep::BlockOut { port, offset, size } => {
            let _ = writeln!(
                out,
                "{indent}devil_outs{size}({prefix}_cache.__dil_base__[{port}] + {offset}, blk_out, blk_out_n);"
            );
        }
        PlanStep::Assemble { out: o, segs } => {
            let _ = writeln!(out, "{indent}outs[{o}] = {};", assemble_expr(ir, prefix, segs));
        }
        other => {
            let _ = writeln!(out, "{indent}{};", step_expr(ir, prefix, other, "(v)"));
        }
    }
}

fn in_fn(size: u32) -> &'static str {
    match size {
        8 => "inb",
        16 => "inw",
        32 => "inl",
        other => unreachable!("the checker rejects {other}-bit port accesses"),
    }
}

fn out_fn(size: u32) -> &'static str {
    match size {
        8 => "outb",
        16 => "outw",
        32 => "outl",
        other => unreachable!("the checker rejects {other}-bit port accesses"),
    }
}

/// A C `unsigned long long` literal, formatted straight into the
/// caller's buffer.
struct Hex(u64);

impl fmt::Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}ull", self.0)
    }
}

/// A plan operand as a C expression; `input` is the stub's value
/// argument.
struct Operand<'a>(&'a PlanValue, &'a str);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.0 {
            PlanValue::Input => f.write_str(self.1),
            PlanValue::Const(c) => Hex(c).fmt(f),
            // Superplan operands become stub parameters; ordinary plans
            // carrying `Arg` (family plans) are never emitted.
            PlanValue::Arg(i) => write!(f, "(a{i})"),
        }
    }
}

/// Concrete registers always bind constant offsets (parameterized
/// offsets only occur on families, which get no primitives).
fn const_offset(off: &Offset) -> u64 {
    match off {
        Offset::Const(c) => *c,
        Offset::Param(_) => unreachable!("concrete register with parameterized offset"),
    }
}

/// Whether any register anywhere in the order (both branches of
/// conditionals included) satisfies `pred` — gates the fallback marker
/// comments for accesses without an emittable plan.
fn order_has_reg(
    ir: &DeviceIr,
    steps: &[SerStep],
    pred: &dyn Fn(&devil_ir::RegIr) -> bool,
) -> bool {
    steps.iter().any(|s| match s {
        SerStep::Reg(r) => pred(ir.reg(*r)),
        SerStep::If { then, els, .. } => {
            order_has_reg(ir, then, pred) || order_has_reg(ir, els, pred)
        }
    })
}

/// Appends the composed raw-value expression of a masked store/write,
/// `(cache & keep) | consts | runtime segs`, to `out`.
fn compose_expr(out: &mut String, prefix: &str, n: &str, c: &Compose, input: &str) {
    if c.keep_and == u64::MAX {
        let _ = write!(out, "{prefix}_cache.cache_{n}");
    } else {
        let _ = write!(out, "({prefix}_cache.cache_{n} & {})", Hex(c.keep_and));
    }
    if c.const_or != 0 {
        let _ = write!(out, " | {}", Hex(c.const_or));
    }
    for ws in &c.segs {
        let shifted = Shift(Operand(&ws.value, input), ws.seg.reg_lo as i64 - ws.seg.var_lo as i64);
        let _ = write!(out, " | ({shifted} & {})", Hex(ws.seg.reg_mask()));
    }
}

/// One plan step as a C comma-expression fragment. `input` is the C
/// expression for the value being written (the stub's `(v)` argument).
fn step_expr(ir: &DeviceIr, prefix: &str, step: &PlanStep, input: &str) -> String {
    match step {
        PlanStep::Read(a) => {
            let n = &ir.reg(a.reg).name;
            format!("{prefix}_cache.cache_{n} = {prefix}__read_{n}(), {prefix}_cache.valid_{n} = 1")
        }
        PlanStep::Write { access: a, compose: c, .. } => {
            let n = &ir.reg(a.reg).name;
            // A pure flush (struct write of an unassigned register)
            // recomposes nothing: skip the no-op cache update.
            if c.is_identity() {
                return format!(
                    "{prefix}_cache.valid_{n} = 1, {prefix}__write_{n}({prefix}_cache.cache_{n})"
                );
            }
            let mut s = format!("{prefix}_cache.cache_{n} = ");
            compose_expr(&mut s, prefix, n, c, input);
            let _ = write!(
                s,
                ", {prefix}_cache.valid_{n} = 1, {prefix}__write_{n}({prefix}_cache.cache_{n})"
            );
            s
        }
        PlanStep::Store(slot, c) => {
            // Cache-only store: the written bits land in the cache
            // without a device access (a flattened order that skips
            // the register still stores, like `store_var_bits`).
            let s = slot.fixed().expect("family plans are not emitted");
            let owner = ir.slot_owner(s).expect("emittable stores hit owned slots");
            let n = &ir.reg(owner).name;
            let mut s = format!("{prefix}_cache.cache_{n} = ");
            compose_expr(&mut s, prefix, n, c, input);
            let _ = write!(s, ", {prefix}_cache.valid_{n} = 1");
            s
        }
        PlanStep::SetCell { cell, value, mask } => {
            // Cells keep their variable's raw width, like the runtime.
            let owner = ir.mem_owner(*cell).expect("cells are owned");
            let mut s = format!("{prefix}_cache.mem_{} = ", ir.var(owner).name);
            let v = Operand(value, input);
            let _ = match value {
                PlanValue::Const(_) => write!(s, "{v}"),
                _ if *mask == u64::MAX => write!(s, "{v}"),
                _ => write!(s, "({v} & {})", Hex(*mask)),
            };
            s
        }
        // Block transfers and output assembly only occur in fused
        // superplan bodies, which are emitted as statements inside a
        // function (see `superplan_fn`), never as macro fragments.
        PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } | PlanStep::Assemble { .. } => {
            unreachable!("fused steps are emitted as statements, not comma expressions")
        }
    }
}

/// One variant's steps as a parenthesized C expression (value 0).
fn variant_expr(ir: &DeviceIr, prefix: &str, steps: &[PlanStep], input: &str) -> String {
    if steps.is_empty() {
        return "0".to_string();
    }
    let stmts: Vec<String> = steps.iter().map(|s| step_expr(ir, prefix, s, input)).collect();
    format!("({}, 0)", stmts.join(", \\\n    "))
}

/// A whole plan as one C expression: the single variant's straight
/// line, or a guard-driven ternary chain selecting one variant —
/// exhaustive over the tested values, exactly like
/// `AccessPlan::select_variant` (the last variant is the chain's else).
fn plan_body(ir: &DeviceIr, prefix: &str, plan: &devil_ir::AccessPlan, input: &str) -> String {
    if plan.selector.is_empty() {
        return variant_expr(ir, prefix, ir.variant_steps(&plan.variants[0]), input);
    }
    let mut body = String::new();
    for (k, v) in plan.variants.iter().enumerate() {
        let arm = variant_expr(ir, prefix, ir.variant_steps(v), input);
        if k + 1 == plan.variants.len() {
            body.push_str(&arm);
        } else {
            guard_cond(&mut body, ir, prefix, plan.guards(k), input);
            let _ = write!(body, " ? \\\n    {arm} : \\\n    ");
        }
    }
    format!("({body})")
}

/// A variant's guards as one C condition, appended to `out`: each slot
/// guard tests its register's cache field, each input guard the stub's
/// value argument `input` (a write order testing the variable being
/// written: the general path's store-then-evaluate order).
fn guard_cond(
    out: &mut String,
    ir: &DeviceIr,
    prefix: &str,
    guards: impl Iterator<Item = PlanGuard>,
    input: &str,
) {
    for (i, g) in guards.enumerate() {
        let sep = if i == 0 { "" } else { " && " };
        let (mask, expected) = (Hex(g.mask), Hex(g.expected));
        let _ = match g.source {
            GuardSource::Slot(s) => {
                let owner = ir.slot_owner(s).expect("emittable plans guard owned slots");
                let reg = &ir.reg(owner).name;
                write!(out, "{sep}({prefix}_cache.cache_{reg} & {mask}) == {expected}")
            }
            GuardSource::Cell(_) => unreachable!("cell guards are not emittable"),
            GuardSource::Input => write!(out, "{sep}(({input}) & {mask}) == {expected}"),
        };
    }
}

/// A variable assembled from named cache fields, as a C expression.
fn assemble_expr(ir: &DeviceIr, prefix: &str, pairs: &[(usize, FieldSeg)]) -> String {
    if pairs.is_empty() {
        return "0".to_string();
    }
    let mut s = String::new();
    for (k, &(slot, seg)) in pairs.iter().enumerate() {
        let owner = ir.slot_owner(slot).expect("assemble slots are owned");
        let field =
            format_args!("({prefix}_cache.cache_{} & {})", ir.reg(owner).name, Hex(seg.reg_mask()));
        let sep = if k == 0 { "" } else { " | " };
        let _ = write!(s, "{sep}{}", Shift(field, seg.var_lo as i64 - seg.reg_lo as i64));
    }
    s
}

fn emit_var_stubs(
    out: &mut String,
    ir: &DeviceIr,
    prefix: &str,
    api: &StubApi,
    vid: VarId,
    var: &VarIr,
) {
    // Memory cells: direct cache access, no device I/O. Stores keep
    // the variable's raw width, like the runtime.
    if var.mem_cell.is_some() {
        let stored = match var.raw_mask() {
            u64::MAX => "(v)".to_string(),
            mask => format!("((v) & {})", Hex(mask)),
        };
        let _ =
            writeln!(out, "#define {prefix}_get_{}() ({prefix}_cache.mem_{})", var.name, var.name);
        if var.parent.is_some() {
            let _ = writeln!(
                out,
                "#define {prefix}_getf_{}() ({prefix}_cache.mem_{})",
                var.name, var.name
            );
            let _ = writeln!(
                out,
                "#define {prefix}_setf_{}(v) ({prefix}_cache.mem_{} = {stored})",
                var.name, var.name
            );
        }
        if api.writes_var(vid) {
            if var.set.is_empty() {
                let _ = writeln!(
                    out,
                    "#define {prefix}_set_{}(v) ({prefix}_cache.mem_{} = {stored})",
                    var.name, var.name
                );
            } else {
                // Foldable set actions ride the compiled write plan
                // (SetCell + the folded action steps).
                let plan = var.write_plan.as_deref().expect("api vetted the write plan");
                let _ = writeln!(
                    out,
                    "#define {prefix}_set_{}(v) ( \\\n    {} )",
                    var.name,
                    plan_body(ir, prefix, plan, "(v)")
                );
            }
        } else if var.writable {
            let _ = writeln!(
                out,
                "/* variable `{}` (write): set actions are not plan-compiled; use the generated function API. */",
                var.name
            );
        }
        return;
    }

    let is_field = var.parent.is_some();
    // Field cache accessors: assemble/stage against the flat slots
    // (`get_field_id` / `set_field_id` semantics, no device I/O).
    if is_field {
        if api.gets_field(vid) {
            let pairs = var.slot_assemble.as_ref().expect("api vetted slot_assemble");
            let expr = assemble_expr(ir, prefix, pairs);
            let _ = writeln!(out, "#define {prefix}_getf_{}() ({expr})", var.name);
            if var.readable {
                // The paper's Figure 3 getter: same cache assemble.
                let _ = writeln!(out, "#define {prefix}_get_{}() ({expr})", var.name);
            }
        }
        if api.stages_field(vid) {
            let stmts: Vec<String> = var
                .segs
                .iter()
                .map(|s| {
                    let n = &ir.reg(s.reg).name;
                    let mask = Hex(s.seg.reg_mask());
                    let shifted = Shift("(v)", s.seg.reg_lo as i64 - s.seg.var_lo as i64);
                    format!(
                        "{prefix}_cache.cache_{n} = ({prefix}_cache.cache_{n} & ~{mask}) | ({shifted} & {mask}), {prefix}_cache.valid_{n} = 1"
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "#define {prefix}_setf_{}(v) ( \\\n    {} )",
                var.name,
                stmts.join(", \\\n    ")
            );
        }
    }

    // Full read: the interpreter's `read_id` lowering. Idempotent
    // variables serve a fully-cached value without I/O; volatile and
    // read-trigger ones always execute the plan.
    if api.reads_var(vid) {
        let plan = var.read_plan.as_deref().expect("api vetted the read plan");
        let slots = assemble_slots(plan);
        let assemble = assemble_expr(ir, prefix, &slots);
        let body = plan_body(ir, prefix, plan, "(v)");
        let name =
            if is_field { format!("read_{}", var.name) } else { format!("get_{}", var.name) };
        if !var.behavior.volatile && !var.behavior.read_trigger {
            let mut valids: Vec<String> = Vec::new();
            for &(slot, _) in &slots {
                let owner = ir.slot_owner(slot).expect("assemble slots are owned");
                let v = format!("{prefix}_cache.valid_{}", ir.reg(owner).name);
                if !valids.contains(&v) {
                    valids.push(v);
                }
            }
            let _ = writeln!(
                out,
                "#define {prefix}_{name}() ( \\\n    (({}) ? 0 : \\\n    {body}), \\\n    {assemble} )",
                valids.join(" && ")
            );
        } else {
            let _ =
                writeln!(out, "#define {prefix}_{name}() ( \\\n    {body}, \\\n    {assemble} )");
        }
    } else if var.readable && !is_field {
        let _ = writeln!(
            out,
            "/* variable `{}` (read): not plan-compiled; use the generated function API. */",
            var.name
        );
    }

    // Write-through: the interpreter's `write_id` lowering.
    if api.writes_var(vid) {
        let plan = var.write_plan.as_deref().expect("api vetted the write plan");
        let _ = writeln!(
            out,
            "#define {prefix}_set_{}(v) ( \\\n    {} )",
            var.name,
            plan_body(ir, prefix, plan, "(v)")
        );
    } else if var.writable {
        let _ = writeln!(
            out,
            "/* variable `{}` (write): not plan-compiled; use the generated function API. */",
            var.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir_for(src: &str) -> DeviceIr {
        devil_ir::lower(&devil_sema::check_source(src, &[]).unwrap())
    }

    #[test]
    fn busmouse_header_has_figure_3_stubs() {
        let ir = ir_for(include_str!("../../../specs/busmouse.dil"));
        let h = emit_c(&ir, "bm");
        // The three stubs of Figure 3.
        assert!(h.contains("#define bm_get_mouse_state()"), "{h}");
        assert!(h.contains("#define bm_get_dy()"), "{h}");
        assert!(h.contains("#define bm_get_buttons()"), "{h}");
        // Structure reads interleave index writes and data reads,
        // lowered from the struct plan's steps.
        assert!(h.match_indices("bm__write_index_reg").count() >= 4, "{h}");
        // dy extracts the y_high low nibble shifted into place.
        assert!(h.contains("bm_cache.cache_y_high & 0xfull"), "{h}");
        // Masked writes force the fixed bits of the index register.
        assert!(h.contains("| 0x80ull"), "{h}");
    }

    #[test]
    fn enum_values_are_defined() {
        let ir = ir_for(include_str!("../../../specs/busmouse.dil"));
        let h = emit_c(&ir, "bm");
        assert!(h.contains("#define bm_CONFIG_CONFIGURATION 0x1u"));
        assert!(h.contains("#define bm_INTERRUPT_ENABLE 0x0u"));
    }

    #[test]
    fn header_is_guarded_and_prefixed() {
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let h = emit_c(&ir, "xx");
        assert!(h.starts_with("/* Generated by devilc"));
        assert!(h.contains("#ifndef XX_DIL_H"));
        assert!(h.contains("#define xx_get_v()"));
        assert!(h.contains("#define xx_set_v(v)"));
        assert!(h.ends_with("#endif /* XX_DIL_H */\n"));
    }

    #[test]
    fn idempotent_getters_gate_on_cache_validity() {
        // `read_id` only skips the device when every backing slot holds
        // a value; the emitted getter reproduces that gate.
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let h = emit_c(&ir, "xx");
        assert!(h.contains("(xx_cache.valid_r) ? 0 :"), "{h}");
        assert!(h.contains("xx_cache.cache_r = xx__read_r(), xx_cache.valid_r = 1"), "{h}");
    }

    #[test]
    fn conditional_flushes_emit_guard_variant_chains() {
        let ir = ir_for(include_str!("../../../specs/pic8259.dil"));
        let h = emit_c(&ir, "pic");
        // The guard-split plan's variants appear as a ternary chain
        // over the tested icw1 bits (sngl at bit 1, ic4 at bit 0).
        assert!(h.contains("#define pic_put_init()"), "{h}");
        assert!(h.contains("(pic_cache.cache_icw1 & 0x2ull) == 0x0ull"), "{h}");
        assert!(h.contains("(pic_cache.cache_icw1 & 0x1ull) == 0x1ull"), "{h}");
        // Field staging setters mirror `set_field_id`.
        assert!(h.contains("#define pic_setf_sngl(v)"), "{h}");
    }

    #[test]
    fn memory_variables_use_cache_cells() {
        let ir = ir_for(include_str!("../../../specs/cs4236b.dil"));
        let h = emit_c(&ir, "cs");
        assert!(h.contains("unsigned long long mem_xm;"), "{h}");
        assert!(h.contains("#define cs_set_xm(v)"), "{h}");
        // Families fall back with a marker comment.
        assert!(h.contains("register family `I`"), "{h}");
    }

    #[test]
    fn family_tested_conditions_keep_the_function_api() {
        // `sel` lives on a family-register instance: its guard slot has
        // no `cache_` field in the emitted struct, so the conditional
        // flush keeps the interpreter API with a marker instead of
        // emitting C that does not compile (or silently flattening).
        let ir = ir_for(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register f(i : int{0..1}) = base @ i, mask '.......*' : bit[8];
                 register a = write base @ 2 : bit[8];
                 register c = write base @ 3 : bit[8];
                 structure s = {
                   variable sel = f(1)[0], volatile : bool;
                   variable fa = a : int(8);
                   variable v = c : int(8);
                 } serialized as { a; if (sel == true) c; };
               }"#,
        );
        let h = emit_c(&ir, "d");
        assert!(!h.contains("#define d_put_s()"), "{h}");
        assert!(h.contains("structure `s` (write): not plan-compiled"), "{h}");
    }

    #[test]
    fn sixteen_bit_registers_use_inw() {
        let ir = ir_for(include_str!("../../../specs/ide.dil"));
        let h = emit_c(&ir, "ide");
        assert!(h.contains("inw(ide_cache.__dil_base__[0] + 0)"), "{h}");
        assert!(h.contains("inl(ide_cache.__dil_base__[1] + 0)"), "{h}");
    }
}
