//! The C stub emitter: generates the macro-based interface of the
//! paper's Figure 3 (`bm_get_mouse_state()`, `bm_get_dy()`, ...).
//!
//! The output is a self-contained header. A cache struct holds the last
//! raw value (and a validity flag) of every concrete register, one
//! array of each per register family, and the private memory cells;
//! getter macros for structure fields read the cache, structure readers
//! perform the effective I/O.
//!
//! Every access with a compiled plan gets a stub, lowered from the
//! device's [`devil_ir::PlanStep`] arena — the exact step sequences the
//! plan executor executes. Guard-split conditional serializations emit
//! a [`devil_ir::PlanGuard`]-driven ternary chain selecting one
//! straight-line variant, mirroring `AccessPlan::select_variant`.
//!
//! Setters, structure reads and flushes are `void` expressions and
//! getters evaluate to the value read: no stub discards an operand.
//!
//! Family variable stubs take their arguments first (`cs_get_ID(a0)`,
//! `cs_set_ID(a0, v)`) and set the cache struct's `bad_arg` on every
//! call: 0 when every argument lies in its parameter's domain, `k + 1`
//! when argument `k` is the first that does not. Such a call issues no
//! bus op and changes no cache field (a getter evaluates to 0) — the
//! runtime's `ArgOutOfRange`.

use crate::plan::{
    families, fixed_pairs, gets_field, offset_operand, stages_field, Dense, Field, PortOff, Shift,
};
use devil_ir::{
    AccessStep, Compose, DeviceIr, FieldSeg, FuseOp, GuardSource, PlanGuard, PlanSlot, PlanStep,
    PlanValue, Superplan, VarIr,
};
use devil_sema::model::TypeSem;
use std::fmt::{self, Write as _};

/// Emits a C header for the device, using `prefix` for all identifiers
/// (the paper's `#define dev_name bm`).
pub fn emit_c(ir: &DeviceIr, prefix: &str) -> String {
    // Room for the preamble and the cache struct; the stubs grow it.
    let mut out = String::with_capacity(1024);
    let guard = format!("{}_DIL_H", prefix.to_uppercase());
    let _ = writeln!(out, "/* Generated by devilc from device `{}`. Do not edit. */", ir.name);
    let _ = writeln!(out, "#ifndef {guard}\n#define {guard}\n");
    let _ = writeln!(out, "/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives");
    let _ = writeln!(out, " * (the compiled-stub test harness does). */");
    let _ = writeln!(out, "#ifndef DEVIL_NO_SYS_IO");
    let _ = writeln!(out, "#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */");
    let _ = writeln!(out, "#endif\n");

    // Cache structure: raw value + validity flag per concrete register
    // (a never-accessed register has no cached value to compose from)
    // and per family instance, one 64-bit cell per private memory
    // variable.
    let _ = writeln!(out, "struct {prefix}_cache_t {{");
    let _ = writeln!(out, "    unsigned long __dil_base__[{}];", ir.ports.len());
    for reg in &ir.regs {
        if reg.params.is_empty() {
            let _ = writeln!(out, "    unsigned long long cache_{};", reg.name);
            let _ = writeln!(out, "    unsigned char valid_{};", reg.name);
        } else if let Some(fs) = &reg.family_slots {
            let _ = writeln!(out, "    unsigned long long cache_{}[{}];", reg.name, fs.count);
            let _ = writeln!(out, "    unsigned char valid_{}[{}];", reg.name, fs.count);
        }
    }
    for var in &ir.vars {
        if var.mem_cell.is_some() {
            let _ = writeln!(out, "    unsigned long long mem_{};", var.name);
        }
    }
    if ir.vars.iter().any(|v| !v.params.is_empty()) {
        let _ =
            writeln!(out, "    int bad_arg; /* family stubs: 0, or k + 1 for a bad argument k */");
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

    // Per-register primitive I/O expressions. Family primitives take
    // the port offset, and each family gets its instance-index helper.
    for reg in &ir.regs {
        let family = !reg.params.is_empty();
        if family && reg.family_slots.is_none() {
            continue;
        }
        let (args, sep) = if family { ("o", ", ") } else { ("", "") };
        if let Some(b) = &reg.read {
            let _ = writeln!(
                out,
                "#define {prefix}__read_{}({args}) ({}({prefix}_cache.__dil_base__[{}] + {}))",
                reg.name,
                in_fn(reg.size),
                b.port.0,
                PortOff((!family).then_some(&b.offset), "(o)")
            );
        }
        if let Some(b) = &reg.write {
            let _ = writeln!(
                out,
                "#define {prefix}__write_{}({args}{sep}v) ({}((((v) & {}) | {}), {prefix}_cache.__dil_base__[{}] + {}))",
                reg.name,
                out_fn(reg.size),
                Hex(reg.and_mask),
                Hex(reg.or_mask),
                b.port.0,
                PortOff((!family).then_some(&b.offset), "(o)")
            );
        }
    }
    for (reg, fs) in families(ir) {
        let params: Vec<String> = (0..fs.dims.len()).map(|d| format!("v{d}")).collect();
        let _ = write!(out, "#define {prefix}__ix_{}({}) (", reg.name, params.join(", "));
        let wrap = fs.dims.len() > 1;
        for (d, dim) in fs.dims.iter().enumerate() {
            let v = format!("(v{d})");
            out.push_str(if d == 0 { "" } else { " + " });
            out.push_str(if wrap { "(" } else { "" });
            let (last, tested) = dim.ranges.split_last().expect("non-empty domain");
            for &(lo, hi, base) in tested {
                in_range(&mut out, &v, lo, hi);
                let _ = write!(out, " ? {} : ", Dense(&v, lo, base, "ull"));
            }
            let _ = write!(out, "{}", Dense(&v, last.0, last.2, "ull"));
            if wrap {
                let _ = write!(out, ") * {}", dim.stride);
            }
        }
        out.push_str(")\n");
    }
    let _ = writeln!(out);

    // Variable stubs.
    for var in &ir.vars {
        emit_var_stubs(&mut out, ir, prefix, var);
    }

    // Structure stubs: readers and flushes lowered from the struct
    // plans; guard-split conditional serializations become a ternary
    // chain over the variants' slot guards.
    for st in &ir.structs {
        for (plan, verb) in [(&st.read_plan, "get"), (&st.write_plan, "put")] {
            if let Some(plan) = plan.as_deref() {
                let body = plan_body(ir, prefix, plan, "(v)");
                let _ = writeln!(out, "#define {prefix}_{verb}_{}() ( \\\n    {body} )", st.name);
            }
        }
    }

    // Fused superplans: emitted as functions (block transfers and
    // if-chains need statements, not comma expressions). Block
    // primitives move one burst per call — the `rep insw` shape.
    let mut block_widths: Vec<u32> = ir
        .superplans()
        .iter()
        .flat_map(|sp| sp.plan.variants.iter().flat_map(|v| ir.shape(v)))
        .filter_map(|s| s.block.then_some(s.size))
        .collect();
    block_widths.sort_unstable();
    block_widths.dedup();
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
    for sp in ir.superplans() {
        superplan_fn(&mut out, ir, prefix, sp);
    }

    let _ = writeln!(out, "\n#endif /* {guard} */");
    out
}

/// One fused superplan as a `static inline` function: parameters are
/// the fused operands (`a0..`), the per-read output array, and the
/// block buffers (with word counts) the body streams through — each
/// present only when the superplan uses it.
fn superplan_fn(out: &mut String, ir: &DeviceIr, prefix: &str, sp: &Superplan) {
    let mut params = String::new();
    for i in 0..sp.args {
        let _ = write!(params, ", unsigned long long a{i}");
    }
    if sp.outputs > 0 {
        params.push_str(", unsigned long long *outs");
    }
    if sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. })) {
        params.push_str(", const unsigned long long *blk_out, unsigned long blk_out_n");
    }
    if sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. })) {
        params.push_str(", unsigned long long *blk_in, unsigned long blk_in_n");
    }
    let params = params.get(2..).unwrap_or("void");
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
            let _ = writeln!(
                out,
                "{indent}outs[{o}] = {};",
                assemble_expr(prefix, fixed_pairs(ir, segs))
            );
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
            // A superplan operand or a family argument: a stub parameter.
            PlanValue::Arg(i) => write!(f, "(a{i})"),
        }
    }
}

/// Appends the test `lo <= v <= hi` to `out`.
fn in_range(out: &mut String, v: &str, lo: u64, hi: u64) {
    let _ = match (lo, hi) {
        (lo, hi) if lo == hi => write!(out, "{v} == {}", Hex(lo)),
        (0, hi) => write!(out, "{v} <= {}", Hex(hi)),
        (lo, hi) => write!(out, "({v} >= {} && {v} <= {})", Hex(lo), Hex(hi)),
    };
}

/// A cache-struct member behind a slot: `<kind>_<reg>`, subscripted for
/// a family instance (by the family's index helper when the stub's
/// arguments choose the instance).
struct Member<'a>(&'a str, &'static str, &'a Field<'a>);

impl fmt::Display for Member<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Member(prefix, kind, field) = *self;
        write!(f, "{prefix}_cache.{kind}_{}", field.reg)?;
        let Some(args) = &field.args else { return Ok(()) };
        write!(f, "[{prefix}__ix_{}(", field.reg)?;
        for (i, a) in args.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            match a {
                // The helper parenthesizes its parameters.
                PlanValue::Arg(k) => write!(f, "{sep}a{k}")?,
                other => write!(f, "{sep}{}", Operand(other, ""))?,
            }
        }
        f.write_str(")]")
    }
}

/// The port-offset argument of a family primitive call (empty for a
/// concrete register's), with `sep` after it.
fn prim_off(field: &Field<'_>, a: &AccessStep, sep: &str) -> String {
    match field.args {
        None => String::new(),
        Some(_) => format!("{}{sep}", Operand(&offset_operand(a.offset), "")),
    }
}

/// Appends the composed raw-value expression of a masked store/write,
/// `(cache & keep) | consts | runtime segs`, to `out`.
fn compose_expr(out: &mut String, cache: &Member<'_>, c: &Compose, input: &str) {
    if c.keep_and == u64::MAX {
        let _ = write!(out, "{cache}");
    } else {
        let _ = write!(out, "({cache} & {})", Hex(c.keep_and));
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
    // Room for a typical step, so composing it rarely reallocates.
    let mut s = String::with_capacity(256);
    match step {
        PlanStep::Read(a) => {
            let field = Field::of(ir, &a.slot);
            let (cache, valid) = (Member(prefix, "cache", &field), Member(prefix, "valid", &field));
            let off = prim_off(&field, a, "");
            let _ = write!(s, "{cache} = {prefix}__read_{}({off}), {valid} = 1", field.reg);
        }
        PlanStep::Write { access: a, compose: c, .. } => {
            let field = Field::of(ir, &a.slot);
            let (cache, valid) = (Member(prefix, "cache", &field), Member(prefix, "valid", &field));
            // A pure flush (struct write of an unassigned register)
            // recomposes nothing: skip the no-op cache update.
            if !c.is_identity() {
                let _ = write!(s, "{cache} = ");
                compose_expr(&mut s, &cache, c, input);
                s.push_str(", ");
            }
            let (n, off) = (field.reg, prim_off(&field, a, ", "));
            let _ = write!(s, "{valid} = 1, {prefix}__write_{n}({off}{cache})");
        }
        PlanStep::Store(slot, c) => {
            // Cache-only store: the written bits land in the cache
            // without a device access (a flattened order that skips
            // the register still stores, like `store_var_bits`).
            let field = Field::of(ir, slot);
            let (cache, valid) = (Member(prefix, "cache", &field), Member(prefix, "valid", &field));
            let _ = write!(s, "{cache} = ");
            compose_expr(&mut s, &cache, c, input);
            let _ = write!(s, ", {valid} = 1");
        }
        PlanStep::SetCell { cell, value, mask } => {
            // Cells keep their variable's raw width, like the runtime.
            let owner = ir.mem_owner(*cell).expect("cells are owned");
            let _ = write!(s, "{prefix}_cache.mem_{} = ", ir.var(owner).name);
            let v = Operand(value, input);
            let _ = match value {
                PlanValue::Const(_) => write!(s, "{v}"),
                _ if *mask == u64::MAX => write!(s, "{v}"),
                _ => write!(s, "({v} & {})", Hex(*mask)),
            };
        }
        // Block transfers and output assembly only occur in fused
        // superplan bodies, which are emitted as statements inside a
        // function (see `superplan_fn`), never as macro fragments.
        PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } | PlanStep::Assemble { .. } => {
            unreachable!("fused steps are emitted as statements, not comma expressions")
        }
    }
    s
}

/// One variant's steps as a `void` C expression.
fn variant_expr(ir: &DeviceIr, prefix: &str, steps: &[PlanStep], input: &str) -> String {
    if steps.is_empty() {
        return "(void)0".to_string();
    }
    let stmts: Vec<String> = steps.iter().map(|s| step_expr(ir, prefix, s, input)).collect();
    format!("(void)({})", stmts.join(", \\\n    "))
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
/// guard tests its register's cache field, each cell guard the cell,
/// each input guard the stub's value argument `input` (a write order
/// testing the variable being written: the general path's
/// store-then-evaluate order).
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
                let cache = Member(prefix, "cache", &Field::of(ir, &PlanSlot::Fixed(s)));
                write!(out, "{sep}({cache} & {mask}) == {expected}")
            }
            // Cells hold values masked to their variable's width and
            // are compared whole.
            GuardSource::Cell(c) => {
                let owner = ir.mem_owner(c).expect("cells are owned");
                write!(out, "{sep}{prefix}_cache.mem_{} == {expected}", ir.var(owner).name)
            }
            GuardSource::Input => write!(out, "{sep}(({input}) & {mask}) == {expected}"),
        };
    }
}

/// A variable assembled from cache fields, as a C expression.
fn assemble_expr<'a>(prefix: &str, pairs: impl Iterator<Item = (Field<'a>, FieldSeg)>) -> String {
    let mut s = String::new();
    for (k, (field, seg)) in pairs.enumerate() {
        let cache = format_args!("({} & {})", Member(prefix, "cache", &field), Hex(seg.reg_mask()));
        let sep = if k == 0 { "" } else { " | " };
        let _ = write!(s, "{sep}{}", Shift(cache, seg.var_lo as i64 - seg.reg_lo as i64));
    }
    if s.is_empty() {
        s.push('0');
    }
    s
}

/// A family variable stub's parameters (`a0, a1, `) and the condition
/// that heads its body: record in `bad_arg` which argument, if any, is
/// the first outside its parameter's domain, and test it. Both empty for
/// a plain variable.
fn arg_check(prefix: &str, var: &VarIr) -> (String, String) {
    let (mut params, mut head) = (String::new(), String::new());
    if var.params.is_empty() {
        return (params, head);
    }
    let _ = write!(head, "({prefix}_cache.bad_arg = ");
    for (k, p) in var.params.iter().enumerate() {
        let a = format!("(a{k})");
        let _ = write!(params, "a{k}, ");
        head.push_str("!(");
        for (i, &(lo, hi)) in p.values.iter().enumerate() {
            head.push_str(if i == 0 { "" } else { " || " });
            in_range(&mut head, &a, lo, hi);
        }
        let _ = write!(head, ") ? {} : ", k + 1);
    }
    head.push_str("0)");
    (params, head)
}

fn emit_var_stubs(out: &mut String, ir: &DeviceIr, prefix: &str, var: &VarIr) {
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
        if let Some(plan) = var.write_plan.as_deref() {
            // Foldable set actions ride the compiled write plan
            // (SetCell + the folded action steps).
            let body = if var.set.is_empty() {
                format!("({prefix}_cache.mem_{} = {stored})", var.name)
            } else {
                format!("( \\\n    {} )", plan_body(ir, prefix, plan, "(v)"))
            };
            let _ = writeln!(out, "#define {prefix}_set_{}(v) {body}", var.name);
        }
        return;
    }

    let is_field = var.parent.is_some();
    // Field cache accessors: assemble/stage against the flat slots
    // (`get_field_id` / `set_field_id` semantics, no device I/O).
    if let (true, Some(pairs)) = (gets_field(var), &var.slot_assemble) {
        let expr = assemble_expr(prefix, fixed_pairs(ir, pairs));
        let _ = writeln!(out, "#define {prefix}_getf_{}() ({expr})", var.name);
        if var.readable {
            // The paper's Figure 3 getter: same cache assemble.
            let _ = writeln!(out, "#define {prefix}_get_{}() ({expr})", var.name);
        }
    }
    if stages_field(ir, var) {
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

    let (params, check) = arg_check(prefix, var);
    // A call with a bad argument skips the body without any I/O: a
    // getter evaluates to 0, a setter to nothing.
    let (get_skip, set_skip, open, close) = if check.is_empty() {
        ("", "", "", "")
    } else {
        (" ? 0 : \\\n    ", " ? (void)0 : \\\n    ", "(", ")")
    };
    // Full read: the interpreter's `read_id` lowering. Idempotent
    // variables serve a fully-cached value without I/O; volatile and
    // read-trigger ones always execute the plan.
    if let Some(plan) = var.read_plan.as_deref() {
        let fields = || plan.assemble.iter().map(|(slot, seg)| (Field::of(ir, slot), *seg));
        let assemble = assemble_expr(prefix, fields());
        let name =
            if is_field { format!("read_{}", var.name) } else { format!("get_{}", var.name) };
        let params = params.trim_end_matches(", ");
        let body = plan_body(ir, prefix, plan, "(v)");
        if !var.behavior.volatile && !var.behavior.read_trigger {
            let mut valids: Vec<String> = Vec::new();
            for (field, _) in fields() {
                let mut v = String::with_capacity(48);
                let _ = write!(v, "{}", Member(prefix, "valid", &field));
                if !valids.contains(&v) {
                    valids.push(v);
                }
            }
            let _ = writeln!(
                out,
                "#define {prefix}_{name}({params}) ( \\\n    {check}{get_skip}{open}(({}) ? (void)0 : \\\n    {body}), \\\n    {assemble}{close} )",
                valids.join(" && ")
            );
        } else {
            let _ = writeln!(
                out,
                "#define {prefix}_{name}({params}) ( \\\n    {check}{get_skip}{open}{body}, \\\n    {assemble}{close} )"
            );
        }
    }

    // Write-through: the interpreter's `write_id` lowering.
    if let Some(plan) = var.write_plan.as_deref() {
        let _ = writeln!(
            out,
            "#define {prefix}_set_{}({params}v) ( \\\n    {check}{set_skip}{} )",
            var.name,
            plan_body(ir, prefix, plan, "(v)")
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
        assert!(h.contains("(xx_cache.valid_r) ? (void)0 :"), "{h}");
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
        // Families cache in arrays and index them through one helper.
        assert!(h.contains("unsigned long long cache_I[32];"), "{h}");
        assert!(h.contains("unsigned long long cache_X[19];"), "{h}");
        assert!(
            h.contains("#define cs__ix_X(v0) ((v0) <= 0x11ull ? (v0) : 18 + ((v0) - 0x19ull))"),
            "{h}"
        );
    }

    #[test]
    fn family_tested_conditions_emit() {
        // `sel` lives on a family-register instance: the conditional
        // flush tests its element of the family's cache array.
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
        assert!(
            h.contains("#define d_put_s() ( \\\n    ((d_cache.cache_f[d__ix_f(0x1ull)] & 0x1ull)"),
            "{h}"
        );
    }

    #[test]
    fn family_variable_stubs_check_their_arguments() {
        let ir = ir_for(include_str!("../../../specs/cs4236b.dil"));
        let h = emit_c(&ir, "cs");
        assert!(h.contains("    int bad_arg;"), "{h}");
        // The argument comes first, is checked against the variable's
        // domain before anything else, and indexes the family's array.
        assert!(h.contains("#define cs_get_XD(a0) ( \\\n    (cs_cache.bad_arg = !((a0) <= 0x11ull || (a0) == 0x19ull) ? 1 : 0) ? 0 : \\\n    (("), "{h}");
        assert!(h.contains("#define cs_set_ID(a0, v) ( \\\n    (cs_cache.bad_arg = !((a0) <= 0x1full) ? 1 : 0) ? (void)0 : \\\n    ("), "{h}");
        assert!(h.contains("cs_cache.cache_X[cs__ix_X(a0)] = cs__read_X(0x1ull)"), "{h}");
    }

    #[test]
    fn sixteen_bit_registers_use_inw() {
        let ir = ir_for(include_str!("../../../specs/ide.dil"));
        let h = emit_c(&ir, "ide");
        assert!(h.contains("inw(ide_cache.__dil_base__[0] + 0)"), "{h}");
        assert!(h.contains("inl(ide_cache.__dil_base__[1] + 0)"), "{h}");
    }
}
