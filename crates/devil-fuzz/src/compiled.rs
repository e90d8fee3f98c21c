//! The compiled-code differential oracle: proves the **generated C and
//! Rust stubs** faithful to the plan executor by running them.
//!
//! Both back ends are linked into the calling test binary and driven in
//! process, each through generated glue that puts the emitted interface
//! behind the id-keyed [`Surface`], with the driver the plan executor
//! runs through ([`crate::drive`]). The [`CompiledIn`] rig replays one
//! op stream through a module's cold instance and folds the leaves
//! every rig folds: per op, its bus operations in order and its
//! results, then the final cache state (raw values, validity flags,
//! memory cells). The plan executor ([`crate::InProcess::plans`]) is
//! the other [`Rig`] of each [`crate::compare`], over a stream of the
//! ops the stubs express ([`stub_expresses`]).
//!
//! - **C.** [`c_glue`] wraps each committed header
//!   (`tests/goldens/<spec>.h`) in a C file (`tests/goldens/glue/<spec>.c`)
//!   that binds the port primitives to one Rust bus callback and exports
//!   the id-keyed calls, a cold reset and a cache dump. A test-only crate
//!   compiles the files with `cc -Wall -Werror` and links them in.
//! - **Rust.** [`rust_glue`] implements [`Surface`] for each committed
//!   module (`tests/goldens/<spec>.rs`); the glue
//!   (`tests/goldens/glue/<spec>.rs`) is compiled into the test binary
//!   with the module it includes.
//!
//! The chain the oracle relies on: `emit_goldens` ties each golden and
//! its glue to the emitters, and the oracle runs the goldens.
//!
//! Every access with a compiled plan has a stub, family variables
//! included (their out-of-domain calls fail with the runtime's
//! `ArgOutOfRange`). [`stub_expresses`] drops only what has no stub at
//! all: accesses without a plan, plain block transfers (not dispatch
//! points), and structure accesses a field of which has no cache getter
//! or stager.

use crate::rooted::fold;
use crate::superfuzz::blocks;
use crate::{Op, Rig, Surface, Trace};
use devil_codegen::rust::camel;
use devil_codegen::{gets_field, stages_field};
use devil_ir::{AccessRef, DeviceIr, RegIr, StructIr, VarIr};
use devil_sema::model::{StructId, TypeSem};
use std::fmt::Write as _;

/// Whether the emitted stub surface can express `op`. The oracle
/// replays exactly the ops it keeps, through the stubs and the plans;
/// the stub rigs replay no other op.
pub fn stub_expresses(ir: &DeviceIr, op: &Op) -> bool {
    let planned = |access| ir.plan(access).is_some();
    match op {
        Op::ReadVar { vid, args } => {
            args.len() == ir.var(*vid).params.len() && planned(AccessRef::ReadVar(*vid))
        }
        Op::WriteVar { vid, args, .. } => {
            args.len() == ir.var(*vid).params.len() && planned(AccessRef::WriteVar(*vid))
        }
        Op::ReadStruct { sid } => struct_stubbed(ir, *sid, false),
        Op::WriteStruct { sid, values } => {
            struct_stubbed(ir, *sid, true)
                && ir.strct(*sid).fields.iter().all(|&f| values.iter().any(|&(vf, _)| vf == f))
        }
        Op::Super(_) | Op::Preset { .. } => true,
        Op::ReadBlock { .. } | Op::WriteBlock { .. } => false,
    }
}

/// Whether the stub surface has structure `sid`'s read (`write` false:
/// then reads every field back) or its flush (staging every field
/// first): the access has a stub and every field a cache getter, or
/// stager.
fn struct_stubbed(ir: &DeviceIr, sid: StructId, write: bool) -> bool {
    let access = if write { AccessRef::WriteStruct(sid) } else { AccessRef::ReadStruct(sid) };
    ir.plan(access).is_some()
        && ir.strct(sid).fields.iter().all(|&f| {
            let var = ir.var(f);
            if write {
                stages_field(ir, var)
            } else {
                gets_field(var)
            }
        })
}

/// The structures, with their ids, whose read (`write` false) or flush
/// the stubs express.
fn stubbed(ir: &DeviceIr, write: bool) -> impl Iterator<Item = (u32, &StructIr)> {
    (0..).zip(&ir.structs).filter(move |&(s, _)| struct_stubbed(ir, StructId(s), write))
}

/// The fields, with their ids, of the structures [`stubbed`] yields.
fn stubbed_fields(ir: &DeviceIr, write: bool) -> impl Iterator<Item = (u32, &VarIr)> {
    stubbed(ir, write).flat_map(|(_, st)| st.fields.iter()).map(|&f| (f.0, ir.var(f)))
}

/// Emitted stubs linked into the calling binary, driven in process
/// through their generated [`Surface`] glue: each replay starts from
/// the cold instance `fresh` returns.
#[derive(Clone, Copy)]
pub struct CompiledIn<'ir> {
    lang: &'static str,
    ir: &'ir DeviceIr,
    fresh: Fresh,
}

/// The constructor a spec's glue provides: a cold instance of its
/// emitted interface.
pub type Fresh = fn() -> Box<dyn Surface>;

impl<'ir> CompiledIn<'ir> {
    /// The rig of the `lang` stubs emitted from `ir` whose glue
    /// provides `fresh`.
    pub fn new(lang: &'static str, ir: &'ir DeviceIr, fresh: Fresh) -> Self {
        CompiledIn { lang, ir, fresh }
    }
}

impl Rig for CompiledIn<'_> {
    fn name(&self) -> String {
        format!("compiled {} stubs", self.lang)
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        fold(self.ir, &mut *(self.fresh)(), ops, trace, false)
    }
}

/// Generates the [`Surface`] glue of the Rust module emitted from `ir`,
/// committed as `tests/goldens/glue/<name>.rs` beside the module
/// `tests/goldens/<name>.rs`, which it includes. It only calls the
/// stubs: signed getters' results are masked back to raw width (the
/// emitted getters sign-extend, the runtime returns raw bits), and the
/// cache fields are listed in IR slot order. A `fresh()` function hands
/// out a cold instance.
pub fn rust_glue(ir: &DeviceIr, name: &str) -> String {
    let ty = camel(&ir.name);
    let mut g = format!(
        "// Surface glue for the emitted `{0}` module. Generated by devil-fuzz; do not edit.\n\
         use devil_fuzz::Surface;\n\
         use devil_runtime::{{DeviceAccess, RtError}};\n\
         use devil_sema::model::{{StructId, VarId}};\n\n\
         #[path = \"../{name}.rs\"]\nmod stubs;\n\n\
         /// A cold `{ty}` behind its id-keyed surface.\n\
         pub fn fresh() -> Box<dyn Surface> {{\n    Box::new(stubs::{ty}::new())\n}}\n\n\
         impl Surface for stubs::{ty} {{\n",
        ir.name
    );
    let vars = || ir.vars.iter().zip(0..);
    let args =
        |var: &VarIr| (0..var.params.len()).map(|k| format!(", args[{k}]")).collect::<String>();
    // A getter's result as raw bits; a family call's `Err` returns.
    let raw = |var: &VarIr, call: String| {
        let call = if var.params.is_empty() { call } else { format!("{call}?") };
        match var.ty {
            TypeSem::SInt(_) => format!("({call} as u64) & {:#x}", devil_ir::width_mask(var.width)),
            _ => call,
        }
    };
    let arms = vars().filter(|(v, _)| v.read_plan.is_some()).map(|(var, i)| {
        let (verb, dev) = match (var.mem_cell, var.parent) {
            (Some(_), _) => ("get", String::new()),
            (None, Some(_)) => ("read", format!("dev{}", args(var))),
            (None, None) => ("get", format!("dev{}", args(var))),
        };
        (i, raw(var, format!("self.{verb}_{}({dev})", var.name)))
    });
    let dev = "dev: &mut dyn DeviceAccess";
    method(&mut g, "read_var", &format!("{dev}, vid: VarId, args: &[u64]"), "u64", "vid.0", arms);
    let arms = vars().filter(|(v, _)| v.write_plan.is_some()).map(|(var, i)| {
        let n = &var.name;
        let call = match () {
            _ if var.mem_cell.is_some() && var.set.is_empty() => format!("self.set_{n}(v)"),
            _ if var.params.is_empty() => format!("self.set_{n}(dev, v)"),
            _ => format!("self.set_{n}(dev{}, v)?", args(var)),
        };
        (i, call)
    });
    let params = format!("{dev}, vid: VarId, args: &[u64], v: u64");
    method(&mut g, "write_var", &params, "()", "vid.0", arms);

    let sid = format!("{dev}, sid: StructId");
    let arms = stubbed(ir, false).map(|(s, st)| (s, format!("self.get_{}(dev)", st.name)));
    method(&mut g, "read_struct", &sid, "()", "sid.0", arms);
    let arms =
        stubbed_fields(ir, false).map(|(f, var)| (f, raw(var, format!("self.get_{}()", var.name))));
    method(&mut g, "get_field", "fid: VarId", "u64", "fid.0", arms);
    let arms = stubbed_fields(ir, true).map(|(f, var)| (f, format!("self.stage_{}(v)", var.name)));
    method(&mut g, "set_field", "fid: VarId, v: u64", "()", "fid.0", arms);
    let arms = stubbed(ir, true).map(|(s, st)| (s, format!("self.put_{}(dev)", st.name)));
    method(&mut g, "write_struct", &sid, "()", "sid.0", arms);
    // Plain block transfers have no stub (`stub_expresses`).
    for (name, buf) in [("read_block", "&mut [u64]"), ("write_block", "&[u64]")] {
        let params = format!("{dev}, vid: VarId, buf: {buf}");
        method(&mut g, name, &params, "()", "vid", std::iter::empty());
    }

    let arms = ir.superplans().iter().zip(0..).map(|(sp, k)| {
        let mut call = format!("self.sp_{}(dev", sp.name);
        for i in 0..sp.args {
            let _ = write!(call, ", args[{i}]");
        }
        let (has_out, has_in) = blocks(sp);
        for (has, buf) in [(sp.outputs > 0, "outs"), (has_out, "block_out"), (has_in, "block_in")] {
            if has {
                let _ = write!(call, ", {buf}");
            }
        }
        (k, call + ")")
    });
    let bufs = "args: &[u64], block_out: &[u64], block_in: &mut [u64], outs: &mut [u64]";
    method(&mut g, "superplan", &format!("{dev}, k: usize, {bufs}"), "()", "k", arms);

    // The cache fields in slot order: the lowering numbers registers'
    // slots in declaration order, a family's as one contiguous range.
    let cached: Vec<&RegIr> =
        ir.regs.iter().filter(|r| r.slot.is_some() || r.family_slots.is_some()).collect();
    let list = |kind: &str| {
        let field = |r: &&RegIr| match r.slot {
            Some(_) => format!("&[self.{kind}_{}]", r.name),
            None => format!("&self.{kind}_{}", r.name),
        };
        cached.iter().map(field).collect::<Vec<_>>().join(", ")
    };
    let n = cached.len();
    let mut cells: Vec<(usize, &str)> =
        ir.vars.iter().filter_map(|v| Some((v.mem_cell?, &v.name[..]))).collect();
    cells.sort_unstable();
    let cells: Vec<String> = cells.iter().map(|(_, n)| format!("self.mem_{n}")).collect();
    let _ = writeln!(g, "    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {{");
    let _ = writeln!(g, "        let slots: [&[u64]; {n}] = [{}];", list("cache"));
    let _ = writeln!(g, "        let valid: [&[bool]; {n}] = [{}];", list("valid"));
    let _ = writeln!(g, "        let mem = vec![{}];", cells.join(", "));
    let _ = writeln!(g, "        (slots.concat(), valid.concat(), mem)\n    }}\n}}");
    g
}

/// Appends the glue method `name(&mut self, params) -> Result<ret,
/// RtError>`: a `match` on `key` (an id parameter, or its index) over
/// `arms` — each an id and the stub call it dispatches to — whose
/// value is the result, or is discarded before `Ok(())` when `ret` is
/// `()`. A method without arms is unreachable: the oracle never
/// replays what the spec has no stub for. A parameter no arm names is
/// renamed `_`.
fn method(
    g: &mut String,
    name: &str,
    params: &str,
    ret: &str,
    key: &str,
    arms: impl Iterator<Item = (u32, String)>,
) {
    let arms: String = arms.map(|(id, call)| format!("            {id} => {call},\n")).collect();
    let id = key.split('.').next().unwrap_or(key);
    let named = |param: &str| {
        let (p, ty) = param.split_once(": ").expect("`name: type`");
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        let mut at = arms.match_indices(p).map(|(i, _)| (&arms[..i], &arms[i + p.len()..]));
        let used =
            p == id || at.any(|(l, r)| !ident(l.chars().next_back()) && !ident(r.chars().next()));
        format!("{}: {ty}", if used { p } else { "_" })
    };
    let params: Vec<String> = params.split(", ").map(named).collect();
    let _ =
        writeln!(g, "    fn {name}(&mut self, {}) -> Result<{ret}, RtError> {{", params.join(", "));
    let fallback = format!("unreachable!(\"no stub for {{{id}:?}}\")");
    let _ = match (arms.is_empty(), ret) {
        (true, _) => writeln!(g, "        {fallback}"),
        (false, "()") => writeln!(g, "        match {key} {{\n{arms}            _ => {fallback},\n        }}\n        Ok(())"),
        (false, _) => writeln!(g, "        Ok(match {key} {{\n{arms}            _ => {fallback},\n        }})"),
    };
    g.push_str("    }\n\n");
}

/// The base address a C glue file's cold reset gives port `p` is
/// `p << PORT_SHIFT`: the bus callback reads the port index above that
/// bit and the register offset below it.
pub const PORT_SHIFT: u32 = 40;

/// The fixed head of every C glue file, ahead of its header: the port
/// primitives, and block primitives that move one word per bus cycle,
/// each a call of the Rust bus callback `devil_bus` with its width, on
/// the bus of the entry point that runs.
const C_PRELUDE: &str = r#"extern unsigned long long devil_bus(void *dev, int write, unsigned width,
                                    unsigned long long addr, unsigned long long value);
static void *bus;

#define DEVIL_NO_SYS_IO 1
#define inb(a) devil_bus(bus, 0, 8, (a), 0)
#define inw(a) devil_bus(bus, 0, 16, (a), 0)
#define inl(a) devil_bus(bus, 0, 32, (a), 0)
#define outb(v, a) ((void)devil_bus(bus, 1, 8, (a), (v)))
#define outw(v, a) ((void)devil_bus(bus, 1, 16, (a), (v)))
#define outl(v, a) ((void)devil_bus(bus, 1, 32, (a), (v)))
#define devil_ins(w, a, b, n) do { unsigned long i_; \
    for (i_ = 0; i_ < (unsigned long)(n); ++i_) (b)[i_] = devil_bus(bus, 0, (w), (a), 0); } while (0)
#define devil_outs(w, a, b, n) do { unsigned long i_; \
    for (i_ = 0; i_ < (unsigned long)(n); ++i_) (void)devil_bus(bus, 1, (w), (a), (b)[i_]); } while (0)
#define devil_ins8(a, b, n) devil_ins(8, a, b, n)
#define devil_ins16(a, b, n) devil_ins(16, a, b, n)
#define devil_ins32(a, b, n) devil_ins(32, a, b, n)
#define devil_outs8(a, b, n) devil_outs(8, a, b, n)
#define devil_outs16(a, b, n) devil_outs(16, a, b, n)
#define devil_outs32(a, b, n) devil_outs(32, a, b, n)
"#;

/// The id-keyed entry points of a C glue file, in [`Surface`] order:
/// name and parameters. Each returns 0, a family call's `bad_arg`
/// (`k + 1` for a bad argument `k`), or -1 for an id without a stub or
/// a call with the wrong number of arguments (`n`) or outputs (`no`).
const C_ENTRIES: [(&str, &str); 7] = [
    ("read_var", "void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long *v"),
    ("write_var", "void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v"),
    ("read_struct", "void *dev, unsigned id"),
    ("get_field", "unsigned id, unsigned long long *v"),
    ("set_field", "unsigned id, unsigned long long v"),
    ("write_struct", "void *dev, unsigned id"),
    ("superplan", "void *dev, unsigned id, const unsigned long long *a, unsigned long n, const unsigned long long *bo, unsigned long bon, unsigned long long *bi, unsigned long bin, unsigned long long *outs, unsigned long no"),
];

/// The parameters of a C glue file's cache dump.
const C_DUMP: &str = "unsigned long long *slots, unsigned char *valid, unsigned long long *mem";

/// Generates the C glue of the header emitted from `ir` as `name`,
/// committed as `tests/goldens/glue/<name>.c` beside the header
/// `tests/goldens/<name>.h`, which it includes. It defines the cache and
/// exports `<name>_glue`, a table of: the number of cache slots and of
/// memory cells, every variable's name by id, one id-keyed entry point
/// per [`Surface`] call but the plain block transfers, a cold reset,
/// and a dump of the cache slots (in IR slot order) and memory cells
/// (in `VarIr::mem_cell` order). The entry points only call the stubs.
pub fn c_glue(ir: &DeviceIr, name: &str) -> String {
    let p = name;
    let mut c = format!(
        "/* Surface glue for the emitted `{p}` header. Generated by devil-fuzz; do not edit. */\n\
         {C_PRELUDE}\n#include \"../{p}.h\"\n\nstruct {p}_cache_t {p}_cache;\n\n\
         struct devil_glue {{\n    unsigned slots, cells;\n    const char *const *vars;\n"
    );
    for (entry, params) in C_ENTRIES {
        let _ = writeln!(c, "    int (*{entry})({params});");
    }
    let _ = writeln!(c, "    void (*reset)(void);\n    void (*dump)({C_DUMP});\n}};");

    let args = |var: &VarIr| (0..var.params.len()).map(|k| format!("a[{k}], ")).collect::<String>();
    // A variable access: a family call checks its argument count and
    // returns its `bad_arg`.
    let access = |var: &VarIr, stmt: String| match var.params.len() {
        0 => vec![stmt, "return 0;".into()],
        n => vec![format!("if (n != {n}) break;"), stmt, format!("return {p}_cache.bad_arg;")],
    };
    let done = |stmt: String| vec![stmt, "return 0;".to_string()];
    let vars = || ir.vars.iter().zip(0u32..);
    let read_var = vars().filter(|(v, _)| v.read_plan.is_some()).map(|(var, i)| {
        let verb = if var.mem_cell.is_none() && var.parent.is_some() { "read" } else { "get" };
        let call = format!("{p}_{verb}_{}({})", var.name, args(var).trim_end_matches(", "));
        (i, access(var, format!("*v = {call};")))
    });
    let write_var = vars()
        .filter(|(v, _)| v.write_plan.is_some())
        .map(|(var, i)| (i, access(var, format!("{p}_set_{}({}v);", var.name, args(var)))));
    let read_struct =
        stubbed(ir, false).map(|(s, st)| (s, done(format!("{p}_get_{}();", st.name))));
    let get_field = stubbed_fields(ir, false)
        .map(|(f, var)| (f, done(format!("*v = {p}_getf_{}();", var.name))));
    let set_field =
        stubbed_fields(ir, true).map(|(f, var)| (f, done(format!("{p}_setf_{}(v);", var.name))));
    let write_struct =
        stubbed(ir, true).map(|(s, st)| (s, done(format!("{p}_put_{}();", st.name))));
    let superplan = ir.superplans().iter().zip(0u32..).map(|(sp, k)| {
        let (has_out, has_in) = blocks(sp);
        let mut operands: Vec<String> = (0..sp.args).map(|i| format!("a[{i}]")).collect();
        for (has, bufs) in [(sp.outputs > 0, "outs"), (has_out, "bo, bon"), (has_in, "bi, bin")] {
            if has {
                operands.push(bufs.into());
            }
        }
        let check = format!("if (n != {} || no != {}) break;", sp.args, sp.outputs);
        let call = format!("{p}_sp_{}({});", sp.name, operands.join(", "));
        (k, vec![check, call, "return 0;".into()])
    });
    let arms: [Vec<(u32, Vec<String>)>; 7] = [
        read_var.collect(),
        write_var.collect(),
        read_struct.collect(),
        get_field.collect(),
        set_field.collect(),
        write_struct.collect(),
        superplan.collect(),
    ];
    for ((entry, params), arms) in C_ENTRIES.iter().zip(arms) {
        let _ = writeln!(c, "\nstatic int {entry}({params})\n{{");
        if params.starts_with("void *dev") {
            c.push_str("    bus = dev;\n");
        }
        if !arms.is_empty() {
            c.push_str("    switch (id) {\n");
            for (id, stmts) in arms {
                let _ = writeln!(c, "    case {id}:");
                for stmt in stmts {
                    let _ = writeln!(c, "        {stmt}");
                }
            }
            c.push_str("    }\n");
        }
        c.push_str("    return -1;\n}\n");
    }

    let _ = writeln!(
        c,
        "\nstatic void reset(void)\n{{\n    static const struct {p}_cache_t cold;\n    {p}_cache = cold;\n    \
         for (unsigned long i = 0; i < {}; i++)\n        {p}_cache.__dil_base__[i] = i << {PORT_SHIFT};\n}}",
        ir.ports.len()
    );
    let _ = writeln!(c, "\nstatic void dump({C_DUMP})\n{{");
    for reg in &ir.regs {
        let (n, at) = (&reg.name, format!("{p}_cache"));
        if let Some(k) = reg.slot {
            let _ =
                writeln!(c, "    slots[{k}] = {at}.cache_{n};\n    valid[{k}] = {at}.valid_{n};");
        }
        if let Some(fs) = &reg.family_slots {
            let _ = writeln!(
                c,
                "    for (int i = 0; i < {}; i++) {{\n        slots[{b} + i] = {at}.cache_{n}[i];\n        \
                 valid[{b} + i] = {at}.valid_{n}[i];\n    }}",
                fs.count,
                b = fs.base
            );
        }
    }
    let mut cells = 0;
    for var in &ir.vars {
        if let Some(cell) = var.mem_cell {
            let _ = writeln!(c, "    mem[{cell}] = {p}_cache.mem_{};", var.name);
            cells = cells.max(cell + 1);
        }
    }
    let names: Vec<String> = ir.vars.iter().map(|v| format!("\"{}\"", v.name)).collect();
    let _ = writeln!(c, "}}\n\nstatic const char *const vars[] = {{{}}};", names.join(", "));
    let entries: Vec<&str> = C_ENTRIES.iter().map(|(entry, _)| *entry).collect();
    let _ = writeln!(
        c,
        "\nconst struct devil_glue {p}_glue = {{\n    {}, {cells}, vars,\n    {}, reset, dump,\n}};",
        ir.cache_slots,
        entries.join(", ")
    );
    c
}
