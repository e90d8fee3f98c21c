//! The compiled-code differential oracle: proves the **generated C and
//! Rust stubs** faithful to the plan executor by actually compiling and
//! running them.
//!
//! For one spec, [`CompiledHarness::build`] emits one back end's stubs
//! ([`Backend::emit`]), wraps them in a generated harness — a logging
//! bus shim plus a command dispatcher over the emitted stub surface —
//! and compiles the pair: with `cc` for C, with `rustc` against a
//! `devil_runtime` stand-in for Rust (`compiled_rust.rs`).
//! Artifacts are content-hashed, so repeated runs and CI caches reuse
//! the binary until the emitter or the spec changes.
//!
//! Both harnesses read one command protocol and print one observation
//! format: every bus operation in order, every result, and the final
//! cache state (raw values, validity flags, memory cells).
//! [`HarnessView`] renders the plan executor in the same lines, so a
//! harness and its view are two [`Rig`]s for [`crate::compare`], one
//! leaf per line.
//!
//! Every access with a compiled plan has a stub, family variables
//! included (their out-of-domain calls print the runtime's
//! `ArgOutOfRange` line). [`stub_expresses`] drops — identically for
//! both rigs — only what has no stub at all: accesses without a plan,
//! plain block transfers (not dispatch points), and structure accesses
//! a field of which has no cache getter or stager.

use crate::{Op, Rig, Trace};
use devil_codegen::{gets_field, stages_field};
use devil_ir::{AccessRef, DeviceIr, FuseOp};
use devil_runtime::{DeviceInstance, FakeAccess};
use devil_sema::model::StructId;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A compiled back end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `devil_codegen::emit_c`, compiled with `cc -Wall -Werror`.
    C,
    /// `devil_codegen::emit_rust`, compiled with `rustc`.
    Rust,
}

impl Backend {
    /// The compiler the back end needs.
    pub fn compiler(self) -> &'static str {
        match self {
            Backend::C => "cc",
            Backend::Rust => "rustc",
        }
    }

    /// Whether the compiler is reachable (the oracle is skipped,
    /// loudly, where it is not).
    pub fn available(self) -> bool {
        Command::new(self.compiler())
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok()
    }

    /// The emitted stubs of `ir`; `name` doubles as the C identifier
    /// prefix.
    pub fn emit(self, ir: &DeviceIr, name: &str) -> String {
        match self {
            Backend::C => devil_codegen::emit_c(ir, name),
            Backend::Rust => devil_codegen::emit_rust(ir),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::C => "C",
            Backend::Rust => "Rust",
        })
    }
}

/// A per-spec compiled stub harness of one back end.
pub struct CompiledHarness {
    /// Spec name (doubles as the C identifier prefix).
    pub name: String,
    /// The back end it was built from.
    pub backend: Backend,
    /// Path of the compiled harness binary.
    bin: PathBuf,
    /// The lowered spec.
    pub ir: DeviceIr,
}

/// The decoded shim address layout: Devil port index in the high bits,
/// register offset below. Must match the generated C harness.
const PORT_SHIFT: u64 = 40;

impl CompiledHarness {
    /// Emits, generates and compiles the harness for one spec into
    /// `dir`. The binary is content-hashed over the generated sources,
    /// so an unchanged emitter and spec reuse the artifact.
    pub fn build(
        backend: Backend,
        name: &str,
        ir: &DeviceIr,
        dir: &Path,
    ) -> Result<CompiledHarness, String> {
        let bin = match backend {
            Backend::C => build_c(name, ir, dir)?,
            Backend::Rust => crate::compiled_rust::build(name, ir, dir)?,
        };
        Ok(CompiledHarness { name: name.into(), backend, bin, ir: ir.clone() })
    }

    /// The plan executor rendered in this harness's observation lines.
    pub fn view(&self) -> HarnessView<'_> {
        HarnessView { ir: &self.ir }
    }

    /// Runs the harness over a command stream, returning its output
    /// lines. Stdin is fed from a thread so large streams cannot
    /// deadlock against a full stdout pipe.
    fn run(&self, commands: String) -> Result<Vec<String>, String> {
        let mut child = Command::new(&self.bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", self.bin.display()))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let writer = std::thread::spawn(move || {
            let _ = stdin.write_all(commands.as_bytes());
        });
        let out = child.wait_with_output().map_err(|e| format!("harness: {e}"))?;
        let _ = writer.join();
        if !out.status.success() {
            return Err(format!(
                "{} harness for {} exited with {:?}:\n{}",
                self.backend,
                self.name,
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect())
    }
}

impl Rig for CompiledHarness {
    fn name(&self) -> String {
        format!("compiled {} stubs", self.backend)
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        let mut commands = String::new();
        for op in ops.filter(|op| stub_expresses(&self.ir, op)) {
            op_command(&self.ir, &op, &mut commands);
            trace.ops += 1;
        }
        commands.push_str("D\n");
        for line in self.run(commands)? {
            trace.line(line);
        }
        Ok(())
    }
}

/// Compiles the C harness, returning the binary's path.
fn build_c(name: &str, ir: &DeviceIr, dir: &Path) -> Result<PathBuf, String> {
    let header = Backend::C.emit(ir, name);
    let harness = harness_c(ir, name);
    let hash = fnv1a(header.as_bytes()) ^ fnv1a(harness.as_bytes()).rotate_left(1);
    let stem = format!("{name}_{hash:016x}");
    let bin = dir.join(format!("oracle_{stem}"));
    if bin.exists() {
        return Ok(bin);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let h_path = dir.join(format!("{stem}.h"));
    let c_path = dir.join(format!("{stem}.c"));
    write_file(&h_path, &header)?;
    // The shim half of the harness precedes the include: the header's
    // `static inline` superplan bodies must bind the bus primitives to
    // the shim at their definition site, not only at the macro-stub
    // use sites in `main`.
    write_file(&c_path, &harness.replace("@INCLUDE@", &format!("#include \"{stem}.h\"")))?;
    // Compile to a temp name and rename, so concurrent builders never
    // observe a half-written binary.
    let tmp = dir.join(format!("oracle_{stem}.tmp.{}", std::process::id()));
    invoke(
        Command::new("cc").args(["-O1", "-Wall", "-Werror", "-o"]).arg(&tmp).arg(&c_path),
        name,
    )?;
    std::fs::rename(&tmp, &bin).map_err(|e| format!("{}: {e}", bin.display()))?;
    Ok(bin)
}

pub(crate) fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one compiler invocation, reporting its stderr on failure.
pub(crate) fn invoke(cmd: &mut Command, name: &str) -> Result<(), String> {
    let program = cmd.get_program().to_string_lossy().into_owned();
    let out = cmd.output().map_err(|e| format!("{program}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{program} failed for {name}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Whether the emitted stub surface can express `op`; both rigs of the
/// oracle replay exactly the ops it keeps.
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

/// Whether the harness replays structure `sid`'s read (`write` false:
/// then reads every field back) or its flush (staging every field
/// first): the access has a stub and every field a cache getter, or
/// stager.
pub(crate) fn struct_stubbed(ir: &DeviceIr, sid: StructId, write: bool) -> bool {
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

/// Renders one expressible op in the harness's command protocol:
/// variables, structures and superplans by id, a variable's family
/// arguments after its value.
fn op_command(ir: &DeviceIr, op: &Op, out: &mut String) {
    use std::fmt::Write as _;
    match op {
        Op::Preset { port, offset, value } => {
            let _ = write!(out, "P {port} {offset} {value}");
        }
        Op::ReadVar { vid, args } => {
            let _ = write!(out, "RV {}", vid.0);
            for a in args {
                let _ = write!(out, " {a}");
            }
        }
        Op::WriteVar { vid, args, value } => {
            let _ = write!(out, "WV {} {value}", vid.0);
            for a in args {
                let _ = write!(out, " {a}");
            }
        }
        Op::ReadStruct { sid } => {
            let _ = write!(out, "RS {}", sid.0);
        }
        Op::WriteStruct { sid, values } => {
            let _ = write!(out, "WS {}", sid.0);
            // Values in struct-field order, as the harness stages.
            for &fid in ir.strct(*sid).fields.iter() {
                let v = values.iter().find(|&&(f, _)| f == fid).expect("filtered").1;
                let _ = write!(out, " {v}");
            }
        }
        Op::Super(call) => {
            let _ = write!(out, "SP {}", call.sid);
            for &a in &call.args {
                let _ = write!(out, " {a}");
            }
            let sp = &ir.superplans()[call.sid];
            if sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. })) {
                let _ = write!(out, " {}", call.block_out.len());
                for &w in &call.block_out {
                    let _ = write!(out, " {w}");
                }
            }
            if sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. })) {
                let _ = write!(out, " {}", call.block_in_len);
            }
        }
        Op::ReadBlock { .. } | Op::WriteBlock { .. } => unreachable!("filtered"),
    }
    out.push('\n');
}

/// The plan executor rendered in the harness's observation lines —
/// interleaved bus traffic and results, then the final cache dump — so
/// a [`CompiledHarness`] has a rig to be compared against.
pub struct HarnessView<'a> {
    ir: &'a DeviceIr,
}

impl HarnessView<'_> {
    /// The plan executor's hit table after replaying the ops the stubs
    /// express: which dispatch points the compiled oracle's streams
    /// reach.
    pub fn hits(&self, ops: impl IntoIterator<Item = Op>) -> Result<Vec<u64>, String> {
        let inst = self.run(&mut ops.into_iter(), &mut Trace::new(false, 0..0))?;
        Ok(inst.hits().to_vec())
    }

    /// Replays the expressible ops through a fresh plan executor,
    /// tracing the harness's observation lines; returns the instance.
    fn run(
        &self,
        ops: &mut dyn Iterator<Item = Op>,
        trace: &mut Trace,
    ) -> Result<DeviceInstance, String> {
        let ir = self.ir;
        let mut inst = DeviceInstance::new(ir.clone());
        let mut dev = FakeAccess::new();
        let said = |r: Result<(), devil_runtime::RtError>, tag: String| match r {
            Ok(()) => format!("O {tag} ok"),
            Err(e) => format!("O {tag} ERR {e:?}"),
        };
        let value = |r: Result<u64, devil_runtime::RtError>, tag: String| match r {
            Ok(v) => format!("O {tag} {v}"),
            Err(e) => format!("O {tag} ERR {e:?}"),
        };
        for op in ops.filter(|op| stub_expresses(ir, op)) {
            trace.ops += 1;
            let mut lines = Vec::new();
            match &op {
                Op::Preset { port, offset, value } => dev.preset(*port, *offset, *value),
                Op::ReadVar { vid, args } => {
                    lines.push(value(inst.read_id(&mut dev, *vid, args), format!("r{}", vid.0)));
                }
                Op::WriteVar { vid, args, value } => {
                    let r = inst.write_id(&mut dev, *vid, args, *value);
                    lines.push(said(r, format!("w{}", vid.0)));
                }
                Op::ReadStruct { sid } => {
                    let r = inst.read_struct_id(&mut dev, *sid);
                    let ok = r.is_ok();
                    lines.push(said(r, format!("rs{}", sid.0)));
                    if ok {
                        for &fid in ir.strct(*sid).fields.iter() {
                            lines.push(value(inst.get_field_id(fid), format!("f{}", fid.0)));
                        }
                    }
                }
                Op::WriteStruct { sid, values } => {
                    let staged = ir.strct(*sid).fields.iter().try_for_each(|&fid| {
                        let v = values.iter().find(|&&(f, _)| f == fid).expect("filtered").1;
                        inst.set_field_id(fid, v)
                    });
                    let r = staged.and_then(|()| inst.write_struct_id(&mut dev, *sid));
                    lines.push(said(r, format!("ws{}", sid.0)));
                }
                Op::Super(call) => {
                    let sp = &ir.superplans()[call.sid];
                    let mut block_in = vec![0u64; call.block_in_len];
                    let mut outs = vec![0u64; sp.outputs];
                    inst.run_superplan(
                        &mut dev,
                        call.sid,
                        &call.args,
                        &call.block_out,
                        &mut block_in,
                        &mut outs,
                    )
                    .map_err(|e| format!("superplan `{}` failed: {e:?}", sp.name))?;
                    lines.push(format!("O sp{} ok", call.sid));
                    lines.extend(outs.iter().enumerate().map(|(j, v)| format!("O o{j} {v}")));
                    lines.extend(block_in.iter().map(|v| format!("O bi {v}")));
                }
                Op::ReadBlock { .. } | Op::WriteBlock { .. } => unreachable!("filtered"),
            }
            for &(w, port, offset, value) in &dev.log {
                trace.line(format!("B {} {port} {offset} {value}", if w { "W" } else { "R" }));
            }
            dev.log.clear();
            for line in lines {
                trace.line(line);
            }
        }
        // The final cache dump, in the exact order the harness prints
        // it: every register's slot, every family instance's, every cell.
        let (slots, valid) = inst.cache_snapshot();
        for reg in &ir.regs {
            if let Some(slot) = reg.slot {
                trace.line(format!("C {} {} {}", reg.name, slots[slot], u8::from(valid[slot])));
            }
            if let Some(fs) = &reg.family_slots {
                for (k, slot) in (fs.base..fs.base + fs.count).enumerate() {
                    let (v, ok) = (slots[slot], u8::from(valid[slot]));
                    trace.line(format!("C {}[{k}] {v} {ok}", reg.name));
                }
            }
        }
        let mem = inst.mem_snapshot();
        for var in &ir.vars {
            if let Some(cell) = var.mem_cell {
                trace.line(format!("M {} {}", var.name, mem[cell]));
            }
        }
        Ok(inst)
    }
}

impl Rig for HarnessView<'_> {
    fn name(&self) -> String {
        "plans (harness view)".into()
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        self.run(ops, trace).map(drop)
    }
}

/// The C harness's fixed half, ahead of the header: the logging bus
/// shim — a linear (addr, value) register file whose untouched
/// addresses read 0, exactly like the Rust `FakeAccess` — bound to the
/// port primitives, and per-word block primitives (so the log shows
/// every bus cycle) in place of the header's `<sys/io.h>` defaults.
const SHIM_C: &str = r#"#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define SHIM_CAP 65536
static unsigned long long shim_addr[SHIM_CAP];
static unsigned long long shim_val[SHIM_CAP];
static int shim_n = 0;

static int shim_find(unsigned long long addr) {
    for (int i = 0; i < shim_n; i++)
        if (shim_addr[i] == addr) return i;
    return -1;
}

static void shim_set(unsigned long long addr, unsigned long long v) {
    int i = shim_find(addr);
    if (i < 0) {
        if (shim_n >= SHIM_CAP) abort();
        i = shim_n++;
        shim_addr[i] = addr;
    }
    shim_val[i] = v;
}

static inline unsigned long long shim_in(unsigned long long addr) {
    int i = shim_find(addr);
    unsigned long long v = i < 0 ? 0 : shim_val[i];
    printf("B R %llu %llu %llu\n", addr >> PORT_SHIFT, addr & ((1ULL << PORT_SHIFT) - 1), v);
    return v;
}

static inline void shim_out(unsigned long long v, unsigned long long addr) {
    shim_set(addr, v);
    printf("B W %llu %llu %llu\n", addr >> PORT_SHIFT, addr & ((1ULL << PORT_SHIFT) - 1), v);
}

#define inb shim_in
#define inw shim_in
#define inl shim_in
#define outb shim_out
#define outw shim_out
#define outl shim_out
#define DEVIL_NO_SYS_IO 1
#define devil_ins(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = shim_in(p); } while (0)
#define devil_outs(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) shim_out((b)[__i], (p)); } while (0)
#define devil_ins8 devil_ins
#define devil_ins16 devil_ins
#define devil_ins32 devil_ins
#define devil_outs8 devil_outs
#define devil_outs16 devil_outs
#define devil_outs32 devil_outs
"#;

/// Generates the C harness around an emitted header: the bus shim plus
/// a command dispatcher over the stub surface. Every command but `P`
/// and `D` names its variable, structure or superplan by id.
fn harness_c(ir: &DeviceIr, prefix: &str) -> String {
    use std::fmt::Write as _;
    let mut c = format!("#define PORT_SHIFT {PORT_SHIFT}\n{SHIM_C}\n@INCLUDE@\n\n");
    let _ = writeln!(c, "struct {prefix}_cache_t {prefix}_cache;\n");
    let _ = writeln!(c, "int main(void) {{");
    let _ = writeln!(c, "    for (int p = 0; p < {}; p++)", ir.ports.len());
    let _ = writeln!(c, "        {prefix}_cache.__dil_base__[p] = (unsigned long)p << PORT_SHIFT;");
    let _ = writeln!(c, "    char cmd[16];\n    int k;\n    unsigned long long v;");
    let _ = writeln!(c, "    while (scanf(\"%15s\", cmd) == 1) {{");
    let _ = writeln!(c, "        if (!strcmp(cmd, \"P\")) {{");
    let _ = writeln!(c, "            unsigned long long p, o;");
    let _ = writeln!(c, "            if (scanf(\"%llu %llu %llu\", &p, &o, &v) != 3) return 1;");
    let _ = writeln!(c, "            shim_set((p << PORT_SHIFT) + o, v);");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"D\")) {{");
    for reg in &ir.regs {
        let (n, at) = (&reg.name, format!("{prefix}_cache.cache_{}", reg.name));
        if reg.slot.is_some() {
            let _ = writeln!(
                c,
                "            printf(\"C {n} %llu %d\\n\", {at}, (int){prefix}_cache.valid_{n});"
            );
        }
        if let Some(fs) = &reg.family_slots {
            let _ = writeln!(c, "            for (int i = 0; i < {}; i++)", fs.count);
            let _ = writeln!(
                c,
                "                printf(\"C {n}[%d] %llu %d\\n\", i, {at}[i], (int){prefix}_cache.valid_{n}[i]);"
            );
        }
    }
    for var in ir.vars.iter().filter(|v| v.mem_cell.is_some()) {
        let n = &var.name;
        let _ = writeln!(c, "            printf(\"M {n} %llu\\n\", {prefix}_cache.mem_{n});");
    }
    let _ = writeln!(c, "        }} else if (scanf(\"%d\", &k) != 1) {{\n            return 1;");
    // One `switch (k)` per command, after `pre`; `end` closes it.
    let section = |c: &mut String, cmd: &str, pre: &str| {
        let _ = writeln!(
            c,
            "        }} else if (!strcmp(cmd, \"{cmd}\")) {{\n{pre}            switch (k) {{"
        );
    };
    let end = "            default: return 1;\n            }\n";
    // A family stub's arguments follow; a call that sets `bad_arg`
    // prints the runtime's `ArgOutOfRange` observation.
    let family_call = |c: &mut String, var: &devil_ir::VarIr, tag: &str, call: &str, read: bool| {
        let (n, name) = (var.params.len(), &var.name);
        // A getter's value is printed; a setter is a `void` expression.
        let (shown, r, call) = if read {
            ("%llu\\n\", r", ", r", format!("r = (unsigned long long)({call})"))
        } else {
            ("ok\\n\"", "", call.to_string())
        };
        let _ = writeln!(c, "                unsigned long long a[{n}]{r};");
        let _ = writeln!(c, "                for (int i = 0; i < {n}; i++)");
        let _ = writeln!(c, "                    if (scanf(\"%llu\", &a[i]) != 1) return 1;");
        let _ = writeln!(c, "                {call};");
        let _ = writeln!(c, "                if ({prefix}_cache.bad_arg)");
        let _ = writeln!(
            c,
            "                    printf(\"O {tag} ERR ArgOutOfRange {{ var: \\\"{name}\\\", value: %llu }}\\n\", a[{prefix}_cache.bad_arg - 1]);"
        );
        let _ = writeln!(c, "                else\n                    printf(\"O {tag} {shown});");
        let _ = writeln!(c, "                break; }}");
    };
    let args = |var: &devil_ir::VarIr| {
        (0..var.params.len()).map(|i| format!("a[{i}], ")).collect::<String>()
    };
    section(&mut c, "RV", "");
    for (vi, var) in ir.vars.iter().enumerate().filter(|(_, v)| v.read_plan.is_some()) {
        let verb = if var.mem_cell.is_none() && var.parent.is_some() { "read" } else { "get" };
        let call = format!("{prefix}_{verb}_{}({})", var.name, args(var).trim_end_matches(", "));
        if var.params.is_empty() {
            let _ = writeln!(
                c,
                "            case {vi}: printf(\"O r{vi} %llu\\n\", (unsigned long long)({call})); break;"
            );
        } else {
            let _ = writeln!(c, "            case {vi}: {{");
            family_call(&mut c, var, &format!("r{vi}"), &call, true);
        }
    }
    c.push_str(end);
    section(&mut c, "WV", "            if (scanf(\"%llu\", &v) != 1) return 1;\n");
    for (vi, var) in ir.vars.iter().enumerate().filter(|(_, v)| v.write_plan.is_some()) {
        let call = format!("{prefix}_set_{}({}v)", var.name, args(var));
        if var.params.is_empty() {
            let _ = writeln!(c, "            case {vi}: {call}; printf(\"O w{vi} ok\\n\"); break;");
        } else {
            let _ = writeln!(c, "            case {vi}: {{");
            family_call(&mut c, var, &format!("w{vi}"), &call, false);
        }
    }
    c.push_str(end);
    section(&mut c, "RS", "");
    for (si, st) in ir.structs.iter().enumerate() {
        if struct_stubbed(ir, StructId(si as u32), false) {
            let _ =
                writeln!(c, "            case {si}:\n                {prefix}_get_{}();", st.name);
            let _ = writeln!(c, "                printf(\"O rs{si} ok\\n\");");
            for &fid in st.fields.iter() {
                let (f, name) = (fid.0, &ir.var(fid).name);
                let _ = writeln!(
                    c,
                    "                printf(\"O f{f} %llu\\n\", (unsigned long long)({prefix}_getf_{name}()));"
                );
            }
            let _ = writeln!(c, "                break;");
        }
    }
    c.push_str(end);
    section(&mut c, "WS", "");
    for (si, st) in ir.structs.iter().enumerate() {
        if struct_stubbed(ir, StructId(si as u32), true) {
            let _ = writeln!(c, "            case {si}: {{");
            let _ =
                writeln!(c, "                unsigned long long fv[{}];", st.fields.len().max(1));
            let _ = writeln!(c, "                for (int i = 0; i < {}; i++)", st.fields.len());
            let _ = writeln!(c, "                    if (scanf(\"%llu\", &fv[i]) != 1) return 1;");
            for (i, &fid) in st.fields.iter().enumerate() {
                let _ = writeln!(c, "                {prefix}_setf_{}(fv[{i}]);", ir.var(fid).name);
            }
            let _ = writeln!(c, "                {prefix}_put_{}();", st.name);
            let _ = writeln!(
                c,
                "                printf(\"O ws{si} ok\\n\");\n                break; }}"
            );
        }
    }
    c.push_str(end);
    section(&mut c, "SP", "");
    for (si, sp) in ir.superplans().iter().enumerate() {
        let has_out = sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. }));
        let has_in = sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. }));
        let _ = writeln!(c, "            case {si}: {{");
        let _ = writeln!(c, "                unsigned long long a[{}];", sp.args.max(1));
        let _ = writeln!(c, "                unsigned long long outs[{}];", sp.outputs.max(1));
        let _ = writeln!(c, "                unsigned long long bo[512], bi[512];");
        let _ = writeln!(c, "                unsigned long bon = 0, bin = 0;");
        let _ = writeln!(c, "                (void)a; (void)outs; (void)bo; (void)bi;");
        let _ = writeln!(c, "                (void)bon; (void)bin;");
        let mut call = String::new();
        for i in 0..sp.args {
            let _ = writeln!(c, "                if (scanf(\"%llu\", &a[{i}]) != 1) return 1;");
            let _ = write!(call, ", a[{i}]");
        }
        if sp.outputs > 0 {
            call.push_str(", outs");
        }
        if has_out {
            let _ = writeln!(c, "                if (scanf(\"%lu\", &bon) != 1) return 1;");
            let _ = writeln!(c, "                if (bon > 512) return 1;");
            let _ = writeln!(c, "                for (unsigned long i = 0; i < bon; i++)");
            let _ = writeln!(c, "                    if (scanf(\"%llu\", &bo[i]) != 1) return 1;");
            call.push_str(", bo, bon");
        }
        if has_in {
            let _ = writeln!(c, "                if (scanf(\"%lu\", &bin) != 1) return 1;");
            let _ = writeln!(c, "                if (bin > 512) return 1;");
            call.push_str(", bi, bin");
        }
        let call = call.get(2..).unwrap_or("");
        let _ = writeln!(c, "                {prefix}_sp_{}({call});", sp.name);
        let _ = writeln!(c, "                printf(\"O sp{si} ok\\n\");");
        for j in 0..sp.outputs {
            let _ = writeln!(c, "                printf(\"O o{j} %llu\\n\", outs[{j}]);");
        }
        if has_in {
            let _ = writeln!(c, "                for (unsigned long i = 0; i < bin; i++)");
            let _ = writeln!(c, "                    printf(\"O bi %llu\\n\", bi[i]);");
        }
        let _ = writeln!(c, "                break; }}");
    }
    c.push_str(end);
    let _ = writeln!(
        c,
        "        }} else {{\n            return 1;\n        }}\n    }}\n    return 0;\n}}"
    );
    c
}
