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
//! Ops the stub surface cannot express (family variables, accesses
//! without an emittable plan, block transfers, superplans without an
//! emittable body) are dropped from the stream — identically by both
//! rigs — by [`stub_expresses`].

use crate::{Op, Rig, Trace};
use devil_codegen::StubApi;
use devil_ir::{DeviceIr, FuseOp};
use devil_runtime::{DeviceInstance, FakeAccess};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A compiled back end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `devil_codegen::emit_c`, compiled with `cc`.
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
    /// The emitted stub surface.
    pub api: StubApi,
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
        let api = StubApi::of(ir);
        let bin = match backend {
            Backend::C => build_c(name, ir, &api, dir)?,
            Backend::Rust => crate::compiled_rust::build(name, ir, &api, dir)?,
        };
        Ok(CompiledHarness { name: name.into(), backend, bin, ir: ir.clone(), api })
    }

    /// The plan executor rendered in this harness's observation lines.
    pub fn view(&self) -> HarnessView<'_> {
        HarnessView { ir: &self.ir, api: &self.api }
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
        for op in ops.filter(|op| stub_expresses(&self.ir, &self.api, op)) {
            op_command(&self.ir, &self.api, &op, &mut commands);
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
fn build_c(name: &str, ir: &DeviceIr, api: &StubApi, dir: &Path) -> Result<PathBuf, String> {
    let header = Backend::C.emit(ir, name);
    let harness = harness_c(ir, name, api);
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
    invoke(Command::new("cc").arg("-O1").arg("-o").arg(&tmp).arg(&c_path), name)?;
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
pub fn stub_expresses(ir: &DeviceIr, api: &StubApi, op: &Op) -> bool {
    match op {
        Op::ReadVar { vid, args } => args.is_empty() && api.reads_var(*vid),
        Op::WriteVar { vid, args, .. } => args.is_empty() && api.writes_var(*vid),
        Op::ReadStruct { sid } => {
            api.read_structs.contains(sid)
                && ir.strct(*sid).fields.iter().all(|&f| api.gets_field(f))
        }
        Op::WriteStruct { sid, values } => {
            api.write_structs.contains(sid)
                && ir
                    .strct(*sid)
                    .fields
                    .iter()
                    .all(|&f| api.stages_field(f) && values.iter().any(|&(vf, _)| vf == f))
        }
        Op::Super(call) => api.emits_superplan(call.sid),
        Op::Preset { .. } => true,
        Op::ReadBlock { .. } | Op::WriteBlock { .. } => false,
    }
}

/// Renders one expressible op in the harness's command protocol.
fn op_command(ir: &DeviceIr, api: &StubApi, op: &Op, out: &mut String) {
    use std::fmt::Write as _;
    let index = |found: Option<usize>| found.expect("filtered by stub_expresses");
    match op {
        Op::Preset { port, offset, value } => {
            let _ = writeln!(out, "P {port} {offset} {value}");
        }
        Op::ReadVar { vid, .. } => {
            let _ = writeln!(out, "RV {}", index(api.read_vars.iter().position(|v| v == vid)));
        }
        Op::WriteVar { vid, value, .. } => {
            let k = index(api.write_vars.iter().position(|v| v == vid));
            let _ = writeln!(out, "WV {k} {value}");
        }
        Op::ReadStruct { sid } => {
            let _ = writeln!(out, "RS {}", index(api.read_structs.iter().position(|s| s == sid)));
        }
        Op::WriteStruct { sid, values } => {
            let _ = write!(out, "WS {}", index(api.write_structs.iter().position(|s| s == sid)));
            // Values in struct-field order, as the harness stages.
            for &fid in ir.strct(*sid).fields.iter() {
                let v = values.iter().find(|&&(f, _)| f == fid).expect("filtered").1;
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        Op::Super(call) => {
            let _ = write!(out, "SP {}", index(api.superplans.iter().position(|&s| s == call.sid)));
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
            out.push('\n');
        }
        Op::ReadBlock { .. } | Op::WriteBlock { .. } => unreachable!("filtered"),
    }
}

/// The plan executor rendered in the harness's observation lines —
/// interleaved bus traffic and results, then the final cache dump — so
/// a [`CompiledHarness`] has a rig to be compared against.
pub struct HarnessView<'a> {
    ir: &'a DeviceIr,
    api: &'a StubApi,
}

impl Rig for HarnessView<'_> {
    fn name(&self) -> String {
        "plans (harness view)".into()
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
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
        for op in ops.filter(|op| stub_expresses(ir, self.api, op)) {
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
        // The final cache dump, in the exact order the harness prints it.
        let (slots, valid) = inst.cache_snapshot();
        for reg in &ir.regs {
            if let Some(slot) = reg.slot {
                trace.line(format!("C {} {} {}", reg.name, slots[slot], u8::from(valid[slot])));
            }
        }
        let mem = inst.mem_snapshot();
        for var in &ir.vars {
            if let Some(cell) = var.mem_cell {
                trace.line(format!("M {} {}", var.name, mem[cell]));
            }
        }
        Ok(())
    }
}

/// Generates the C harness around an emitted header: the logging bus
/// shim plus a command dispatcher over the stub surface.
fn harness_c(ir: &DeviceIr, prefix: &str, api: &StubApi) -> String {
    use std::fmt::Write as _;
    let mut c = String::new();
    let _ = writeln!(c, "#include <stdio.h>");
    let _ = writeln!(c, "#include <stdlib.h>");
    let _ = writeln!(c, "#include <string.h>");
    let _ = writeln!(c);
    // The bus shim: a linear (addr, value) register file. Reads of
    // untouched addresses return 0, exactly like the Rust FakeAccess.
    let _ = writeln!(c, "#define SHIM_CAP 65536");
    let _ = writeln!(c, "static unsigned long long shim_addr[SHIM_CAP];");
    let _ = writeln!(c, "static unsigned long long shim_val[SHIM_CAP];");
    let _ = writeln!(c, "static int shim_n = 0;");
    let _ = writeln!(c);
    let _ = writeln!(c, "static int shim_find(unsigned long long addr) {{");
    let _ = writeln!(c, "    for (int i = 0; i < shim_n; i++)");
    let _ = writeln!(c, "        if (shim_addr[i] == addr) return i;");
    let _ = writeln!(c, "    return -1;");
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    let _ = writeln!(c, "static void shim_set(unsigned long long addr, unsigned long long v) {{");
    let _ = writeln!(c, "    int i = shim_find(addr);");
    let _ = writeln!(c, "    if (i < 0) {{");
    let _ = writeln!(c, "        if (shim_n >= SHIM_CAP) abort();");
    let _ = writeln!(c, "        i = shim_n++;");
    let _ = writeln!(c, "        shim_addr[i] = addr;");
    let _ = writeln!(c, "    }}");
    let _ = writeln!(c, "    shim_val[i] = v;");
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    let _ = writeln!(c, "static unsigned long long shim_in(unsigned long long addr) {{");
    let _ = writeln!(c, "    int i = shim_find(addr);");
    let _ = writeln!(c, "    unsigned long long v = i < 0 ? 0 : shim_val[i];");
    let _ = writeln!(
        c,
        "    printf(\"B R %llu %llu %llu\\n\", addr >> {PORT_SHIFT}, addr & ((1ULL << {PORT_SHIFT}) - 1), v);"
    );
    let _ = writeln!(c, "    return v;");
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    let _ = writeln!(c, "static void shim_out(unsigned long long v, unsigned long long addr) {{");
    let _ = writeln!(c, "    shim_set(addr, v);");
    let _ = writeln!(
        c,
        "    printf(\"B W %llu %llu %llu\\n\", addr >> {PORT_SHIFT}, addr & ((1ULL << {PORT_SHIFT}) - 1), v);"
    );
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    for io in ["inb", "inw", "inl"] {
        let _ = writeln!(c, "#define {io} shim_in");
    }
    for io in ["outb", "outw", "outl"] {
        let _ = writeln!(c, "#define {io} shim_out");
    }
    // The harness supplies its own block primitives (per-word through
    // the shim, so the log shows every bus cycle like FakeAccess does)
    // and suppresses the header's <sys/io.h>-backed defaults.
    let _ = writeln!(c, "#define DEVIL_NO_SYS_IO 1");
    for w in [8u32, 16, 32] {
        let _ = writeln!(
            c,
            "#define devil_ins{w}(p, b, n) do {{ unsigned long __i; \\\n    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = shim_in(p); }} while (0)"
        );
        let _ = writeln!(
            c,
            "#define devil_outs{w}(p, b, n) do {{ unsigned long __i; \\\n    for (__i = 0; __i < (unsigned long)(n); ++__i) shim_out((b)[__i], (p)); }} while (0)"
        );
    }
    let _ = writeln!(c);
    let _ = writeln!(c, "@INCLUDE@");
    let _ = writeln!(c);
    let _ = writeln!(c, "struct {prefix}_cache_t {prefix}_cache;");
    let _ = writeln!(c);
    let _ = writeln!(c, "int main(void) {{");
    let _ = writeln!(c, "    for (int p = 0; p < {}; p++)", ir.ports.len());
    let _ =
        writeln!(c, "        {prefix}_cache.__dil_base__[p] = (unsigned long)p << {PORT_SHIFT};");
    let _ = writeln!(c, "    char cmd[16];");
    let _ = writeln!(c, "    while (scanf(\"%15s\", cmd) == 1) {{");
    let _ = writeln!(c, "        if (!strcmp(cmd, \"P\")) {{");
    let _ = writeln!(c, "            unsigned long long p, o, v;");
    let _ = writeln!(c, "            if (scanf(\"%llu %llu %llu\", &p, &o, &v) != 3) return 1;");
    let _ = writeln!(c, "            shim_set((p << {PORT_SHIFT}) + o, v);");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"RV\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &vid) in api.read_vars.iter().enumerate() {
        let var = ir.var(vid);
        let call = if var.mem_cell.is_none() && var.parent.is_some() {
            format!("{prefix}_read_{}", var.name)
        } else {
            format!("{prefix}_get_{}", var.name)
        };
        let _ = writeln!(
            c,
            "            case {k}: printf(\"O r{} %llu\\n\", (unsigned long long)({call}())); break;",
            vid.0
        );
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"WV\")) {{");
    let _ = writeln!(c, "            int k; unsigned long long v;");
    let _ = writeln!(c, "            if (scanf(\"%d %llu\", &k, &v) != 2) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &vid) in api.write_vars.iter().enumerate() {
        let var = ir.var(vid);
        let _ = writeln!(
            c,
            "            case {k}: {prefix}_set_{}(v); printf(\"O w{} ok\\n\"); break;",
            var.name, vid.0
        );
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"RS\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &sid) in api.read_structs.iter().enumerate() {
        let st = ir.strct(sid);
        let _ = writeln!(c, "            case {k}:");
        let _ = writeln!(c, "                {prefix}_get_{}();", st.name);
        let _ = writeln!(c, "                printf(\"O rs{} ok\\n\");", sid.0);
        for &fid in st.fields.iter() {
            let _ = writeln!(
                c,
                "                printf(\"O f{} %llu\\n\", (unsigned long long)({prefix}_getf_{}()));",
                fid.0,
                ir.var(fid).name
            );
        }
        let _ = writeln!(c, "                break;");
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"WS\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &sid) in api.write_structs.iter().enumerate() {
        let st = ir.strct(sid);
        let _ = writeln!(c, "            case {k}: {{");
        let _ = writeln!(c, "                unsigned long long fv[{}];", st.fields.len().max(1));
        let _ = writeln!(c, "                for (int i = 0; i < {}; i++)", st.fields.len());
        let _ = writeln!(c, "                    if (scanf(\"%llu\", &fv[i]) != 1) return 1;");
        for (i, &fid) in st.fields.iter().enumerate() {
            let _ = writeln!(c, "                {prefix}_setf_{}(fv[{i}]);", ir.var(fid).name);
        }
        let _ = writeln!(c, "                {prefix}_put_{}();", st.name);
        let _ = writeln!(c, "                printf(\"O ws{} ok\\n\");", sid.0);
        let _ = writeln!(c, "                break; }}");
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"SP\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &si) in api.superplans.iter().enumerate() {
        let sp = &ir.superplans()[si];
        let has_out = sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. }));
        let has_in = sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. }));
        let _ = writeln!(c, "            case {k}: {{");
        let _ = writeln!(c, "                unsigned long long a[{}];", sp.args.max(1));
        let _ = writeln!(c, "                unsigned long long outs[{}];", sp.outputs.max(1));
        let _ = writeln!(c, "                unsigned long long bo[512], bi[512];");
        let _ = writeln!(c, "                unsigned long bon = 0, bin = 0;");
        let _ = writeln!(c, "                (void)a; (void)outs; (void)bo; (void)bi;");
        let _ = writeln!(c, "                (void)bon; (void)bin;");
        for i in 0..sp.args {
            let _ = writeln!(c, "                if (scanf(\"%llu\", &a[{i}]) != 1) return 1;");
        }
        if has_out {
            let _ = writeln!(c, "                if (scanf(\"%lu\", &bon) != 1) return 1;");
            let _ = writeln!(c, "                if (bon > 512) return 1;");
            let _ = writeln!(c, "                for (unsigned long i = 0; i < bon; i++)");
            let _ = writeln!(c, "                    if (scanf(\"%llu\", &bo[i]) != 1) return 1;");
        }
        if has_in {
            let _ = writeln!(c, "                if (scanf(\"%lu\", &bin) != 1) return 1;");
            let _ = writeln!(c, "                if (bin > 512) return 1;");
        }
        let mut call: Vec<String> = (0..sp.args).map(|i| format!("a[{i}]")).collect();
        if sp.outputs > 0 {
            call.push("outs".into());
        }
        if has_out {
            call.push("bo".into());
            call.push("bon".into());
        }
        if has_in {
            call.push("bi".into());
            call.push("bin".into());
        }
        let _ = writeln!(c, "                {prefix}_sp_{}({});", sp.name, call.join(", "));
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
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"D\")) {{");
    for reg in &ir.regs {
        if reg.slot.is_some() {
            let _ = writeln!(
                c,
                "            printf(\"C {} %llu %d\\n\", {prefix}_cache.cache_{}, (int){prefix}_cache.valid_{});",
                reg.name, reg.name, reg.name
            );
        }
    }
    for var in &ir.vars {
        if var.mem_cell.is_some() {
            let _ = writeln!(
                c,
                "            printf(\"M {} %llu\\n\", {prefix}_cache.mem_{});",
                var.name, var.name
            );
        }
    }
    let _ = writeln!(c, "        }} else {{");
    let _ = writeln!(c, "            return 1;");
    let _ = writeln!(c, "        }}");
    let _ = writeln!(c, "    }}");
    let _ = writeln!(c, "    return 0;");
    let _ = writeln!(c, "}}");
    c
}
