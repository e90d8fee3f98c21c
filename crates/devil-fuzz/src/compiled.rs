//! The compiled-code differential oracle: proves the **generated C and
//! Rust stubs** faithful to the plan executor by running them.
//!
//! Both back ends replay one op stream and print one observation
//! format: every bus operation in order, every result, and the final
//! cache state (raw values, validity flags, memory cells). The plan
//! executor, rendered in the same lines by [`HarnessView`], is the
//! other [`Rig`] of each [`crate::compare`], one leaf per line.
//!
//! - **C.** [`CompiledHarness::build`] wraps the emitted header
//!   (`devil_codegen::emit_c`) in a generated harness — a logging bus
//!   shim plus a command dispatcher over the stub surface — and
//!   compiles it with `cc -Wall -Werror`. Artifacts are keyed by a hash
//!   of their sources and compiler command lines, so repeated runs and
//!   CI caches reuse the binary until the emitter, the spec or the
//!   flags change.
//! - **Rust.** The committed emitted modules (`tests/goldens/*.rs`) are
//!   compiled into the test binary, each with the [`Surface`] glue
//!   [`rust_glue`] generates for it (`tests/goldens/glue/`). The
//!   [`CompiledIn`] rig drives a module through that glue, in process,
//!   with the same replay loop [`HarnessView`] drives the plan
//!   executor with; so both print their observation lines from the
//!   same code. The chain the Rust oracle relies on: `emit_goldens`
//!   ties each golden and its glue to the emitter, and the oracle runs
//!   the goldens.
//!
//! Every access with a compiled plan has a stub, family variables
//! included (their out-of-domain calls print the runtime's
//! `ArgOutOfRange` line). [`stub_expresses`] drops — identically for
//! both rigs — only what has no stub at all: accesses without a plan,
//! plain block transfers (not dispatch points), and structure accesses
//! a field of which has no cache getter or stager.

use crate::{Op, Rig, Trace};
use devil_codegen::rust::camel;
use devil_codegen::{gets_field, stages_field};
use devil_ir::{AccessRef, DeviceIr, FuseOp, RegIr, Superplan, VarIr};
use devil_runtime::{DeviceAccess, DeviceInstance, FakeAccess, RtResult};
use devil_sema::model::{StructId, TypeSem, VarId};
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A per-spec compiled C stub harness.
pub struct CompiledHarness {
    /// Spec name (doubles as the C identifier prefix).
    pub name: String,
    /// Path of the compiled harness binary.
    bin: PathBuf,
    /// The lowered spec.
    pub ir: DeviceIr,
}

/// The decoded shim address layout: Devil port index in the high bits,
/// register offset below. Must match the generated C harness.
const PORT_SHIFT: u64 = 40;

impl CompiledHarness {
    /// Whether `cc` is reachable (the C oracle is skipped, loudly,
    /// where it is not).
    pub fn available() -> bool {
        Command::new("cc")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok()
    }

    /// Emits, generates and compiles the harness for one spec into
    /// `dir`. The binary is keyed by the generated sources and the
    /// compiler command line, so an unchanged emitter, spec and flags
    /// reuse the artifact.
    pub fn build(name: &str, ir: &DeviceIr, dir: &Path) -> Result<CompiledHarness, String> {
        let header = devil_codegen::emit_c(ir, name);
        let harness = harness_c(ir, name);
        let bin = cached_build(
            dir,
            name,
            &[("stubs.h", &header), ("harness.c", &harness)],
            &[&["cc", "-O1", "-Wall", "-Werror", "-o", ORACLE_BIN, "harness.c"]],
        )?;
        Ok(CompiledHarness { name: name.into(), bin, ir: ir.clone() })
    }

    /// Runs the harness over a command stream, folding each output line
    /// into `trace` as it arrives. Stdin is fed and stderr drained on
    /// their own threads, so neither pipe can fill and block the child.
    fn run(&self, commands: String, trace: &mut Trace) -> Result<(), String> {
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
        let mut stderr = child.stderr.take().expect("piped stderr");
        let errors = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = stdout.lines().try_for_each(|line| line.map(|line| trace.line(line)));
        let status = child.wait().map_err(|e| format!("harness: {e}"))?;
        let _ = writer.join();
        let stderr = errors.join().unwrap_or_default();
        if !status.success() {
            return Err(format!(
                "C harness for {} exited with {:?}:\n{stderr}",
                self.name,
                status.code()
            ));
        }
        read.map_err(|e| format!("C harness for {}: {e}", self.name))
    }
}

impl Rig for CompiledHarness {
    fn name(&self) -> String {
        "compiled C stubs".into()
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        let mut commands = String::new();
        for op in ops.filter(|op| stub_expresses(&self.ir, op)) {
            op_command(&self.ir, &op, &mut commands);
            trace.ops += 1;
        }
        commands.push_str("D\n");
        self.run(commands, trace)
    }
}

/// File name of the harness binary inside its build directory.
const ORACLE_BIN: &str = "oracle";

/// The build directory of one cached artifact under `dir`: named
/// `stem` (`<spec>_`) plus a hash of every source file (name and text)
/// and every compiler command line (program and arguments), so a change
/// to any of them, the compiler flags alone included, builds afresh.
fn artifact_dir(dir: &Path, stem: &str, sources: &[(&str, &str)], commands: &[&[&str]]) -> PathBuf {
    let mut key = String::new();
    for (file, text) in sources {
        key.extend([file, "\0", text, "\0"]);
    }
    for cmd in commands {
        key.extend(cmd.iter().flat_map(|arg| [arg, "\0"]));
        key.push('\n');
    }
    dir.join(format!("{stem}{:016x}", fnv1a(key.as_bytes())))
}

/// Removes every completed build under `dir` named `stem` plus a
/// 16-hex-digit hash other than `keep`, so the cache holds one build
/// per spec. In-progress `.tmp.<pid>` directories and other specs'
/// builds do not match.
fn evict_superseded(dir: &Path, stem: &str, keep: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let file = entry.file_name();
        let hash = file.to_str().and_then(|f| f.strip_prefix(stem)).unwrap_or("");
        if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) && entry.path() != keep {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Returns the [`ORACLE_BIN`] that `commands` build from `sources`,
/// reusing it when an earlier build left it in place. Otherwise the
/// sources are written to a private temporary directory, the commands
/// run there in order, and the directory is renamed into place, so
/// concurrent builders never observe a half-built artifact. Either
/// way, the superseded builds of `name` are then removed.
fn cached_build(
    dir: &Path,
    name: &str,
    sources: &[(&str, &str)],
    commands: &[&[&str]],
) -> Result<PathBuf, String> {
    let stem = format!("{name}_");
    let out = artifact_dir(dir, &stem, sources, commands);
    let bin = out.join(ORACLE_BIN);
    if bin.exists() {
        evict_superseded(dir, &stem, &out);
        return Ok(bin);
    }
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    let tmp = out.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| io(&tmp, e))?;
    for (file, text) in sources {
        let path = tmp.join(file);
        std::fs::write(&path, text).map_err(|e| io(&path, e))?;
    }
    for cmd in commands {
        let run = Command::new(cmd[0])
            .args(&cmd[1..])
            .current_dir(&tmp)
            .output()
            .map_err(|e| format!("{}: {e}", cmd[0]))?;
        if !run.status.success() {
            return Err(format!(
                "{} failed for {name}:\n{}",
                cmd[0],
                String::from_utf8_lossy(&run.stderr)
            ));
        }
    }
    match std::fs::rename(&tmp, &out) {
        Ok(()) => {}
        // Another builder renamed the same artifact into place first.
        Err(_) if bin.exists() => {
            let _ = std::fs::remove_dir_all(&tmp);
        }
        Err(e) => return Err(io(&out, e)),
    }
    evict_superseded(dir, &stem, &out);
    Ok(bin)
}

fn fnv1a(bytes: &[u8]) -> u64 {
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

/// Renders one expressible op in the harness's command protocol:
/// variables, structures and superplans by id, a variable's family
/// arguments after its value.
fn op_command(ir: &DeviceIr, op: &Op, out: &mut String) {
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
            let (has_out, has_in) = blocks(&ir.superplans()[call.sid]);
            if has_out {
                let _ = write!(out, " {}", call.block_out.len());
                for &w in &call.block_out {
                    let _ = write!(out, " {w}");
                }
            }
            if has_in {
                let _ = write!(out, " {}", call.block_in_len);
            }
        }
        Op::ReadBlock { .. } | Op::WriteBlock { .. } => unreachable!("filtered"),
    }
    out.push('\n');
}

/// The id-keyed access surface the oracle drives: what
/// [`DeviceInstance`] offers by [`VarId`], [`StructId`] and superplan
/// index, and what an emitted Rust module offers through the glue
/// [`rust_glue`] generates for it. Values are raw masked bits, as the
/// runtime returns them.
pub trait Surface {
    /// Reads a variable (`read_id`).
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64]) -> RtResult<u64>;
    /// Writes a variable (`write_id`).
    fn write_var(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
    ) -> RtResult<()>;
    /// Reads a structure into the cache (`read_struct_id`).
    fn read_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()>;
    /// Gets a structure field from the cache (`get_field_id`).
    fn get_field(&mut self, fid: VarId) -> RtResult<u64>;
    /// Stages a structure field in the cache (`set_field_id`).
    fn set_field(&mut self, fid: VarId, value: u64) -> RtResult<()>;
    /// Flushes a structure from the cache (`write_struct_id`).
    fn write_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()>;
    /// Runs superplan `k` (`run_superplan`).
    fn superplan(
        &mut self,
        dev: &mut dyn DeviceAccess,
        k: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()>;
    /// Every cache slot and its validity flag, in IR slot order
    /// (`cache_snapshot`).
    fn cache(&self) -> (Vec<u64>, Vec<bool>);
    /// Every memory cell, in `VarIr::mem_cell` order (`mem_snapshot`).
    fn mem(&self) -> Vec<u64>;
}

impl Surface for DeviceInstance {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64]) -> RtResult<u64> {
        self.read_id(dev, vid, args)
    }

    fn write_var(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        self.write_id(dev, vid, args, value)
    }

    fn read_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        self.read_struct_id(dev, sid)
    }

    fn get_field(&mut self, fid: VarId) -> RtResult<u64> {
        self.get_field_id(fid)
    }

    fn set_field(&mut self, fid: VarId, value: u64) -> RtResult<()> {
        self.set_field_id(fid, value)
    }

    fn write_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        self.write_struct_id(dev, sid)
    }

    fn superplan(
        &mut self,
        dev: &mut dyn DeviceAccess,
        k: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()> {
        self.run_superplan(dev, k, args, block_out, block_in, outs)
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>) {
        let (slots, valid) = self.cache_snapshot();
        (slots.to_vec(), valid.to_vec())
    }

    fn mem(&self) -> Vec<u64> {
        self.mem_snapshot().to_vec()
    }
}

/// Replays the ops the stubs express through `stubs`, tracing the
/// oracle's observation lines: each op's bus traffic, then its
/// results, and after the last op the final cache dump.
fn replay_surface(
    ir: &DeviceIr,
    stubs: &mut dyn Surface,
    ops: &mut dyn Iterator<Item = Op>,
    trace: &mut Trace,
) -> Result<(), String> {
    let mut dev = FakeAccess::new();
    let said = |r: RtResult<()>, tag: String| match r {
        Ok(()) => format!("O {tag} ok"),
        Err(e) => format!("O {tag} ERR {e:?}"),
    };
    let value = |r: RtResult<u64>, tag: String| match r {
        Ok(v) => format!("O {tag} {v}"),
        Err(e) => format!("O {tag} ERR {e:?}"),
    };
    for op in ops.filter(|op| stub_expresses(ir, op)) {
        trace.ops += 1;
        let mut lines = Vec::new();
        match &op {
            Op::Preset { port, offset, value } => dev.preset(*port, *offset, *value),
            Op::ReadVar { vid, args } => {
                lines.push(value(stubs.read_var(&mut dev, *vid, args), format!("r{}", vid.0)));
            }
            Op::WriteVar { vid, args, value } => {
                let r = stubs.write_var(&mut dev, *vid, args, *value);
                lines.push(said(r, format!("w{}", vid.0)));
            }
            Op::ReadStruct { sid } => {
                let r = stubs.read_struct(&mut dev, *sid);
                let ok = r.is_ok();
                lines.push(said(r, format!("rs{}", sid.0)));
                if ok {
                    for &fid in ir.strct(*sid).fields.iter() {
                        lines.push(value(stubs.get_field(fid), format!("f{}", fid.0)));
                    }
                }
            }
            Op::WriteStruct { sid, values } => {
                let staged = ir.strct(*sid).fields.iter().try_for_each(|&fid| {
                    let v = values.iter().find(|&&(f, _)| f == fid).expect("filtered").1;
                    stubs.set_field(fid, v)
                });
                let r = staged.and_then(|()| stubs.write_struct(&mut dev, *sid));
                lines.push(said(r, format!("ws{}", sid.0)));
            }
            Op::Super(call) => {
                let sp = &ir.superplans()[call.sid];
                let mut block_in = vec![0u64; call.block_in_len];
                let mut outs = vec![0u64; sp.outputs];
                stubs
                    .superplan(
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
    // The final cache dump, in the exact order the C harness prints it:
    // every register's slot, every family instance's, every cell.
    let (slots, valid) = stubs.cache();
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
    let mem = stubs.mem();
    for var in &ir.vars {
        if let Some(cell) = var.mem_cell {
            trace.line(format!("M {} {}", var.name, mem[cell]));
        }
    }
    Ok(())
}

/// The plan executor rendered in the oracle's observation lines —
/// interleaved bus traffic and results, then the final cache dump — so
/// the compiled stubs have a rig to be compared against.
pub struct HarnessView<'a> {
    ir: &'a DeviceIr,
}

impl<'a> HarnessView<'a> {
    /// The view of a fresh plan executor over `ir`.
    pub fn new(ir: &'a DeviceIr) -> Self {
        HarnessView { ir }
    }

    /// The plan executor's hit table after replaying the ops the stubs
    /// express: which dispatch points the compiled oracle's streams
    /// reach.
    pub fn hits(&self, ops: impl IntoIterator<Item = Op>) -> Result<Vec<u64>, String> {
        let mut inst = DeviceInstance::new(self.ir.clone());
        replay_surface(self.ir, &mut inst, &mut ops.into_iter(), &mut Trace::new(false, 0..0))?;
        Ok(inst.hits().to_vec())
    }
}

impl Rig for HarnessView<'_> {
    fn name(&self) -> String {
        "plans (harness view)".into()
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        replay_surface(self.ir, &mut DeviceInstance::new(self.ir.clone()), ops, trace)
    }
}

/// An emitted Rust module compiled into the calling binary, driven in
/// process through its generated [`Surface`] glue: each replay starts
/// from the cold instance `fresh` returns.
pub struct CompiledIn {
    ir: DeviceIr,
    fresh: Fresh,
}

/// The constructor an emitted module's glue exports: a cold instance
/// of its interface.
pub type Fresh = fn() -> Box<dyn Surface>;

impl CompiledIn {
    /// The rig of the module emitted from `ir` whose glue exports
    /// `fresh`.
    pub fn new(ir: &DeviceIr, fresh: Fresh) -> Self {
        CompiledIn { ir: ir.clone(), fresh }
    }
}

impl Rig for CompiledIn {
    fn name(&self) -> String {
        "compiled Rust stubs".into()
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        replay_surface(&self.ir, &mut *(self.fresh)(), ops, trace)
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
         use devil_fuzz::compiled::Surface;\n\
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

    let stubbed = |write| {
        (0..).zip(&ir.structs).filter(move |&(s, _)| struct_stubbed(ir, StructId(s), write))
    };
    let fields =
        |write| stubbed(write).flat_map(|(_, st)| st.fields.iter()).map(|&f| (f.0, ir.var(f)));
    let sid = format!("{dev}, sid: StructId");
    let arms = stubbed(false).map(|(s, st)| (s, format!("self.get_{}(dev)", st.name)));
    method(&mut g, "read_struct", &sid, "()", "sid.0", arms);
    let arms = fields(false).map(|(f, var)| (f, raw(var, format!("self.get_{}()", var.name))));
    method(&mut g, "get_field", "fid: VarId", "u64", "fid.0", arms);
    let arms = fields(true).map(|(f, var)| (f, format!("self.stage_{}(v)", var.name)));
    method(&mut g, "set_field", "fid: VarId, v: u64", "()", "fid.0", arms);
    let arms = stubbed(true).map(|(s, st)| (s, format!("self.put_{}(dev)", st.name)));
    method(&mut g, "write_struct", &sid, "()", "sid.0", arms);

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
    let _ = writeln!(g, "    fn cache(&self) -> (Vec<u64>, Vec<bool>) {{");
    let _ = writeln!(g, "        let slots: [&[u64]; {n}] = [{}];", list("cache"));
    let _ = writeln!(g, "        let valid: [&[bool]; {n}] = [{}];", list("valid"));
    let _ = writeln!(g, "        (slots.concat(), valid.concat())\n    }}\n");
    let mut cells: Vec<(usize, &str)> =
        ir.vars.iter().filter_map(|v| Some((v.mem_cell?, &v.name[..]))).collect();
    cells.sort_unstable();
    let cells: Vec<String> = cells.iter().map(|(_, n)| format!("self.mem_{n}")).collect();
    let _ = writeln!(g, "    fn mem(&self) -> Vec<u64> {{");
    let _ = writeln!(g, "        vec![{}]\n    }}\n}}", cells.join(", "));
    g
}

/// Whether superplan `sp` streams a block out, and one in.
fn blocks(sp: &Superplan) -> (bool, bool) {
    let has = |block: fn(&FuseOp) -> bool| sp.ops.iter().any(block);
    (
        has(|o| matches!(o, FuseOp::WriteBlock { .. })),
        has(|o| matches!(o, FuseOp::ReadBlock { .. })),
    )
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
    // The shim precedes the include: the header's `static inline`
    // superplan bodies must bind the bus primitives to the shim at their
    // definition site, not only at the macro-stub use sites in `main`.
    let mut c = format!("#define PORT_SHIFT {PORT_SHIFT}\n{SHIM_C}\n#include \"stubs.h\"\n\n");
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
        let (has_out, has_in) = blocks(sp);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiler_flags_key_the_artifact() {
        let dir = Path::new("cache");
        let sources: &[(&str, &str)] = &[("harness.c", "int main(void) { return 0; }")];
        let build = |flags: &[&str]| artifact_dir(dir, "spec_", sources, &[flags]);
        let o1 = build(&["cc", "-O1", "-o", ORACLE_BIN, "harness.c"]);
        assert_eq!(o1, build(&["cc", "-O1", "-o", ORACLE_BIN, "harness.c"]));
        assert_ne!(o1, build(&["cc", "-O2", "-o", ORACLE_BIN, "harness.c"]));
        assert_ne!(o1, build(&["clang", "-O1", "-o", ORACLE_BIN, "harness.c"]));
        let other = artifact_dir(dir, "spec_", &[("harness.c", "int x;")], &[&["cc", "-O1"]]);
        assert_ne!(other, artifact_dir(dir, "spec_", sources, &[&["cc", "-O1"]]));
    }

    /// A rebuild of one spec from new sources evicts the superseded
    /// build, and only it: a neighbouring spec's build and a pending
    /// build directory stay.
    #[test]
    fn a_rebuild_evicts_only_the_superseded_build() {
        let dir = std::env::temp_dir().join(format!("devil-fuzz-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let copy: &[&str] = &["cp", "src", ORACLE_BIN];
        let build = |spec, text| {
            let bin = cached_build(&dir, spec, &[("src", text)], &[copy]).unwrap();
            bin.parent().unwrap().file_name().unwrap().to_str().unwrap().to_string()
        };
        let pending = dir.join("spec_0123456789abcdef.tmp.1");
        std::fs::create_dir_all(&pending).unwrap();
        let neighbour = build("spec2", "n");
        let first = build("spec", "one");
        assert_eq!(build("spec", "one"), first, "an unchanged build is reused");
        let second = build("spec", "two");
        assert_ne!(first, second);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        let _ = std::fs::remove_dir_all(&dir);
        let mut want = vec![second, neighbour, "spec_0123456789abcdef.tmp.1".into()];
        want.sort();
        assert_eq!(left, want);
    }
}
