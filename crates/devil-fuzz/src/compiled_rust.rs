//! The Rust back end of [`crate::compiled::CompiledHarness`]: the
//! second emitted back end, actually executed.
//!
//! `build` pairs the emitted Rust module (`devil_codegen::emit_rust`)
//! with a generated harness — a logging [`devil_runtime::DeviceAccess`]
//! shim crate standing in for the real runtime (the `DEVIL_NO_SYS_IO`
//! gate of the C harness, expressed as trait injection: the generated
//! code can only reach a bus through the trait, and the harness hands
//! it a pure register file), plus a command dispatcher over the emitted
//! stub surface — and compiles the pair with `rustc`. The harness reads
//! the C harness's command protocol and prints the same observation
//! lines.
//!
//! One emitter asymmetry is bridged here rather than hidden: emitted
//! Rust getters sign-extend `signed` variables (they return `i64`),
//! while the runtime's `read_id`/`get_field_id` — and the C stubs —
//! traffic in raw masked bits. The harness masks signed results back
//! to their declared width before printing, so observation lines stay
//! comparable without weakening the generated API.

use crate::compiled::{cached_build, struct_stubbed, Backend, ORACLE_BIN};
use devil_codegen::rust::camel;
use devil_ir::{DeviceIr, FuseOp};
use devil_sema::model::{StructId, TypeSem, VarId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Emits, generates and compiles the Rust harness for one spec into
/// `dir`, returning the binary's path: first the `devil_runtime`
/// stand-in as an rlib, then the harness (with the emitted module
/// embedded verbatim) linked against it, so the module's
/// `use devil_runtime::…` header resolves exactly as it would against
/// the real runtime. Both compile under `-D warnings`, so an emitted
/// module that draws a warning fails the build, as the C harness's
/// `-Werror` does. Cached like the C harness.
pub(crate) fn build(name: &str, ir: &DeviceIr, dir: &Path) -> Result<PathBuf, String> {
    let module = Backend::Rust.emit(ir, name);
    let shim = shim_crate();
    let harness = harness_rs(ir, &module);
    cached_build(
        Backend::Rust,
        dir,
        name,
        &[("devil_runtime.rs", &shim), ("harness.rs", &harness)],
        &[
            &[
                "rustc",
                "--edition",
                "2021",
                "-O",
                "-D",
                "warnings",
                "--crate-type",
                "rlib",
                "devil_runtime.rs",
            ],
            &[
                "rustc",
                "--edition",
                "2021",
                "-O",
                "-D",
                "warnings",
                "--extern",
                "devil_runtime=libdevil_runtime.rlib",
                "-o",
                ORACLE_BIN,
                "harness.rs",
            ],
        ],
    )
}

/// The `devil_runtime` stand-in the emitted module links against: the
/// [`devil_runtime::DeviceAccess`] trait (same signatures, same
/// per-word block defaults as `FakeAccess`), `sign_extend`, and the
/// one `RtError` variant family methods return (same shape, so the
/// same `Debug` line). Nothing else — the generated code gets no bus
/// except what the harness injects.
fn shim_crate() -> String {
    r#"// devil_runtime stand-in for the compiled-Rust oracle.
pub trait DeviceAccess {
    fn read(&mut self, port: usize, offset: u64, width_bits: u32) -> u64;
    fn write(&mut self, port: usize, offset: u64, width_bits: u32, value: u64);
    fn read_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &mut [u64]) {
        for slot in buf.iter_mut() {
            *slot = self.read(port, offset, width_bits);
        }
    }
    fn write_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &[u64]) {
        for &v in buf {
            self.write(port, offset, width_bits, v);
        }
    }
}

#[derive(Debug)]
pub enum RtError {
    ArgOutOfRange { var: String, value: u64 },
}

pub fn sign_extend(raw: u64, width: u32) -> i64 {
    if width == 0 || width >= 64 {
        return raw as i64;
    }
    let shift = 64 - width;
    ((raw << shift) as i64) >> shift
}
"#
    .to_string()
}

/// The printed-value expression for a getter call: signed results mask
/// back to raw width, unsigned ones print as-is.
fn print_expr(ir: &DeviceIr, vid: VarId, call: &str) -> String {
    let var = ir.var(vid);
    if matches!(var.ty, TypeSem::SInt(_)) {
        format!("(({call}) as u64) & {:#x}u64", devil_ir::width_mask(var.width))
    } else {
        call.to_string()
    }
}

/// Generates the Rust harness around an emitted module: the logging bus
/// shim plus a command dispatcher speaking the C harness's protocol.
fn harness_rs(ir: &DeviceIr, module: &str) -> String {
    let ty = camel(&ir.name);
    let mut h = String::new();
    let _ = writeln!(h, "// Command harness for the compiled-Rust oracle. Generated; do not edit.");
    // The harness drives the stubs, not the enums or every method.
    let _ = writeln!(h, "#[allow(dead_code)]");
    let _ = writeln!(h, "mod stub {{");
    for line in module.lines() {
        if line.is_empty() {
            h.push('\n');
        } else {
            let _ = writeln!(h, "    {line}");
        }
    }
    let _ = writeln!(h, "}}");
    let _ = writeln!(h);
    let _ = writeln!(
        h,
        r#"/// The logging register file: reads of untouched addresses return
/// 0, every bus cycle prints a `B` line — exactly like `FakeAccess`.
#[derive(Default)]
struct Shim {{
    cells: Vec<((usize, u64), u64)>,
}}

impl Shim {{
    fn set(&mut self, port: usize, offset: u64, v: u64) {{
        for c in self.cells.iter_mut() {{
            if c.0 == (port, offset) {{
                c.1 = v;
                return;
            }}
        }}
        self.cells.push(((port, offset), v));
    }}

    fn get(&self, port: usize, offset: u64) -> u64 {{
        self.cells.iter().find(|c| c.0 == (port, offset)).map(|c| c.1).unwrap_or(0)
    }}
}}

impl devil_runtime::DeviceAccess for Shim {{
    fn read(&mut self, port: usize, offset: u64, _width_bits: u32) -> u64 {{
        let v = self.get(port, offset);
        println!("B R {{port}} {{offset}} {{v}}");
        v
    }}

    fn write(&mut self, port: usize, offset: u64, _width_bits: u32, value: u64) {{
        self.set(port, offset, value);
        println!("B W {{port}} {{offset}} {{value}}");
    }}
}}

/// Whitespace-token cursor over the whole command stream.
struct Toks<'a> {{
    t: Vec<&'a str>,
    i: usize,
}}

impl<'a> Toks<'a> {{
    fn next(&mut self) -> Option<&'a str> {{
        let r = self.t.get(self.i).copied();
        self.i += 1;
        r
    }}

    fn num(&mut self) -> u64 {{
        self.next().and_then(|t| t.parse().ok()).unwrap_or_else(|| std::process::exit(1))
    }}
}}

fn main() {{
    let mut input = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut input).expect("stdin");
    let mut toks = Toks {{ t: input.split_ascii_whitespace().collect(), i: 0 }};
    let mut dev = Shim::default();
    let mut d = stub::{ty}::new();
    while let Some(cmd) = toks.next() {{
        match cmd {{"#
    );
    // P presets a register, D dumps the final cache like the
    // interpreter's view; every other command names its variable,
    // structure or superplan by id, then its operands.
    let _ = writeln!(h, "            \"P\" => {{");
    let _ = writeln!(h, "                let (p, o) = (toks.num() as usize, toks.num());");
    let _ = writeln!(h, "                dev.set(p, o, toks.num());\n            }}");
    let _ = writeln!(h, "            \"D\" => {{");
    for reg in &ir.regs {
        let n = &reg.name;
        if reg.slot.is_some() {
            let _ = writeln!(
                h,
                "                println!(\"C {n} {{}} {{}}\", d.cache_{n}, u8::from(d.valid_{n}));"
            );
        }
        if let Some(fs) = &reg.family_slots {
            let _ = writeln!(h, "                for i in 0..{} {{", fs.count);
            let _ = writeln!(
                h,
                "                    println!(\"C {n}[{{i}}] {{}} {{}}\", d.cache_{n}[i], u8::from(d.valid_{n}[i]));\n                }}"
            );
        }
    }
    for var in ir.vars.iter().filter(|v| v.mem_cell.is_some()) {
        let _ = writeln!(h, "                println!(\"M {0} {{}}\", d.mem_{0});", var.name);
    }
    let _ = writeln!(h, "            }}\n            _ => match (cmd, toks.num()) {{");
    let arm = |h: &mut String, cmd: &str, k: usize| {
        let _ = write!(h, "                (\"{cmd}\", {k}) => ");
    };
    // A family method's arguments follow; its `Err` prints as the
    // runtime's does.
    let family_call = |h: &mut String, vid: VarId, tag: &str, call: &str, ok_arm: &str| {
        let _ = writeln!(h, "{{");
        for k in 0..ir.var(vid).params.len() {
            let _ = writeln!(h, "                    let a{k} = toks.num();");
        }
        let _ = writeln!(h, "                    match {call} {{");
        let _ = writeln!(h, "                        {ok_arm},");
        let _ = writeln!(h, "                        Err(e) => println!(\"O {tag} ERR {{e:?}}\"),");
        let _ = writeln!(h, "                    }}\n                }}");
    };
    let args =
        |vid: VarId| (0..ir.var(vid).params.len()).map(|k| format!(", a{k}")).collect::<String>();
    for (vi, var) in ir.vars.iter().enumerate() {
        let vid = VarId(vi as u32);
        if var.read_plan.is_some() {
            let call = match (var.mem_cell, var.parent) {
                (Some(_), _) => format!("d.get_{}()", var.name),
                (None, Some(_)) => format!("d.read_{}(&mut dev{})", var.name, args(vid)),
                (None, None) => format!("d.get_{}(&mut dev{})", var.name, args(vid)),
            };
            arm(&mut h, "RV", vi);
            if var.params.is_empty() {
                let _ = writeln!(h, "println!(\"O r{vi} {{}}\", {}),", print_expr(ir, vid, &call));
            } else {
                let ok =
                    format!("Ok(r) => println!(\"O r{vi} {{}}\", {})", print_expr(ir, vid, "r"));
                family_call(&mut h, vid, &format!("r{vi}"), &call, &ok);
            }
        }
        if var.write_plan.is_some() {
            let call = if var.mem_cell.is_some() && var.set.is_empty() {
                format!("d.set_{}(v)", var.name)
            } else {
                format!("d.set_{}(&mut dev{}, v)", var.name, args(vid))
            };
            arm(&mut h, "WV", vi);
            if var.params.is_empty() {
                let _ = writeln!(h, "{{\n                    let v = toks.num();");
                let _ = writeln!(h, "                    {call};\n                    println!(\"O w{vi} ok\");\n                }}");
            } else {
                h.push_str("{\n                    let v = toks.num();\n                    ");
                let ok = format!("Ok(()) => println!(\"O w{vi} ok\")");
                family_call(&mut h, vid, &format!("w{vi}"), &call, &ok);
                h.push_str("                }\n");
            }
        }
    }
    for (si, st) in ir.structs.iter().enumerate() {
        let sid = StructId(si as u32);
        if struct_stubbed(ir, sid, false) {
            arm(&mut h, "RS", si);
            let _ = writeln!(h, "{{\n                    d.get_{}(&mut dev);", st.name);
            let _ = writeln!(h, "                    println!(\"O rs{si} ok\");");
            for &fid in st.fields.iter() {
                let call = format!("d.get_{}()", ir.var(fid).name);
                let shown = print_expr(ir, fid, &call);
                let _ =
                    writeln!(h, "                    println!(\"O f{} {{}}\", {shown});", fid.0);
            }
            let _ = writeln!(h, "                }}");
        }
        if struct_stubbed(ir, sid, true) {
            arm(&mut h, "WS", si);
            h.push_str("{\n");
            for &fid in st.fields.iter() {
                let _ =
                    writeln!(h, "                    d.stage_{}(toks.num());", ir.var(fid).name);
            }
            let _ = writeln!(h, "                    d.put_{}(&mut dev);", st.name);
            let _ =
                writeln!(h, "                    println!(\"O ws{si} ok\");\n                }}");
        }
    }
    for (si, sp) in ir.superplans().iter().enumerate() {
        let has_out = sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. }));
        let has_in = sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. }));
        arm(&mut h, "SP", si);
        h.push_str("{\n");
        let mut call = String::new();
        for i in 0..sp.args {
            let _ = writeln!(h, "                    let a{i} = toks.num();");
            let _ = write!(call, ", a{i}");
        }
        if sp.outputs > 0 {
            let _ = writeln!(h, "                    let mut outs = [0u64; {}];", sp.outputs);
            call.push_str(", &mut outs");
        }
        if has_out {
            let _ = writeln!(h, "                    let bon = toks.num() as usize;");
            let _ = writeln!(
                h,
                "                    let bo: Vec<u64> = (0..bon).map(|_| toks.num()).collect();"
            );
            call.push_str(", &bo");
        }
        if has_in {
            let _ =
                writeln!(h, "                    let mut bi = vec![0u64; toks.num() as usize];");
            call.push_str(", &mut bi");
        }
        let _ = writeln!(h, "                    d.sp_{}(&mut dev{call});", sp.name);
        let _ = writeln!(h, "                    println!(\"O sp{si} ok\");");
        for j in 0..sp.outputs {
            let _ = writeln!(h, "                    println!(\"O o{j} {{}}\", outs[{j}]);");
        }
        if has_in {
            let _ = writeln!(h, "                    for v in &bi {{\n                        println!(\"O bi {{v}}\");\n                    }}");
        }
        let _ = writeln!(h, "                }}");
    }
    let _ = writeln!(h, "                _ => std::process::exit(1),\n            }},");
    let _ = writeln!(h, "        }}\n    }}\n}}");
    h
}
