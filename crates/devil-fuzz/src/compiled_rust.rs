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

use crate::compiled::{fnv1a, invoke, write_file, Backend};
use devil_codegen::StubApi;
use devil_ir::{DeviceIr, FuseOp};
use devil_sema::model::TypeSem;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Emits, generates and compiles the Rust harness for one spec into
/// `dir`, returning the binary's path: first the `devil_runtime`
/// stand-in as an rlib, then the harness (with the emitted module
/// embedded verbatim) linked against it, so the module's
/// `use devil_runtime::…` header resolves exactly as it would against
/// the real runtime. Content-hashed like the C harness.
pub(crate) fn build(
    name: &str,
    ir: &DeviceIr,
    api: &StubApi,
    dir: &Path,
) -> Result<PathBuf, String> {
    let module = Backend::Rust.emit(ir, name);
    let shim = shim_crate();
    let harness = harness_rs(ir, api, &module);
    let hash = fnv1a(harness.as_bytes()) ^ fnv1a(shim.as_bytes()).rotate_left(1);
    let stem = format!("{name}_{hash:016x}");
    let bin = dir.join(format!("roracle_{stem}"));
    if bin.exists() {
        return Ok(bin);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rt_src = dir.join(format!("{stem}_rt.rs"));
    let rt_lib = dir.join(format!("lib{stem}_rt.rlib"));
    let hs_src = dir.join(format!("{stem}.rs"));
    write_file(&rt_src, &shim)?;
    write_file(&hs_src, &harness)?;
    let rustc = || {
        let mut cmd = Command::new("rustc");
        cmd.args(["--edition", "2021", "-O"]);
        cmd
    };
    invoke(
        rustc()
            .args(["--crate-type", "rlib", "--crate-name", "devil_runtime", "-o"])
            .arg(&rt_lib)
            .arg(&rt_src),
        name,
    )?;
    // Compile to a temp name and rename, so concurrent builders never
    // observe a half-written binary.
    let tmp = dir.join(format!("roracle_{stem}.tmp.{}", std::process::id()));
    let mut extern_rt = std::ffi::OsString::from("devil_runtime=");
    extern_rt.push(&rt_lib);
    invoke(rustc().arg("--extern").arg(extern_rt).arg("-o").arg(&tmp).arg(&hs_src), name)?;
    std::fs::rename(&tmp, &bin).map_err(|e| format!("{}: {e}", bin.display()))?;
    Ok(bin)
}

/// The `devil_runtime` stand-in the emitted module links against: the
/// [`devil_runtime::DeviceAccess`] trait (same signatures, same
/// per-word block defaults as `FakeAccess`) and `sign_extend`. Nothing
/// else — the generated code gets no bus except what the harness
/// injects.
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

/// The raw-width mask a signed getter's result is folded back through
/// before printing (the interpreter and the C stubs print raw bits).
fn raw_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The printed-value expression for a getter call: signed results mask
/// back to raw width, unsigned ones print as-is.
fn print_expr(ir: &DeviceIr, vid: devil_sema::model::VarId, call: &str) -> String {
    let var = ir.var(vid);
    if matches!(var.ty, TypeSem::SInt(_)) {
        format!("(({call}) as u64) & {:#x}u64", raw_mask(var.width))
    } else {
        call.to_string()
    }
}

/// Generates the Rust harness around an emitted module: the logging bus
/// shim plus a command dispatcher speaking the C harness's protocol.
fn harness_rs(ir: &DeviceIr, api: &StubApi, module: &str) -> String {
    let ty = camel(&ir.name);
    let mut h = String::new();
    let _ = writeln!(h, "// Command harness for the compiled-Rust oracle. Generated; do not edit.");
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
    // P: silent register preset.
    let _ = writeln!(h, "            \"P\" => {{");
    let _ = writeln!(
        h,
        "                let (p, o, v) = (toks.num() as usize, toks.num(), toks.num());"
    );
    let _ = writeln!(h, "                dev.set(p, o, v);");
    let _ = writeln!(h, "            }}");
    // RV.
    let _ = writeln!(h, "            \"RV\" => match toks.num() {{");
    for (k, &vid) in api.read_vars.iter().enumerate() {
        let var = ir.var(vid);
        let call = if var.mem_cell.is_some() {
            format!("d.get_{}()", var.name)
        } else if var.parent.is_some() {
            format!("d.read_{}(&mut dev)", var.name)
        } else {
            format!("d.get_{}(&mut dev)", var.name)
        };
        let _ = writeln!(
            h,
            "                {k} => println!(\"O r{} {{}}\", {}),",
            vid.0,
            print_expr(ir, vid, &call)
        );
    }
    let _ = writeln!(h, "                _ => std::process::exit(1),");
    let _ = writeln!(h, "            }},");
    // WV.
    let _ = writeln!(h, "            \"WV\" => {{");
    let _ = writeln!(h, "                let (k, v) = (toks.num(), toks.num());");
    let _ = writeln!(h, "                match k {{");
    for (k, &vid) in api.write_vars.iter().enumerate() {
        let var = ir.var(vid);
        let call = if var.mem_cell.is_some() && var.set.is_empty() {
            format!("d.set_{}(v)", var.name)
        } else {
            format!("d.set_{}(&mut dev, v)", var.name)
        };
        let _ =
            writeln!(h, "                    {k} => {{ {call}; println!(\"O w{} ok\"); }}", vid.0);
    }
    let _ = writeln!(h, "                    _ => std::process::exit(1),");
    let _ = writeln!(h, "                }}");
    let _ = writeln!(h, "            }}");
    // RS.
    let _ = writeln!(h, "            \"RS\" => match toks.num() {{");
    for (k, &sid) in api.read_structs.iter().enumerate() {
        let st = ir.strct(sid);
        let _ = writeln!(h, "                {k} => {{");
        let _ = writeln!(h, "                    d.get_{}(&mut dev);", st.name);
        let _ = writeln!(h, "                    println!(\"O rs{} ok\");", sid.0);
        for &fid in st.fields.iter() {
            let call = format!("d.get_{}()", ir.var(fid).name);
            let _ = writeln!(
                h,
                "                    println!(\"O f{} {{}}\", {});",
                fid.0,
                print_expr(ir, fid, &call)
            );
        }
        let _ = writeln!(h, "                }}");
    }
    let _ = writeln!(h, "                _ => std::process::exit(1),");
    let _ = writeln!(h, "            }},");
    // WS.
    let _ = writeln!(h, "            \"WS\" => match toks.num() {{");
    for (k, &sid) in api.write_structs.iter().enumerate() {
        let st = ir.strct(sid);
        let _ = writeln!(h, "                {k} => {{");
        for &fid in st.fields.iter() {
            let _ = writeln!(h, "                    d.stage_{}(toks.num());", ir.var(fid).name);
        }
        let _ = writeln!(h, "                    d.put_{}(&mut dev);", st.name);
        let _ = writeln!(h, "                    println!(\"O ws{} ok\");", sid.0);
        let _ = writeln!(h, "                }}");
    }
    let _ = writeln!(h, "                _ => std::process::exit(1),");
    let _ = writeln!(h, "            }},");
    // SP.
    let _ = writeln!(h, "            \"SP\" => match toks.num() {{");
    for (k, &si) in api.superplans.iter().enumerate() {
        let sp = &ir.superplans()[si];
        let has_out = sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. }));
        let has_in = sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. }));
        let _ = writeln!(h, "                {k} => {{");
        for i in 0..sp.args {
            let _ = writeln!(h, "                    let a{i} = toks.num();");
        }
        if has_out {
            let _ = writeln!(h, "                    let bon = toks.num() as usize;");
            let _ = writeln!(
                h,
                "                    let bo: Vec<u64> = (0..bon).map(|_| toks.num()).collect();"
            );
        }
        if has_in {
            let _ = writeln!(h, "                    let bin = toks.num() as usize;");
            let _ = writeln!(h, "                    let mut bi = vec![0u64; bin];");
        }
        if sp.outputs > 0 {
            let _ = writeln!(h, "                    let mut outs = [0u64; {}];", sp.outputs);
        }
        let mut call: Vec<String> = (0..sp.args).map(|i| format!("a{i}")).collect();
        if sp.outputs > 0 {
            call.push("&mut outs".into());
        }
        if has_out {
            call.push("&bo".into());
        }
        if has_in {
            call.push("&mut bi".into());
        }
        let _ = writeln!(
            h,
            "                    d.sp_{}(&mut dev{}{});",
            sp.name,
            if call.is_empty() { "" } else { ", " },
            call.join(", ")
        );
        let _ = writeln!(h, "                    println!(\"O sp{si} ok\");");
        for j in 0..sp.outputs {
            let _ = writeln!(h, "                    println!(\"O o{j} {{}}\", outs[{j}]);");
        }
        if has_in {
            let _ = writeln!(h, "                    for v in &bi {{");
            let _ = writeln!(h, "                        println!(\"O bi {{v}}\");");
            let _ = writeln!(h, "                    }}");
        }
        let _ = writeln!(h, "                }}");
    }
    let _ = writeln!(h, "                _ => std::process::exit(1),");
    let _ = writeln!(h, "            }},");
    // D: the final cache dump, identical to the interpreter's.
    let _ = writeln!(h, "            \"D\" => {{");
    for reg in &ir.regs {
        if reg.slot.is_some() {
            let _ = writeln!(
                h,
                "                println!(\"C {} {{}} {{}}\", d.cache_{}, u8::from(d.valid_{}));",
                reg.name, reg.name, reg.name
            );
        }
    }
    for var in &ir.vars {
        if var.mem_cell.is_some() {
            let _ = writeln!(
                h,
                "                println!(\"M {} {{}}\", d.mem_{});",
                var.name, var.name
            );
        }
    }
    let _ = writeln!(h, "            }}");
    let _ = writeln!(h, "            _ => std::process::exit(1),");
    let _ = writeln!(h, "        }}");
    let _ = writeln!(h, "    }}");
    let _ = writeln!(h, "}}");
    h
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
