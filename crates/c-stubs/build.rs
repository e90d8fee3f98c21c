//! Compiles the committed C glue (`tests/goldens/glue/*.c`, each of
//! which includes its emitted header) with `cc -O1 -Wall -Werror` and
//! archives the objects with `ar` into the static library this crate
//! links. Without `cc` on PATH it sets `cfg(no_cc)` instead: the crate
//! then links no C, and its table of stubs is empty.

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(command: &mut Command) {
    let status = command.status().unwrap_or_else(|e| panic!("{command:?}: {e}"));
    assert!(status.success(), "{command:?} failed");
}

fn main() {
    println!("cargo::rustc-check-cfg=cfg(no_cc)");
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    println!("cargo::rerun-if-changed={}", goldens.display());
    if Command::new("cc").arg("--version").output().is_err() {
        println!("cargo::warning=no `cc` on PATH: the C stubs are not linked");
        println!("cargo::rustc-cfg=no_cc");
        return;
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let mut sources: Vec<PathBuf> = std::fs::read_dir(goldens.join("glue"))
        .expect("tests/goldens/glue")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "c"))
        .collect();
    sources.sort();
    let mut objects = Vec::new();
    for source in &sources {
        let object = out.join(source.file_stem().expect("a file name")).with_extension("o");
        let flags = ["-O1", "-Wall", "-Werror", "-fPIC", "-c", "-o"];
        run(Command::new("cc").args(flags).arg(&object).arg(source));
        objects.push(object);
    }
    let lib = out.join("libc_stubs.a");
    let _ = std::fs::remove_file(&lib);
    run(Command::new("ar").arg("crs").arg(&lib).args(&objects));
    println!("cargo::rustc-link-search=native={}", out.display());
    println!("cargo::rustc-link-lib=static=c_stubs");
}
