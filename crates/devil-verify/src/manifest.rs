//! Canonical plan-surface manifests: one committed text rendering of
//! everything a spec compiles to — variants, guards, cell serves,
//! superplan variants and shapes, and compile-time fallbacks — in a
//! fixed sort order, so `git diff` is the drift gate ROADMAP item 4
//! asked for. `UPDATE_MANIFESTS=1` regenerates the goldens; any other
//! run fails on a byte difference.
//!
//! The manifest's `surface-points` line is the device's dispatch-point
//! count ([`DeviceIr::dispatch_points`]): the length of the runtime's
//! hit table, and the denominator the coverage-guided fuzzer saturates.

use devil_ir::{AccessPlan, AccessRef, DeviceIr, GuardSource, PlanGuard, SelectorDim};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Formats one guard with slot/cell provenance.
fn fmt_guard(ir: &DeviceIr, g: &PlanGuard) -> String {
    match g.source {
        GuardSource::Slot(s) => {
            format!("slot({})&{:#x}=={:#x}", ir.slot_name(s), g.mask, g.expected)
        }
        GuardSource::Cell(c) => format!("cell({})=={:#x}", ir.cell_name(c), g.expected),
        GuardSource::Input => format!("input&{:#x}=={:#x}", g.mask, g.expected),
    }
}

/// Formats one selector dimension's sourcing.
fn fmt_dim(ir: &DeviceIr, dim: &SelectorDim) -> String {
    let mut src = match dim.cell {
        Some(c) => format!("cell({})", ir.cell_name(c)),
        None => dim
            .segs
            .iter()
            .map(|&(slot, _)| format!("slot({})", ir.slot_name(slot)))
            .collect::<Vec<_>>()
            .join("+"),
    };
    if dim.input_mask != 0 {
        let _ = write!(src, "+input&{:#x}", dim.input_mask);
    }
    format!("{src} radix {}", dim.radix)
}

/// Renders one access's section.
fn render_access(ir: &DeviceIr, access: AccessRef, plan: &AccessPlan, out: &mut String) {
    let name = ir.access_name(access);
    if let Some(cell) = plan.cell {
        let _ = writeln!(out, "{name}: cell {}", ir.cell_name(cell));
        return;
    }
    let _ = writeln!(out, "{name}: {} variant(s)", plan.variants.len());
    let superplan = match access {
        AccessRef::Superplan(si) => Some(&ir.superplans()[si]),
        _ => None,
    };
    for (d, dim) in plan.selector.iter().enumerate() {
        let _ = writeln!(out, "  dim {d}: {}", fmt_dim(ir, dim));
    }
    if let Some(sp) = superplan {
        let _ =
            writeln!(out, "  args {} outputs {} stage-steps {}", sp.args, sp.outputs, sp.stage.len);
    }
    for (idx, v) in plan.variants.iter().enumerate() {
        let guards = plan.guards(idx).map(|g| fmt_guard(ir, &g)).collect::<Vec<_>>().join(" && ");
        let guards = if guards.is_empty() { "always".to_string() } else { guards };
        let _ = write!(out, "  variant {idx}: steps {} when {guards}", v.len);
        if superplan.is_some() {
            let shape = ir
                .shape(v)
                .map(|s| {
                    format!(
                        "{}{}p{}w{}",
                        if s.write { "W" } else { "R" },
                        if s.block { "B" } else { "" },
                        s.port,
                        s.size
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(out, " shape [{shape}]");
        }
        let _ = writeln!(out);
    }
    if !plan.assemble.is_empty() {
        let asm = plan
            .assemble
            .iter()
            .map(|(slot, _)| ir.slot_name(slot.span().0))
            .collect::<Vec<_>>()
            .join("+");
        let _ = writeln!(out, "  assemble {asm}");
    }
}

/// Renders the full canonical manifest of one lowered device.
pub fn render(ir: &DeviceIr) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "device {}", ir.name);
    let ports =
        ir.ports.iter().map(|p| format!("{}:{}", p.name, p.width)).collect::<Vec<_>>().join(" ");
    let _ = writeln!(out, "ports {ports}");
    let _ = writeln!(
        out,
        "cache-slots {} mem-cells {} arena-steps {}",
        ir.cache_slots,
        ir.mem_cells,
        ir.plan_arena.len()
    );
    let _ = writeln!(out, "surface-points {}", ir.dispatch_points());
    let _ = writeln!(out);
    for (access, plan) in ir.accesses() {
        render_access(ir, access, plan, &mut out);
    }
    // Compile-time fallbacks are part of the surface: a PR that silently
    // loses a fast path shows up as a new line here. Sorted by the IR
    // (access, cause) ordering, so byte-stable across runs.
    for fb in ir.plan_fallbacks() {
        let _ = writeln!(out, "fallback {}: {}", fb.access, fb.cause);
    }
    out
}

/// The committed manifest directory.
pub fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("manifests")
}

/// The committed manifest path for one spec.
pub fn manifest_path(name: &str) -> PathBuf {
    manifest_dir().join(format!("{name}.manifest"))
}

/// Golden-compare (or, under `UPDATE_MANIFESTS=1`, rewrite) one spec's
/// manifest. Returns an error message on drift.
pub fn check_manifest(name: &str, ir: &DeviceIr) -> Result<(), String> {
    let rendered = render(ir);
    let path = manifest_path(name);
    if std::env::var_os("UPDATE_MANIFESTS").is_some() {
        std::fs::create_dir_all(manifest_dir())
            .and_then(|()| std::fs::write(&path, &rendered))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok(());
    }
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!("reading {} (run with UPDATE_MANIFESTS=1 to create): {e}", path.display())
    })?;
    if committed != rendered {
        return Err(format!(
            "plan surface of {name} drifted from {} — inspect the diff, then \
             regenerate with UPDATE_MANIFESTS=1 if intended",
            path.display()
        ));
    }
    Ok(())
}
