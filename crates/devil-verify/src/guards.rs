//! Guard soundness: the variant table is the selector's mixed-radix
//! enumeration, variant domains are pairwise disjoint, and selection
//! is exhaustive over the reachable guard space.
//!
//! The proof strategy leans on [`select_variant`]'s structure:
//! selection never scans guards, it assembles each tested value and
//! indexes the table, and each variant's guards are derived from the
//! same selector ([`AccessPlan::guards`]). So soundness decomposes per
//! dimension:
//!
//! * the table must hold exactly `Π radix` variants, laid out in
//!   mixed-radix order (first dimension most significant);
//! * two variants are disjoint iff every dimension can *discriminate*
//!   every pair of values it enumerates, i.e. every enumerated value
//!   bit is observable through some guard (a cache segment bit outside
//!   the input shadow, an input segment bit, or a whole-cell compare);
//! * selection is exhaustive iff no dimension can assemble a value
//!   outside its radix: segment extracts land strictly below the radix,
//!   and memory cells hold values masked to their variable's width
//!   (the `store-mask` pass in [`crate::wf`] proves every cell store
//!   masks exactly so), so a cell observes just the radix bits too.
//!
//! [`select_variant`]: devil_ir::AccessPlan::select_variant
//! [`AccessPlan::guards`]: devil_ir::AccessPlan::guards

use crate::{DiagClass, Diagnostic};
use devil_ir::{AccessRef, DeviceIr, SelectorDim};

/// The tested-value bits `dim` enumerates: `radix - 1`.
fn radix_mask(dim: &SelectorDim) -> u64 {
    (dim.radix as u64).saturating_sub(1)
}

/// The tested-value bits `dim` can actually observe through guards:
/// every cache segment's value span plus the input shadow. A whole-cell
/// compare observes the cell's masked width, which is the radix.
fn observable_mask(dim: &SelectorDim) -> u64 {
    if dim.cell.is_some() {
        return radix_mask(dim);
    }
    let mut m = dim.input_mask;
    for &(_, seg) in &dim.segs {
        m |= seg.extract(seg.reg_mask());
    }
    m
}

/// Checks the variant table and selector of every access plan of `ir`.
pub fn check(ir: &DeviceIr, diagnostics: &mut Vec<Diagnostic>) {
    for (access, plan) in ir.accesses() {
        let name = ir.access_name(access);
        let mut diag = |class: DiagClass, detail: String| {
            diagnostics.push(Diagnostic { class, access: name.clone(), detail });
        };

        // Memory-cell serve: no selection at all — one trivially
        // guard-free variant documents the single dispatch point.
        if let Some(cell) = plan.cell {
            if !plan.selector.is_empty() || plan.variants.len() != 1 || plan.variants[0].len != 0 {
                diag(
                    DiagClass::SelectorMismatch,
                    format!(
                        "cell-served access ({}) carries a non-trivial variant table",
                        ir.cell_name(cell)
                    ),
                );
            }
            continue;
        }

        // Table size: exactly the selector's mixed-radix space.
        let expected: usize = plan.selector.iter().map(|d| d.radix).product();
        if plan.variants.len() != expected {
            diag(
                DiagClass::SelectorMismatch,
                format!("{} variants for a {}-combination selector", plan.variants.len(), expected),
            );
            continue;
        }

        // Per-dimension structure: power-of-two radix, input sourcing
        // only where the access has an input, and no assembleable value
        // outside the radix (exhaustiveness).
        for (d, dim) in plan.selector.iter().enumerate() {
            if !dim.radix.is_power_of_two() {
                diag(
                    DiagClass::NonExhaustive,
                    format!("selector dim {d} has non-power-of-two radix {}", dim.radix),
                );
            }
            let input_allowed = matches!(access, AccessRef::WriteVar(_));
            if !input_allowed && (dim.input_mask != 0 || !dim.input_segs.is_empty()) {
                diag(
                    DiagClass::SelectorMismatch,
                    format!("selector dim {d} sources from an input this access does not have"),
                );
            }
            let reach = observable_mask(dim) & !radix_mask(dim);
            if reach != 0 {
                diag(
                    DiagClass::NonExhaustive,
                    format!(
                        "selector dim {d} can assemble value bits {reach:#x} beyond radix {} \
                         — selection could miss",
                        dim.radix
                    ),
                );
            }
            // Disjointness: an enumerated value bit no guard observes
            // means two variants differing only in that bit share their
            // whole guard domain.
            let blind = radix_mask(dim) & !observable_mask(dim);
            if blind != 0 {
                diag(
                    DiagClass::GuardOverlap,
                    format!(
                        "selector dim {d} enumerates value bits {blind:#x} no guard \
                         observes — variants differing only there have identical domains"
                    ),
                );
            }
        }
    }
}
