//! Static verification of compiled plan surfaces.
//!
//! The fuzzers sample the equivalences this repo is built on; this
//! crate proves the ones that are provable from the compiled artifact
//! alone. It runs abstract interpretation and symbolic execution over
//! the [`devil_ir::DeviceIr`] plan arena — the thing that actually
//! executes, and that both stub emitters emit from — and establishes,
//! per specification:
//!
//! * **guard soundness** ([`guards`]): every access's variant table is
//!   exactly the mixed-radix enumeration its selector describes,
//!   variant domains are pairwise disjoint, and selection is
//!   exhaustive over the reachable guard space;
//! * **step well-formedness** ([`wf`]): ungated slot reads, compose
//!   masks outside the owning register's width, block transfers outside
//!   their declared port domains, and reverse-map (slot/cell owner)
//!   inconsistencies;
//! * **fused ≡ unfused** ([`sym`]): for every installed superplan, a
//!   bit-level symbolic execution of the fused arena range and of the
//!   constituent unfused plans, proving the emitted bus-op streams,
//!   outputs and final cache/memory state equal *as terms* — the
//!   equivalence the differential fuzzers only sample;
//! * **plan coverage**: every access lowering could not plan (the
//!   runtime rejects each as unplanned) is a diagnostic.
//!
//! Two properties of the plan surface are decided elsewhere, once:
//! drift of the compiled surface by the emit goldens (`tests/goldens/`,
//! the full C and Rust output of every library spec), and variant
//! liveness by the coverage corpus (`devil_fuzz::coverage::corpus`),
//! which reaches every dispatch point of the library.

#![forbid(unsafe_code)]

pub mod guards;
pub mod sym;
pub mod wf;

use devil_ir::DeviceIr;

/// The diagnostic classes the verifier can report. Each class has at
/// least one deliberately-broken IR in the test suite proving it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagClass {
    /// The variant table and selector disagree: a variant count other
    /// than the selector's mixed-radix space, a cell serve carrying a
    /// selector or steps, or a dimension sourcing from an input the
    /// access does not have.
    SelectorMismatch,
    /// Two variant guard domains intersect: a selector dimension cannot
    /// discriminate all value pairs it enumerates, so distinct variants
    /// share satisfying states.
    GuardOverlap,
    /// A selector dimension can assemble a value outside its enumerated
    /// radix, so selection could miss.
    NonExhaustive,
    /// A step (or assemble list) reads a cache slot that may be invalid
    /// at that point without a validity gate.
    UngatedRead,
    /// A compose mask (store, write, forced bits) sets bits outside the
    /// owning register's declared width.
    StoreMask,
    /// A block transfer step outside its declared port domain (bad port
    /// index or a width that is not the port's access width).
    BlockBounds,
    /// `slot_owner`/`mem_owner` reverse maps inconsistent with the
    /// registers, variables, or arena contents.
    OwnerMap,
    /// The symbolic fused execution of a superplan variant does not
    /// match its unfused op-by-op reference (bus stream, outputs, or
    /// final cache/memory state), or the proof could not be closed.
    FusedDivergence,
    /// An access lowering could not plan (an entry of
    /// `DeviceIr::plan_fallbacks`): the runtime rejects it.
    Unplanned,
}

impl DiagClass {
    /// Short stable label, used by the CLI and tests.
    pub fn label(self) -> &'static str {
        match self {
            DiagClass::SelectorMismatch => "selector-mismatch",
            DiagClass::GuardOverlap => "guard-overlap",
            DiagClass::NonExhaustive => "non-exhaustive",
            DiagClass::UngatedRead => "ungated-read",
            DiagClass::StoreMask => "store-mask",
            DiagClass::BlockBounds => "block-bounds",
            DiagClass::OwnerMap => "owner-map",
            DiagClass::FusedDivergence => "fused-divergence",
            DiagClass::Unplanned => "unplanned",
        }
    }
}

/// One verifier finding, with access/variant provenance.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The finding's class.
    pub class: DiagClass,
    /// The access it is about (`write w`, `superplan tx`, `device`).
    pub access: String,
    /// Human-readable detail, with slot/cell provenance.
    pub detail: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.class.label(), self.access, self.detail)
    }
}

/// Conservative may-alias test between two plan slots.
pub(crate) fn spans_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// A full verification report for one device.
pub struct Report {
    /// Every finding, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Superplans whose fused ≡ unfused equivalence was proven.
    pub superplans_proven: usize,
    /// Superplans installed on the device.
    pub superplans_total: usize,
}

impl Report {
    /// Whether the device verified clean.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty() && self.superplans_proven == self.superplans_total
    }
}

/// Runs every verification pass over one lowered device.
pub fn verify(ir: &DeviceIr) -> Report {
    let mut diagnostics: Vec<Diagnostic> = ir
        .plan_fallbacks()
        .iter()
        .map(|fb| Diagnostic {
            class: DiagClass::Unplanned,
            access: fb.access.clone(),
            detail: fb.cause.clone(),
        })
        .collect();
    guards::check(ir, &mut diagnostics);
    wf::check(ir, &mut diagnostics);
    let (proven, total) = sym::check(ir, &mut diagnostics);
    Report { diagnostics, superplans_proven: proven, superplans_total: total }
}
