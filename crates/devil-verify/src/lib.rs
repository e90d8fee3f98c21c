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
//! * **dead variants** ([`reach`]): a whole-spec value-set analysis of
//!   everything that can feed a tested slot or cell (device reads, API
//!   writes, folded actions, arena stores) flags variants whose guard
//!   domain no reachable state selects;
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
//!   runtime rejects each as unplanned) is a diagnostic;
//! * **plan-surface manifest** ([`manifest`]): a canonical, committed
//!   rendering of the whole dispatch surface (variants × guards × cell
//!   serves × superplan variants × compile-time fallbacks) whose diff
//!   is the drift gate CI runs on every PR.

#![forbid(unsafe_code)]

pub mod guards;
pub mod manifest;
pub mod reach;
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
    /// A variant whose guard domain no reachable state selects, given
    /// value-set analysis of every write that can feed the tested
    /// slots/cells.
    DeadVariant,
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
            DiagClass::DeadVariant => "dead-variant",
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
    let guard_clean = guards::check(ir, &mut diagnostics);
    // Dead-variant analysis interprets the derived guards; skip accesses
    // whose selector already mismatched (their guards are not trustworthy
    // provenance).
    reach::check(ir, &guard_clean, &mut diagnostics);
    wf::check(ir, &mut diagnostics);
    let (proven, total) = sym::check(ir, &mut diagnostics);
    Report { diagnostics, superplans_proven: proven, superplans_total: total }
}

/// The embedded spec library the CLI and CI gate run over (see
/// [`devil_fuzz::spec_library`]).
pub use devil_fuzz::spec_library;
