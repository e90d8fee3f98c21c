//! Compile-stage allocation budgets.
//!
//! Heap allocations are a deterministic cost: the same source always
//! makes the same number of them, in debug and release builds alike. So
//! each compile stage of every shipped spec is pinned to an exact count.
//! A stage that starts copying what it could move or borrow (a token
//! clone in the parser, a deep clone in the resolver, a `String` per
//! literal in an emitter) fails this test, and so does one that
//! allocates less: lower the budget to claim the saving.
//!
//! The reject path is pinned the same way: parse, resolve and check
//! summed over the 895 mutants of `sampled_corpus(1)`, most of which the
//! front end rejects.
//!
//! The allocator counts per thread, so test threads running in parallel
//! do not disturb each other's counts.

use devil::{codegen, drivers, ir, sema, syntax};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Constant-initialised and without a destructor, so counting never
    // allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards unchanged to `System`; the bookkeeping
// touches only a constant-initialised thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations (including
/// reallocations) it made on this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const STAGES: [&str; 8] =
    ["lex", "parse", "resolve", "check", "lower", "fuse", "emit_c", "emit_rust"];

/// Allocations per stage, in [`STAGES`] order, for each shipped spec.
/// `lex` is the lexer on its own (the token vector, nothing per token);
/// `parse` includes its own lexing.
const BUDGETS: [(&str, [u64; 8]); 8] = [
    ("busmouse", [1, 48, 46, 18, 167, 1, 131, 93]),
    ("ide", [1, 43, 61, 26, 238, 77, 177, 130]),
    ("piix4ide", [1, 19, 25, 11, 82, 1, 44, 36]),
    ("permedia2", [1, 40, 53, 25, 210, 185, 133, 65]),
    ("ne2000", [1, 48, 80, 38, 350, 69, 253, 144]),
    ("dma8237", [1, 76, 97, 71, 367, 1, 279, 113]),
    ("pic8259", [1, 41, 53, 20, 229, 56, 235, 103]),
    ("cs4236b", [1, 42, 54, 13, 242, 1, 151, 68]),
];

/// The allocations of each compile stage of `src`, in [`STAGES`] order.
fn stage_allocs(name: &str, src: &str) -> [u64; 8] {
    let (tokens, lex) = counting(|| syntax::lexer::lex(src, &mut syntax::DiagSink::new()));
    assert!(tokens.len() > 1, "{name} lexes");
    let ((device, mut diags), parse) = counting(|| syntax::parse(src));
    let device = device.unwrap_or_else(|| panic!("{name} parses"));
    let (model, resolve) = counting(|| sema::resolve::resolve(&device, &[], &mut diags));
    let ((), check) = counting(|| sema::checks::check(&model, &mut diags));
    assert!(!diags.has_errors(), "{name} checks: {:?}", diags.all());
    let (mut ir, lower) = counting(|| ir::lower(&model));
    let ((), fuse) = counting(|| drivers::superplans::install(&mut ir));
    let (c, emit_c) = counting(|| codegen::emit_c(&ir, name));
    let (rust, emit_rust) = counting(|| codegen::emit_rust(&ir));
    assert!(!c.is_empty() && !rust.is_empty());
    [lex, parse, resolve, check, lower, fuse, emit_c, emit_rust]
}

/// Allocations of parse, resolve and check, each summed over the
/// mutants of `sampled_corpus(1)`. A mutant adds nothing to the stages
/// after the one that rejects it.
const MUTANT_BUDGET: [u64; 3] = [45_752, 35_610, 2_313];

/// The allocations of the front-end stages over `mutants`, in
/// [`MUTANT_BUDGET`] order.
fn mutant_allocs(mutants: &[String]) -> [u64; 3] {
    let mut total = [0; 3];
    for src in mutants {
        let ((device, mut diags), parse) = counting(|| syntax::parse(src));
        total[0] += parse;
        let Some(device) = device.filter(|_| !diags.has_errors()) else { continue };
        let (model, resolve) = counting(|| sema::resolve::resolve(&device, &[], &mut diags));
        total[1] += resolve;
        if diags.has_errors() {
            continue;
        }
        let ((), check) = counting(|| sema::checks::check(&model, &mut diags));
        total[2] += check;
    }
    total
}

#[test]
fn the_reject_path_stays_within_its_allocation_budget() {
    let mutants = devil_fuzz::corpus::sampled_corpus(1);
    assert_eq!(mutants.len(), 895, "mutant sample changed");
    let counts = mutant_allocs(&mutants);
    assert_eq!(mutant_allocs(&mutants), counts, "allocation counts must repeat");
    assert_eq!(counts, MUTANT_BUDGET, "parse, resolve, check over the mutants");
}

#[test]
fn compile_stages_stay_within_their_allocation_budgets() {
    let mut actual = Vec::new();
    for (name, src) in drivers::specs::ALL {
        let counts = stage_allocs(name, src);
        // Counts repeat exactly: a second compile allocates the same.
        assert_eq!(stage_allocs(name, src), counts, "{name}: allocation counts must repeat");
        actual.push((name, counts));
    }
    let table: String =
        actual.iter().map(|(name, c)| format!("    ({name:?}, {c:?}),\n")).collect();
    let mut diffs = Vec::new();
    for ((name, counts), (budget_name, budget)) in actual.iter().zip(BUDGETS) {
        assert_eq!(*name, budget_name, "budget table is in `drivers::specs::ALL` order");
        for ((stage, &got), &want) in STAGES.iter().zip(counts).zip(&budget) {
            if got != want {
                diffs.push(format!("{name}.{stage}: {got} allocations, budget {want}"));
            }
        }
    }
    assert!(diffs.is_empty(), "{}\nactual budgets:\n{table}", diffs.join("\n"));
}
