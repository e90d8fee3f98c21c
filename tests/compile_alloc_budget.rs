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

const STAGES: [&str; 7] = ["parse", "resolve", "check", "lower", "fuse", "emit_c", "emit_rust"];

/// Allocations per stage, in [`STAGES`] order, for each shipped spec.
const BUDGETS: [(&str, [u64; 7]); 8] = [
    ("busmouse", [102, 70, 18, 238, 1, 185, 102]),
    ("ide", [113, 100, 26, 347, 77, 230, 141]),
    ("piix4ide", [42, 36, 11, 113, 1, 64, 39]),
    ("permedia2", [106, 88, 25, 314, 229, 261, 71]),
    ("ne2000", [149, 129, 38, 494, 77, 371, 159]),
    ("dma8237", [196, 152, 71, 558, 1, 463, 128]),
    ("pic8259", [100, 84, 20, 313, 56, 310, 110]),
    ("cs4236b", [81, 78, 13, 290, 1, 118, 33]),
];

/// The allocations of each compile stage of `src`, in [`STAGES`] order.
fn stage_allocs(name: &str, src: &str) -> [u64; 7] {
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
    [parse, resolve, check, lower, fuse, emit_c, emit_rust]
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
