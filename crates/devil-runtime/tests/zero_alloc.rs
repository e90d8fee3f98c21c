//! Fast-path zero-allocation assertion.
//!
//! The paper's pitch for compiled stubs is that steady-state device
//! access is straight-line arithmetic. The interpreter's plan fast path
//! claims the same: after warm-up, reads, writes, struct samples,
//! guarded flushes, family accesses — and even the hashed family-cache
//! fallback — must not touch the allocator. A counting global allocator
//! enforces it.
//!
//! The allocator counts per thread, so only the measuring thread's own
//! allocations show: the test harness's threads (output capture, other
//! tests) cannot perturb the count.

use devil_runtime::{DeviceAccess, DeviceInstance, ReferenceInstance};
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

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn allocations(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A register file that never allocates: fixed arrays per port.
struct NullAccess {
    regs: [[u64; 8]; 2],
}

impl NullAccess {
    fn new() -> Self {
        NullAccess { regs: [[0; 8]; 2] }
    }
}

impl DeviceAccess for NullAccess {
    fn read(&mut self, port: usize, offset: u64, _width_bits: u32) -> u64 {
        self.regs[port][offset as usize % 8]
    }

    fn write(&mut self, port: usize, offset: u64, _width_bits: u32, value: u64) {
        self.regs[port][offset as usize % 8] = value;
    }
}

fn instance(src: &str) -> DeviceInstance {
    let model = devil_sema::check_source(src, &[]).expect("spec checks");
    DeviceInstance::new(devil_ir::lower(&model))
}

fn reference(src: &str) -> ReferenceInstance {
    let model = devil_sema::check_source(src, &[]).expect("spec checks");
    ReferenceInstance::new(devil_ir::lower(&model))
}

#[test]
fn warm_access_paths_do_not_allocate() {
    // Concrete registers: masked write, cached read, volatile read, a
    // struct sample with field getters (the Figure 3 loop shape).
    let mut flat = instance(
        r#"device flat (base : bit[8] port @ {0..3}) {
             register cr = base @ 0, mask '1000****' : bit[8];
             variable cfg = cr[3..0] : int(4);
             register st = read base @ 1 : bit[8];
             variable status = st, volatile : int(8);
             register d0 = read base @ 2 : bit[8];
             register d1 = read base @ 3 : bit[8];
             structure sample = {
               variable lo = d0, volatile : int(8);
               variable hi = d1, volatile : int(8);
             };
           }"#,
    );
    // Guard-split conditional serialization (the 8259A shape).
    let mut pic = instance(include_str!("../../../specs/pic8259.dil"));
    // A family within the flat-slot cap: indexed fast-path access.
    let mut fam = instance(
        r#"device fam (base : bit[8] port @ {0..1}) {
             register control = base @ 0, mask '000*****' : bit[8];
             variable ia = control[4..0] : int{0..31};
             register ireg(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];
             variable idata(i : int{0..31}) = ireg(i), volatile : int(8);
           }"#,
    );
    // A family past the flat-slot cap (8191 > 4096 instances): it
    // compiles no plan, so only the reference interpreter serves it,
    // through its hashed family cache — whose key construction must
    // stay inline.
    let mut big = reference(
        r#"device big (base : bit[16] port @ {0..1}) {
             register control = base @ 0, mask '000*************' : bit[16];
             variable ia = control[12..0] : int{0..8190};
             register ireg(i : int{0..8190}) = base @ 1, pre {ia = i} : bit[16];
             variable d(i : int{0..8190}) = ireg(i), volatile : int(16);
           }"#,
    );

    let mut dev = NullAccess::new();

    let cfg = flat.var_id("cfg").unwrap();
    let status = flat.var_id("status").unwrap();
    let sample = flat.struct_id("sample").unwrap();
    let lo = flat.var_id("lo").unwrap();
    let hi = flat.var_id("hi").unwrap();
    let init = pic.struct_id("init").unwrap();
    let sngl = pic.var_id("sngl").unwrap();
    let ic4 = pic.var_id("ic4").unwrap();
    let vector_base = pic.var_id("vector_base").unwrap();
    let irq_mask = pic.var_id("irq_mask").unwrap();
    let idata = fam.var_id("idata").unwrap();
    let d = big.ir().var_id("d").unwrap();
    let cascaded = pic.sym_value("sngl", "CASCADED").unwrap();
    let yes = pic.sym_value("ic4", "YES").unwrap();

    let exercise = |flat: &mut DeviceInstance,
                    pic: &mut DeviceInstance,
                    fam: &mut DeviceInstance,
                    big: &mut ReferenceInstance,
                    dev: &mut NullAccess| {
        flat.write_id(dev, cfg, &[], 0xa).unwrap();
        assert_eq!(flat.read_id(dev, cfg, &[]).unwrap(), 0xa);
        let _ = flat.read_id(dev, status, &[]).unwrap();
        flat.read_struct_id(dev, sample).unwrap();
        let _ = flat.get_field_id(lo).unwrap();
        let _ = flat.get_field_id(hi).unwrap();
        // Guarded flush: both ICW3 and ICW4 variants.
        pic.set_field_id(sngl, cascaded).unwrap();
        pic.set_field_id(ic4, yes).unwrap();
        pic.set_field_id(vector_base, 0x40 >> 3).unwrap();
        pic.set_field_id(irq_mask, 0xfb).unwrap();
        pic.write_struct_id(dev, init).unwrap();
        // Flat-slot family: three distinct instances.
        for i in [3u64, 17, 30] {
            let _ = fam.read_id(dev, idata, &[i]).unwrap();
        }
        // Hashed-fallback family: warm keys.
        for i in [5000u64, 6000, 8190] {
            let _ = big.read_id(dev, d, &[i]).unwrap();
        }
    };

    // Warm-up: first touches may allocate (cache maps, pooled order
    // buffers, hashed keys' table growth).
    for _ in 0..3 {
        exercise(&mut flat, &mut pic, &mut fam, &mut big, &mut dev);
    }

    let n = allocations(|| {
        for _ in 0..64 {
            exercise(&mut flat, &mut pic, &mut fam, &mut big, &mut dev);
        }
    });
    assert_eq!(n, 0, "warm access paths allocated {n} times");

    // Checked mode runs the same plans; passing checks allocate nothing.
    for inst in [&mut flat, &mut pic, &mut fam] {
        inst.set_debug_checks(true);
    }
    big.set_debug_checks(true);
    let n = allocations(|| {
        for _ in 0..64 {
            exercise(&mut flat, &mut pic, &mut fam, &mut big, &mut dev);
        }
    });
    assert_eq!(n, 0, "checked access paths allocated {n} times");

    // The plan engine ran every access of the exercise.
    assert_eq!(flat.plan_stats().general, 0);
    assert_eq!(pic.plan_stats().general, 0);
    assert_eq!(fam.plan_stats().general, 0);
}
