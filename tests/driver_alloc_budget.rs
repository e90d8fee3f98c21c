//! Driver hot-path allocation budgets.
//!
//! A Devil driver keeps its port bindings and transfer buffers, so once
//! warmed a driver call allocates only what it hands out: the data an
//! IDE read returns, the frame the NE2000 model captures, the frame an
//! NE2000 receive returns. Each unit kind of devil-bench's `bulk_io`
//! workload, the NE2000 receive, and the PIC and bus-mouse control
//! paths, is pinned to an exact count. A change that builds a
//! `PortMap` binding list or a word buffer per call fails this test, and
//! so does one that allocates less: lower the pin to claim the saving.
//!
//! The allocator counts per thread, so test threads running in parallel
//! do not disturb each other's counts. Counts are the same in debug and
//! release builds.

use devil::devices::{Busmouse, IdeController, Ne2000, Permedia2, I8259};
use devil::drivers::{
    Depth, DevilBusmouse, DevilIde, DevilNe2000, DevilPic8259, DevilPm2, PicConfig, PioConfig,
    PioMove,
};
use devil::hwsim::{Bus, Device, IrqLine, SharedMem, Width};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

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

/// The allocations (including reallocations) `f` made on this thread.
fn counting(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations per warmed unit, for each unit kind.
const PINS: [(&str, u64); 19] = [
    // The sectors read (every IDE read below): the caller owns them.
    ("ide_pio_read4_16_fused", 1),
    ("ide_pio_read4_16", 1),
    ("ide_pio_read4_32_fused", 1),
    ("ide_pio_read4_32", 1),
    ("ide_dma_read4", 1),
    // The frame the NE2000 model captures on transmit (every transmit).
    ("ne2000_tx_mtu_fused", 1),
    ("ne2000_tx_mtu", 1),
    ("ne2000_tx_short_fused", 1),
    ("ne2000_tx_short", 1),
    // The frame a receive returns.
    ("ne2000_rx_mtu", 1),
    ("ne2000_rx_short", 1),
    ("pm2_fill24_fused", 0),
    ("pm2_fill24", 0),
    ("pm2_fill32_fused", 0),
    ("pm2_fill32", 0),
    ("pm2_copy32", 0),
    ("pic8259_init", 0),
    ("pic8259_init_fused", 0),
    ("busmouse_read_state", 0),
];

/// Units run before counting: enough for every kept buffer to reach
/// its steady-state size.
const WARM: u32 = 8;
/// Warmed units counted per kind; each must match the pin.
const COUNTED: u32 = 4;

/// Lends the NE2000 model to the bus while the test keeps a handle on
/// it, to empty its capture list between units.
struct Shared<T>(Rc<RefCell<T>>);

impl<T: Device> Device for Shared<T> {
    fn name(&self) -> &str {
        "shared"
    }

    fn io_read(&mut self, offset: u64, width: Width) -> u64 {
        self.0.borrow_mut().io_read(offset, width)
    }

    fn io_write(&mut self, offset: u64, value: u64, width: Width) {
        self.0.borrow_mut().io_write(offset, value, width);
    }
}

const IDE_BASE: u64 = 0x1f0;
const NE2K_BASE: u64 = 0x300;
const PM2_BASE: u64 = 0xf000_0000;
const PIC_BASE: u64 = 0x20;
const MOUSE_BASE: u64 = 0x23c;

/// One rig per driver, each driver bound and started.
struct Rigs {
    ide: (Bus, SharedMem, DevilIde),
    ne: (Bus, Rc<RefCell<Ne2000>>, DevilNe2000),
    /// The 24- and 32-bit Permedia2 rigs.
    pm: [(Bus, DevilPm2); 2],
    pic: (Bus, DevilPic8259),
    mouse: (Bus, DevilBusmouse),
}

impl Rigs {
    fn new() -> Rigs {
        let mem = SharedMem::new(16 << 10);
        let ide = IdeController::new(64, IrqLine::new(), mem.clone());
        let mut ide_bus = Bus::default();
        ide_bus.attach_io(Box::new(ide), IDE_BASE, 16);

        let nic = Rc::new(RefCell::new(Ne2000::new([2, 0, 0, 0, 0, 1], IrqLine::new())));
        let mut ne_bus = Bus::default();
        ne_bus.attach_io(Box::new(Shared(nic.clone())), NE2K_BASE, 18);
        let mut ne = DevilNe2000::new(NE2K_BASE);
        ne.start(&mut ne_bus);

        let pm = [Depth::Bpp24, Depth::Bpp32].map(|depth| {
            let mut bus = Bus::default();
            bus.attach_mem(Box::new(Permedia2::new(256, 128)), PM2_BASE, 4096);
            let mut drv = DevilPm2::new(PM2_BASE, depth);
            drv.set_depth(&mut bus);
            (bus, drv)
        });

        let mut pic_bus = Bus::default();
        pic_bus.attach_io(Box::new(I8259::new(IrqLine::new())), PIC_BASE, 2);

        let mut mouse = Busmouse::new(IrqLine::new());
        mouse.move_by(3, -2);
        let mut mouse_bus = Bus::default();
        mouse_bus.attach_io(Box::new(mouse), MOUSE_BASE, 4);

        Rigs {
            ide: (ide_bus, mem, DevilIde::new(IDE_BASE)),
            ne: (ne_bus, nic, ne),
            pm,
            pic: (pic_bus, DevilPic8259::new(PIC_BASE)),
            mouse: (mouse_bus, DevilBusmouse::new(MOUSE_BASE)),
        }
    }

    /// What unit `kind` needs of the device before it runs, done
    /// outside the count: the frame a receive takes arrives.
    fn prepare(&mut self, kind: &str, inp: &Input) {
        let nic = &self.ne.1;
        match kind {
            "ne2000_rx_mtu" => nic.borrow_mut().inject_rx(&inp.frame),
            "ne2000_rx_short" => nic.borrow_mut().inject_rx(&inp.frame[..60]),
            _ => {}
        }
    }

    /// Runs unit `kind` on `inp`.
    fn unit(&mut self, kind: &str, inp: &Input) {
        let pio = |io32| PioConfig { sectors_per_irq: 1, io32, moves: PioMove::Block };
        let Input { lba, ref frame, rect: (x, y, w, h), color, pic } = *inp;
        let (ide_bus, mem, ide) = &mut self.ide;
        let (ne_bus, nic, ne) = &mut self.ne;
        let [(pm24_bus, pm24), (pm32_bus, pm32)] = &mut self.pm;
        // Only the last frame matters; emptying the list frees the rest.
        nic.borrow_mut().transmitted.clear();
        match kind {
            "ide_pio_read4_16_fused" => drop(ide.read_pio_fused(ide_bus, lba, 4, pio(false))),
            "ide_pio_read4_16" => drop(ide.read_pio(ide_bus, lba, 4, pio(false))),
            "ide_pio_read4_32_fused" => drop(ide.read_pio_fused(ide_bus, lba, 4, pio(true))),
            "ide_pio_read4_32" => drop(ide.read_pio(ide_bus, lba, 4, pio(true))),
            "ide_dma_read4" => drop(ide.read_dma(ide_bus, mem, lba, 4, 0x1000)),
            "ne2000_tx_mtu_fused" => ne.send_fused(ne_bus, frame),
            "ne2000_tx_mtu" => ne.send(ne_bus, frame),
            "ne2000_tx_short_fused" => ne.send_fused(ne_bus, &frame[..60]),
            "ne2000_tx_short" => ne.send(ne_bus, &frame[..60]),
            "ne2000_rx_mtu" => assert_eq!(ne.recv(ne_bus).as_deref(), Some(&frame[..])),
            "ne2000_rx_short" => assert_eq!(ne.recv(ne_bus).as_deref(), Some(&frame[..60])),
            "pm2_fill24_fused" => pm24.fill_rect_fused(pm24_bus, x, y, w, h, color),
            "pm2_fill24" => pm24.fill_rect(pm24_bus, x, y, w, h, color),
            "pm2_fill32_fused" => pm32.fill_rect_fused(pm32_bus, x, y, w, h, color),
            "pm2_fill32" => pm32.fill_rect(pm32_bus, x, y, w, h, color),
            "pm2_copy32" => pm32.copy_rect(pm32_bus, y, x, x, y, w, h),
            "pic8259_init" => self.pic.1.init(&mut self.pic.0, pic),
            "pic8259_init_fused" => self.pic.1.init_fused(&mut self.pic.0, pic),
            "busmouse_read_state" => drop(self.mouse.1.read_state(&mut self.mouse.0)),
            _ => panic!("unknown unit kind {kind}"),
        }
    }
}

/// One unit's inputs, built outside the count.
struct Input {
    /// Start sector of an IDE read.
    lba: u32,
    /// A full-MTU frame; short transmits send its first 60 bytes.
    frame: Vec<u8>,
    /// A rectangle's `(x, y, w, h)`; a copy swaps `x` and `y` for its
    /// source.
    rect: (u32, u32, u32, u32),
    color: u32,
    pic: PicConfig,
}

/// Round `r`'s inputs: sectors, frame bytes and rectangle sizes vary by
/// round, and the PIC setup takes every ICW3/ICW4 variant in turn.
fn input(r: u32) -> Input {
    Input {
        lba: r * 5 % 60,
        frame: (0..1514).map(|i| (i + r) as u8).collect(),
        rect: (r * 7 % 64, r * 3 % 32, 4 + r * 13 % 61, 4 + r * 5 % 29),
        color: r.wrapping_mul(0x9e37_79b9),
        pic: PicConfig {
            single: r % 2 == 1,
            with_icw4: r % 4 < 2,
            ..PicConfig::pc_master(0x08, r as u8)
        },
    }
}

#[test]
fn warmed_driver_units_stay_within_their_allocation_budgets() {
    let mut rigs = Rigs::new();
    let mut actual = Vec::new();
    let mut diffs = Vec::new();
    for (kind, pin) in PINS {
        for r in 0..WARM {
            let inp = input(r);
            rigs.prepare(kind, &inp);
            rigs.unit(kind, &inp);
        }
        let mut counts = Vec::new();
        for r in WARM..WARM + COUNTED {
            let inp = input(r);
            rigs.prepare(kind, &inp);
            counts.push(counting(|| rigs.unit(kind, &inp)));
        }
        if counts.iter().any(|&n| n != pin) {
            diffs.push(format!("{kind}: {counts:?} allocations per unit, pin {pin}"));
        }
        actual.push((kind, counts[0]));
    }
    let table: String = actual.iter().map(|(kind, n)| format!("    ({kind:?}, {n}),\n")).collect();
    assert!(diffs.is_empty(), "{}\nactual pins:\n{table}", diffs.join("\n"));
}
