//! `bulk_io`: single thread, closed loop. Units go through the
//! `drivers` crate on untraced buses: IDE PIO 4-sector reads (16- and
//! 32-bit block moves), IDE busmaster DMA, NE2000 full-MTU and
//! short-frame transmits, and Permedia2 fill and copy rectangles. Fused
//! and per-plan units alternate within each round, and every unit is
//! repeated through the hand-written driver on a twin rig.
//!
//! Drivers build their `PortMap` internally, so a traced run can split
//! a unit only into the device models (the [`Shim`](crate::trace::Shim)
//! on each device) and the lumped driver stack (driver, runtime, port
//! and bus).

use crate::costs::{self, CostAcc, Snap};
use crate::report::Report;
use crate::trace::{self, shim, span, Layer};
use crate::{Config, RoundTimes, Rounds};
use devices::ide::SECTOR_SIZE;
use devices::permedia2::FIFO_DEPTH;
use devices::{IdeController, Ne2000, Permedia2};
use devil_fleet::Rng;
use devil_runtime::DeviceInstance;
use drivers::{specs, Depth, DevilIde, DevilNe2000, DevilPm2, HandIde, HandNe2000, HandPm2};
use drivers::{PioConfig, PioMove};
use hwsim::{Bus, IrqLine, SharedMem};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const IDE_BASE: u64 = 0x1f0;
const NE2K_BASE: u64 = 0x300;
const PM2_BASE: u64 = 0xf000_0000;
const DISK_SECTORS: u64 = 64;
/// Sectors per PIO and DMA read.
const READ_SECTORS: u32 = 4;
/// Busmaster DMA target in the rig's shared memory.
const PRD: u32 = 0x1000;
const PM2_W: u32 = 256;
const PM2_H: u32 = 128;
const MTU_FRAME: usize = 1514;
const SHORT_FRAME: usize = 60;
/// Distinct round inputs a run cycles through.
const INPUT_POOL: u64 = 64;
/// Simulated idle time per Permedia2 drain step before a check.
const PM2_DRAIN_NS: f64 = 1e6;

/// Unit kinds, in round order (the cost table's rows).
const KINDS: &[&str] = &[
    "ide_pio_read4_16_fused",
    "ide_pio_read4_16",
    "ide_pio_read4_32_fused",
    "ide_pio_read4_32",
    "ide_dma_read4",
    "ne2000_tx_mtu_fused",
    "ne2000_tx_mtu",
    "ne2000_tx_short_fused",
    "ne2000_tx_short",
    "pm2_fill24_fused",
    "pm2_fill24",
    "pm2_fill32_fused",
    "pm2_fill32",
    "pm2_copy32",
];
const FUSED: [usize; 6] = [0, 2, 5, 7, 9, 11];
const UNFUSED: [usize; 6] = [1, 3, 6, 8, 10, 12];

/// Rounds in the deterministic cost pass.
const COST_ROUNDS: u64 = 32;

/// The disk image every IDE rig holds: a function of the seed's salt,
/// the sector and the byte, so a read can be checked without the disk.
fn pattern(salt: u64, sector: usize, byte: usize) -> u8 {
    ((sector * 31 + byte * 7 + salt as usize) ^ (byte >> 3)) as u8
}

struct Ide {
    bus: Bus,
    mem: SharedMem,
}

fn ide_bus(salt: u64) -> Ide {
    let mem = SharedMem::new(16 << 10);
    let mut ctl = IdeController::new(DISK_SECTORS, IrqLine::new(), mem.clone());
    for (i, b) in ctl.disk_mut().iter_mut().enumerate() {
        *b = pattern(salt, i / SECTOR_SIZE, i % SECTOR_SIZE);
    }
    let (boxed, _) = shim(ctl);
    let mut bus = Bus::default();
    bus.attach_io(boxed, IDE_BASE, 16);
    Ide { bus, mem }
}

fn ne_bus() -> (Bus, Rc<RefCell<Ne2000>>) {
    let (boxed, dev) = shim(Ne2000::new([2, 0, 0, 0, 0, 1], IrqLine::new()));
    let mut bus = Bus::default();
    bus.attach_io(boxed, NE2K_BASE, 18);
    (bus, dev)
}

fn pm_bus() -> (Bus, Rc<RefCell<Permedia2>>) {
    let (boxed, dev) = shim(Permedia2::new(PM2_W, PM2_H));
    let mut bus = Bus::default();
    bus.attach_mem(boxed, PM2_BASE, 4096);
    (bus, dev)
}

#[derive(Clone, Copy)]
struct Rect {
    x: u32,
    y: u32,
    w: u32,
    h: u32,
    /// Fill colour, or the copy source's x.
    color: u32,
    /// The copy source's y.
    sy: u32,
}

/// One round's inputs.
struct Input {
    /// Start sector of each IDE unit (kinds 0..=4).
    lba: [u32; 5],
    mtu: Vec<u8>,
    short: Vec<u8>,
    /// Rectangles of kinds 9..=13.
    rects: [Rect; 5],
}

pub(crate) struct BulkIo {
    salt: u64,
    plant_fault: bool,
    seed: u64,
    ide: Ide,
    ide_drv: DevilIde,
    ide_twin: Ide,
    ide_hand: HandIde,
    ne: (Bus, Rc<RefCell<Ne2000>>),
    ne_drv: DevilNe2000,
    ne_twin: (Bus, Rc<RefCell<Ne2000>>),
    ne_hand: HandNe2000,
    /// 24- and 32-bit Permedia2 rigs and their twins.
    pm: [(Bus, Rc<RefCell<Permedia2>>); 2],
    pm_drv: [DevilPm2; 2],
    pm_twin: [(Bus, Rc<RefCell<Permedia2>>); 2],
    pm_hand: [HandPm2; 2],
    /// Output of each IDE unit and its twin in the current round.
    reads: Vec<(Vec<u8>, Vec<u8>)>,
}

impl BulkIo {
    fn build(seed: u64, plant_fault: bool) -> (BulkIo, f64) {
        let t0 = Instant::now();
        let ide_ir = specs::shared_ir(specs::IDE);
        let piix4_ir = specs::shared_ir(specs::PIIX4);
        let ne_ir = specs::shared_ir(specs::NE2000);
        let pm_ir = specs::shared_ir(specs::PERMEDIA2);
        let compile_s = t0.elapsed().as_secs_f64();

        let salt = seed & 0xff;
        let ide = ide_bus(salt);
        let ide_drv = DevilIde::with_instances(
            IDE_BASE,
            DeviceInstance::with_shared_ir(ide_ir),
            DeviceInstance::with_shared_ir(piix4_ir),
        );
        let mut ne = ne_bus();
        let mut ne_drv =
            DevilNe2000::with_instance(NE2K_BASE, DeviceInstance::with_shared_ir(ne_ir));
        ne_drv.start(&mut ne.0);
        let mut ne_twin = ne_bus();
        let ne_hand = HandNe2000::new(NE2K_BASE);
        ne_hand.start(&mut ne_twin.0);
        let depths = [Depth::Bpp24, Depth::Bpp32];
        let mut pm = [pm_bus(), pm_bus()];
        let mut pm_drv = depths.map(|d| {
            DevilPm2::with_instance(PM2_BASE, d, DeviceInstance::with_shared_ir(pm_ir.clone()))
        });
        let mut pm_twin = [pm_bus(), pm_bus()];
        let mut pm_hand = depths.map(|d| HandPm2::new(PM2_BASE, d));
        for i in 0..2 {
            pm_drv[i].set_depth(&mut pm[i].0);
            pm_hand[i].set_depth(&mut pm_twin[i].0);
        }
        let b = BulkIo {
            salt,
            plant_fault,
            seed,
            ide,
            ide_drv,
            ide_twin: ide_bus(salt),
            ide_hand: HandIde::new(IDE_BASE),
            ne,
            ne_drv,
            ne_twin,
            ne_hand,
            pm,
            pm_drv,
            pm_twin,
            pm_hand,
            reads: Vec::with_capacity(5),
        };
        (b, compile_s)
    }

    /// Round `r`'s inputs: entry `r % INPUT_POOL` of a pool drawn from
    /// the seed, so that a run of any length past the first cycle has
    /// seen the same inputs (and reaches the same peak heap). Rectangle
    /// sizes come from a stream that ignores the seed: they set how much
    /// the Permedia2 engine draws and how often its FIFO fills, so every
    /// seed does the same work and only places and colours it.
    fn input(&self, r: u64) -> Input {
        let rng = &mut Rng::for_instance(self.seed, r % INPUT_POOL);
        let sizes = &mut Rng::for_instance(0, r % INPUT_POOL);
        let max_lba = DISK_SECTORS - u64::from(READ_SECTORS);
        let lba = [0; 5].map(|_: u32| rng.below(max_lba + 1) as u32);
        let frame = |len: usize, rng: &mut Rng| {
            let s = rng.next_u64();
            let mut f: Vec<u8> = (0..len).map(|i| (s >> (i % 8 * 8)) as u8 ^ i as u8).collect();
            f[..6].fill(0xff);
            f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
            f
        };
        let mtu = frame(MTU_FRAME, rng);
        let short = frame(SHORT_FRAME, rng);
        let rects = [0; 5].map(|_: u32| {
            let w = 4 + sizes.below(61) as u32;
            let h = 4 + sizes.below(29) as u32;
            Rect {
                x: rng.below(u64::from(PM2_W - w)) as u32,
                y: rng.below(u64::from(PM2_H - h)) as u32,
                w,
                h,
                color: rng.next_u64() as u32,
                sy: rng.below(u64::from(PM2_H - h)) as u32,
            }
        });
        Input { lba, mtu, short, rects }
    }

    /// Runs Devil unit `kind`; IDE reads return their data.
    fn unit(&mut self, kind: usize, inp: &Input) -> Option<Vec<u8>> {
        let pio = |io32| PioConfig { sectors_per_irq: 1, io32, moves: PioMove::Block };
        let bus = &mut self.ide.bus;
        let lba = inp.lba.get(kind).copied().unwrap_or(0);
        match kind {
            0 => Some(self.ide_drv.read_pio_fused(bus, lba, READ_SECTORS, pio(false))),
            1 => Some(self.ide_drv.read_pio(bus, lba, READ_SECTORS, pio(false))),
            2 => Some(self.ide_drv.read_pio_fused(bus, lba, READ_SECTORS, pio(true))),
            3 => Some(self.ide_drv.read_pio(bus, lba, READ_SECTORS, pio(true))),
            4 => Some(self.ide_drv.read_dma(bus, &self.ide.mem, lba, READ_SECTORS, PRD)),
            5 => {
                self.ne_drv.send_fused(&mut self.ne.0, &inp.mtu);
                None
            }
            6 => {
                self.ne_drv.send(&mut self.ne.0, &inp.mtu);
                None
            }
            7 => {
                self.ne_drv.send_fused(&mut self.ne.0, &inp.short);
                None
            }
            8 => {
                self.ne_drv.send(&mut self.ne.0, &inp.short);
                None
            }
            _ => {
                let r = inp.rects[kind - 9];
                let i = usize::from(kind >= 11);
                let (drv, bus) = (&mut self.pm_drv[i], &mut self.pm[i].0);
                match kind {
                    9 | 11 => drv.fill_rect_fused(bus, r.x, r.y, r.w, r.h, r.color),
                    10 | 12 => drv.fill_rect(bus, r.x, r.y, r.w, r.h, r.color),
                    _ => drv.copy_rect(bus, r.color % (PM2_W - r.w), r.sy, r.x, r.y, r.w, r.h),
                }
                None
            }
        }
    }

    /// Runs the hand-written twin of unit `kind`.
    fn hand(&mut self, kind: usize, inp: &Input) -> Option<Vec<u8>> {
        let pio = |io32| PioConfig { sectors_per_irq: 1, io32, moves: PioMove::Block };
        let bus = &mut self.ide_twin.bus;
        let lba = inp.lba.get(kind).copied().unwrap_or(0);
        match kind {
            0 | 1 => Some(self.ide_hand.read_pio(bus, lba, READ_SECTORS, pio(false))),
            2 | 3 => Some(self.ide_hand.read_pio(bus, lba, READ_SECTORS, pio(true))),
            4 => Some(self.ide_hand.read_dma(bus, &self.ide_twin.mem, lba, READ_SECTORS, PRD)),
            5 | 6 => {
                self.ne_hand.send(&mut self.ne_twin.0, &inp.mtu);
                None
            }
            7 | 8 => {
                self.ne_hand.send(&mut self.ne_twin.0, &inp.short);
                None
            }
            _ => {
                let r = inp.rects[kind - 9];
                let i = usize::from(kind >= 11);
                let (drv, bus) = (&mut self.pm_hand[i], &mut self.pm_twin[i].0);
                if kind == 13 {
                    drv.copy_rect(bus, r.color % (PM2_W - r.w), r.sy, r.x, r.y, r.w, r.h);
                } else {
                    drv.fill_rect(bus, r.x, r.y, r.w, r.h, r.color);
                }
                None
            }
        }
    }

    /// Checks a round: IDE data against the disk pattern (and the
    /// busmaster's shared memory), NE2000 frames and Permedia2 pixels
    /// against the hand-written driver's twin rig.
    fn check(&mut self, inp: &Input) -> u32 {
        let salt = if self.plant_fault { self.salt + 1 } else { self.salt };
        let expect = |lba: u32, data: &[u8]| {
            data.len() == READ_SECTORS as usize * SECTOR_SIZE
                && data.iter().enumerate().all(|(i, &b)| {
                    b == pattern(salt, lba as usize + i / SECTOR_SIZE, i % SECTOR_SIZE)
                })
        };
        let mut failed = 0;
        for (k, (devil, hand)) in self.reads.iter().enumerate() {
            let mut ok = expect(inp.lba[k], devil) && expect(inp.lba[k], hand);
            if k == 4 {
                let mut mem = vec![0; devil.len()];
                self.ide.mem.read(PRD as usize, &mut mem);
                ok &= expect(inp.lba[k], &mem);
            }
            failed += u32::from(!ok);
        }
        let want = [&inp.mtu, &inp.mtu, &inp.short, &inp.short];
        {
            let mut devil = self.ne.1.borrow_mut();
            let mut hand = self.ne_twin.1.borrow_mut();
            for (k, w) in want.iter().enumerate() {
                let ok = devil.transmitted.get(k) == Some(w) && hand.transmitted.get(k) == Some(w);
                failed += u32::from(!ok);
            }
            devil.transmitted.clear();
            hand.transmitted.clear();
        }
        // Let both engines drain their FIFOs: the rigs issued different
        // op streams, so their simulated clocks (and pending work) differ.
        // Each tick retires at most one render, so idle until empty.
        for (bus, dev) in self.pm.iter_mut().chain(&mut self.pm_twin) {
            for _ in 0..FIFO_DEPTH {
                if dev.borrow().fifo_space() == FIFO_DEPTH {
                    break;
                }
                bus.idle(PM2_DRAIN_NS);
            }
        }
        for (k, r) in inp.rects.iter().enumerate() {
            let i = usize::from(k >= 2);
            let (devil, hand) = (self.pm[i].1.borrow(), self.pm_twin[i].1.borrow());
            let same = (r.y..r.y + r.h)
                .all(|y| (r.x..r.x + r.w).all(|x| devil.pixel(x, y) == hand.pixel(x, y)));
            let engines = devil.overruns == 0
                && hand.overruns == 0
                && devil.rects_done == hand.rects_done
                && devil.copies_done == hand.copies_done;
            failed += u32::from(!same || !engines);
        }
        failed
    }

    fn snap(&self, kind: usize) -> Snap {
        match kind {
            0..=4 => {
                let (ide, bm) = self.ide_drv.instances();
                Snap::take(&self.ide.bus, &[ide, bm])
            }
            5..=8 => Snap::take(&self.ne.0, &[self.ne_drv.instance()]),
            _ => {
                let i = usize::from(kind >= 11);
                Snap::take(&self.pm[i].0, &[self.pm_drv[i].instance()])
            }
        }
    }

    fn cost_pass(&mut self) -> CostAcc {
        let mut acc = CostAcc::new(KINDS);
        for r in 0..COST_ROUNDS {
            let inp = self.input(r);
            for kind in 0..KINDS.len() {
                let before = self.snap(kind);
                let _ = self.unit(kind, &inp);
                acc.add(kind, &before, &self.snap(kind));
            }
            self.ne.1.borrow_mut().transmitted.clear();
        }
        acc
    }
}

impl Rounds for BulkIo {
    // A round runs every unit kind once.
    const ROUNDS_PER_SAMPLE: u32 = 1;

    fn round(&mut self, r: u64, traced: bool) -> RoundTimes {
        let inp = self.input(r);
        let mut devil_ns = [0u64; KINDS.len()];
        let mut hand_ns = 0u64;
        self.reads.clear();
        let hand_first = r % 2 == 1;
        for (kind, unit_ns) in devil_ns.iter_mut().enumerate() {
            let mut hand_out = None;
            let mut run_hand = |b: &mut BulkIo| {
                let t = Instant::now();
                hand_out = b.hand(kind, &inp);
                hand_ns += t.elapsed().as_nanos() as u64;
            };
            if hand_first {
                run_hand(self);
            }
            let t = Instant::now();
            let out = if traced {
                trace::unit(|| span(Layer::Driver, || self.unit(kind, &inp)))
            } else {
                self.unit(kind, &inp)
            };
            *unit_ns = t.elapsed().as_nanos() as u64;
            if !hand_first {
                run_hand(self);
            }
            if let (Some(d), Some(h)) = (out, hand_out) {
                self.reads.push((d, h));
            }
        }
        let total: u64 = devil_ns.iter().sum();
        RoundTimes {
            units: KINDS.len() as u32,
            devil_ns: total,
            twin_units: KINDS.len() as u32,
            twin_devil_ns: total,
            hand_ns,
            fused_units: FUSED.len() as u32,
            fused_ns: FUSED.iter().map(|&k| devil_ns[k]).sum(),
            unfused_units: UNFUSED.len() as u32,
            unfused_ns: UNFUSED.iter().map(|&k| devil_ns[k]).sum(),
            failed: self.check(&inp),
        }
    }
}

pub(crate) fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let timed = crate::Timed::new(cfg);
    let (mut bulk, _) = BulkIo::build(cfg.seed, cfg.plant_fault);

    let first = BulkIo::build(cfg.seed, false).0.cost_pass().table();
    let second = BulkIo::build(cfg.seed, false).0.cost_pass().table();
    report.counters_repeat = first == second;
    costs::record(&mut report, first, COST_ROUNDS * KINDS.len() as u64);

    let setup = || crate::timed_setup(|| BulkIo::build(cfg.seed, cfg.plant_fault));
    crate::drive_rounds(cfg, &mut report, timed, &mut bulk, setup);
    report.notes.push(
        "driver_stack = driver + runtime + port + bus, lumped: drivers build their PortMap inside"
            .to_string(),
    );
    report
}
