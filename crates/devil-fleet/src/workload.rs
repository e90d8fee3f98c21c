//! Fleet workloads: one [`FleetInstance`] = one simulated device with
//! its own private [`Bus`], device model, and Devil driver, running a
//! stream of *units* (one driver hot-loop iteration each).
//!
//! Every unit's parameters are drawn from the instance's own RNG
//! stream, so an instance's entire simulated history is a pure function
//! of `(fleet seed, instance id)` — independent of which shard runs it
//! and of what any other instance does. That is what lets the
//! determinism gate compare merged N-shard results against a
//! single-threaded replay bit for bit.

use devices::ide::SECTOR_SIZE;
use devices::{Busmouse, Cs4236b, IdeController, Ne2000, Permedia2, I8237, I8259};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, InstanceSnapshot, MappedPort, PlanStats, PortMap};
use devil_sema::model::VarId;
use drivers::{
    specs, Depth, DevilBusmouse, DevilIde, DevilNe2000, DevilPic8259, DevilPm2, PicConfig,
    PioConfig, PioMove,
};
use hwsim::{Bus, Checkpoint, IrqLine, SharedMem};
use std::sync::Arc;

use crate::rng::Rng;

const BUSMOUSE_BASE: u64 = 0x23c;
const PIC_BASE: u64 = 0x20;
const IDE_BASE: u64 = 0x1f0;
const NE2K_BASE: u64 = 0x300;
const PM2_BASE: u64 = 0xf000_0000;
const DMA_BASE: u64 = 0x0;
const CODEC_BASE: u64 = 0x534;
/// The raw rigs' one-port bindings, lent to every unit's `PortMap`.
const DMA_PORTS: [MappedPort; 1] = [MappedPort::io(DMA_BASE)];
const CODEC_PORTS: [MappedPort; 1] = [MappedPort::io(CODEC_BASE)];

/// Disk size of the per-instance IDE rigs. Small on purpose: a
/// thousand instances must fit comfortably in memory.
const IDE_SECTORS: u64 = 16;
/// DMA target inside the busmaster rig's 16 KiB shared memory.
const DMA_PRD: u32 = 0x1000;
/// Framebuffer of the per-instance Permedia2 (128×64 keeps a thousand
/// instances at ~32 KiB of VRAM each).
const PM2_W: u32 = 128;
const PM2_H: u32 = 64;

/// One driver hot loop from the existing per-driver benchmarks,
/// packaged as a fleet workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The paper's Figure 3 bus-mouse sample loop.
    Figure3,
    /// 8259A ICW initialization storms (guard-split plan variants).
    IcwStorm,
    /// IDE PIO sector reads (word loops and block stubs).
    PioRead,
    /// NE2000 frame transmits through the remote-DMA window.
    NetBurst,
    /// Permedia2 FIFO-paced fill/copy rectangles.
    FifoRect,
    /// 8237A channel programming (flip-flop-serialized 16-bit pairs).
    DmaProgram,
    /// CS4236B indexed and extended-register accesses (gateway
    /// automaton).
    CodecIndex,
    /// IDE busmaster DMA reads through the PIIX4 function.
    BusMasterDma,
}

impl WorkloadKind {
    /// All kinds — one per shipped specification pair.
    pub const ALL: [WorkloadKind; 8] = [
        WorkloadKind::Figure3,
        WorkloadKind::IcwStorm,
        WorkloadKind::PioRead,
        WorkloadKind::NetBurst,
        WorkloadKind::FifoRect,
        WorkloadKind::DmaProgram,
        WorkloadKind::CodecIndex,
        WorkloadKind::BusMasterDma,
    ];

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Figure3 => "figure3",
            WorkloadKind::IcwStorm => "icw_storm",
            WorkloadKind::PioRead => "pio_read",
            WorkloadKind::NetBurst => "net_burst",
            WorkloadKind::FifoRect => "fifo_rect",
            WorkloadKind::DmaProgram => "dma_program",
            WorkloadKind::CodecIndex => "codec_index",
            WorkloadKind::BusMasterDma => "busmaster_dma",
        }
    }
}

/// A named weighted blend of workload kinds.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// The mix name used in benchmark output.
    pub name: &'static str,
    weights: &'static [(WorkloadKind, u32)],
}

impl Mix {
    /// A custom mix.
    pub const fn new(name: &'static str, weights: &'static [(WorkloadKind, u32)]) -> Self {
        Mix { name, weights }
    }

    /// Desktop-ish: mouse samples, irq reprogramming, 2D fills.
    pub const fn interactive() -> Self {
        Mix::new(
            "interactive",
            &[(WorkloadKind::Figure3, 5), (WorkloadKind::IcwStorm, 2), (WorkloadKind::FifoRect, 3)],
        )
    }

    /// Storage-heavy: PIO loops, busmaster DMA, 8237 programming.
    pub const fn storage() -> Self {
        Mix::new(
            "storage",
            &[
                (WorkloadKind::PioRead, 4),
                (WorkloadKind::BusMasterDma, 3),
                (WorkloadKind::DmaProgram, 3),
            ],
        )
    }

    /// Comms-heavy: NIC transmits, codec automata, irq storms.
    pub const fn comms() -> Self {
        Mix::new(
            "comms",
            &[
                (WorkloadKind::NetBurst, 5),
                (WorkloadKind::CodecIndex, 3),
                (WorkloadKind::IcwStorm, 2),
            ],
        )
    }

    /// Every shipped spec with equal weight — the coverage mix the
    /// fleet-wide `general == 0` gate runs on.
    pub const fn all_specs() -> Self {
        Mix::new(
            "all_specs",
            &[
                (WorkloadKind::Figure3, 1),
                (WorkloadKind::IcwStorm, 1),
                (WorkloadKind::PioRead, 1),
                (WorkloadKind::NetBurst, 1),
                (WorkloadKind::FifoRect, 1),
                (WorkloadKind::DmaProgram, 1),
                (WorkloadKind::CodecIndex, 1),
                (WorkloadKind::BusMasterDma, 1),
            ],
        )
    }

    /// Picks a kind from the instance's own stream.
    pub fn pick(&self, rng: &mut Rng) -> WorkloadKind {
        let total: u32 = self.weights.iter().map(|(_, w)| w).sum();
        let mut roll = rng.below(total as u64) as u32;
        for &(kind, w) in self.weights {
            if roll < w {
                return kind;
            }
            roll -= w;
        }
        unreachable!("weights sum covers every roll")
    }
}

/// The eight spec IRs compiled once and shared by every instance in
/// the fleet — workers on other threads clone the `Arc`s, never the
/// plan arenas.
pub struct SharedIrs {
    busmouse: Arc<DeviceIr>,
    pic8259: Arc<DeviceIr>,
    ide: Arc<DeviceIr>,
    piix4: Arc<DeviceIr>,
    ne2000: Arc<DeviceIr>,
    permedia2: Arc<DeviceIr>,
    dma8237: Arc<DeviceIr>,
    cs4236b: Arc<DeviceIr>,
}

impl SharedIrs {
    /// Compiles the embedded spec library once.
    pub fn compile() -> Self {
        SharedIrs {
            busmouse: specs::shared_ir(specs::BUSMOUSE),
            pic8259: specs::shared_ir(specs::PIC8259),
            ide: specs::shared_ir(specs::IDE),
            piix4: specs::shared_ir(specs::PIIX4),
            ne2000: specs::shared_ir(specs::NE2000),
            permedia2: specs::shared_ir(specs::PERMEDIA2),
            dma8237: specs::shared_ir(specs::DMA8237),
            cs4236b: specs::shared_ir(specs::CS4236B),
        }
    }
}

/// Resolved-once variable ids for the raw-instance 8237A workload.
struct DmaIds {
    addr: [VarId; 4],
    count: [VarId; 4],
    mode: VarId,
    single_mask: VarId,
    tc_status: VarId,
    master_clear: VarId,
}

/// Resolved-once variable ids for the raw-instance CS4236B workload.
struct CodecIds {
    id: VarId,
    xd: VarId,
}

/// The per-kind device + driver rig.
enum Rig {
    Figure3 { drv: DevilBusmouse },
    IcwStorm { drv: DevilPic8259 },
    PioRead { drv: DevilIde },
    NetBurst { drv: DevilNe2000, frame: [u8; 64] },
    FifoRect { drv: DevilPm2 },
    DmaProgram { dev: DeviceInstance, ids: DmaIds },
    CodecIndex { dev: DeviceInstance, ids: CodecIds },
    BusMasterDma { drv: DevilIde, mem: SharedMem },
}

/// One simulated device instance: private bus, device model, driver,
/// RNG stream, and a ledger checkpoint cursor.
///
/// Not `Send` (hwsim device models use `Rc` internally by design), so
/// shard workers *build* their instances locally from the shared IRs;
/// only [`InstanceFinal`](crate::InstanceFinal) results cross threads.
pub struct FleetInstance {
    id: u32,
    kind: WorkloadKind,
    rng: Rng,
    bus: Bus,
    cp: Checkpoint,
    rig: Rig,
    units: u64,
}

fn ide_rig(id: u32, irs: &SharedIrs, mem_bytes: usize) -> (Bus, SharedMem, DevilIde) {
    let irq = IrqLine::new();
    let mem = SharedMem::new(mem_bytes);
    let mut ctl = IdeController::new(IDE_SECTORS, irq, mem.clone());
    for s in 0..IDE_SECTORS as usize {
        for w in 0..SECTOR_SIZE {
            ctl.disk_mut()[s * SECTOR_SIZE + w] = ((s * 7 + w + id as usize) & 0xff) as u8;
        }
    }
    let mut bus = Bus::default();
    bus.enable_trace(true);
    bus.attach_io(Box::new(ctl), IDE_BASE, 16);
    let drv = DevilIde::with_instances(
        IDE_BASE,
        DeviceInstance::with_shared_ir(irs.ide.clone()),
        DeviceInstance::with_shared_ir(irs.piix4.clone()),
    );
    (bus, mem, drv)
}

impl FleetInstance {
    /// Spawns instance `id` of the given kind. All construction
    /// randomness (initial mouse sample, MAC, pixel depth, …) comes
    /// from the instance's own stream.
    pub fn spawn(id: u32, kind: WorkloadKind, irs: &SharedIrs, mut rng: Rng) -> Self {
        let mut bus = Bus::default();
        // Retained mode: a drain hands over every leaf since the last
        // one, including any a watermark fold already put into the
        // log's tree; the drain cadence bounds what is ever held at
        // once.
        bus.enable_trace(true);
        let rig = match kind {
            WorkloadKind::Figure3 => {
                let mut dev = Busmouse::new(IrqLine::new());
                dev.move_by(rng.next_u64() as i8, rng.next_u64() as i8);
                dev.set_buttons(rng.below(8) as u8);
                bus.attach_io(Box::new(dev), BUSMOUSE_BASE, 4);
                let inst = DeviceInstance::with_shared_ir(irs.busmouse.clone());
                Rig::Figure3 { drv: DevilBusmouse::with_instance(BUSMOUSE_BASE, inst) }
            }
            WorkloadKind::IcwStorm => {
                bus.attach_io(Box::new(I8259::new(IrqLine::new())), PIC_BASE, 2);
                let inst = DeviceInstance::with_shared_ir(irs.pic8259.clone());
                Rig::IcwStorm { drv: DevilPic8259::with_instance(PIC_BASE, inst) }
            }
            WorkloadKind::PioRead => {
                let (b, _mem, drv) = ide_rig(id, irs, 4096);
                bus = b;
                Rig::PioRead { drv }
            }
            WorkloadKind::NetBurst => {
                let mac = [2, 0, (id >> 8) as u8, id as u8, 0, 1];
                bus.attach_io(Box::new(Ne2000::new(mac, IrqLine::new())), NE2K_BASE, 18);
                let inst = DeviceInstance::with_shared_ir(irs.ne2000.clone());
                let mut drv = DevilNe2000::with_instance(NE2K_BASE, inst);
                drv.start(&mut bus);
                let mut frame = [0u8; 64];
                frame[..6].copy_from_slice(&[0xff; 6]);
                frame[6..12].copy_from_slice(&mac);
                Rig::NetBurst { drv, frame }
            }
            WorkloadKind::FifoRect => {
                bus.attach_mem(Box::new(Permedia2::new(PM2_W, PM2_H)), PM2_BASE, 4096);
                let depth =
                    [Depth::Bpp8, Depth::Bpp16, Depth::Bpp24, Depth::Bpp32][rng.below(4) as usize];
                let inst = DeviceInstance::with_shared_ir(irs.permedia2.clone());
                let mut drv = DevilPm2::with_instance(PM2_BASE, depth, inst);
                drv.set_depth(&mut bus);
                Rig::FifoRect { drv }
            }
            WorkloadKind::DmaProgram => {
                bus.attach_io(Box::new(I8237::new(SharedMem::new(1024))), DMA_BASE, 16);
                let dev = DeviceInstance::with_shared_ir(irs.dma8237.clone());
                let v = |n: &str| dev.var_id(n).expect("dma8237 spec exports its registers");
                let ids = DmaIds {
                    addr: [v("addr0"), v("addr1"), v("addr2"), v("addr3")],
                    count: [v("count0"), v("count1"), v("count2"), v("count3")],
                    mode: v("mode"),
                    single_mask: v("single_mask"),
                    tc_status: v("tc_status"),
                    master_clear: v("master_clear"),
                };
                Rig::DmaProgram { dev, ids }
            }
            WorkloadKind::CodecIndex => {
                bus.attach_io(Box::new(Cs4236b::new()), CODEC_BASE, 2);
                let dev = DeviceInstance::with_shared_ir(irs.cs4236b.clone());
                let ids = CodecIds {
                    id: dev.var_id("ID").expect("cs4236b spec exports ID"),
                    xd: dev.var_id("XD").expect("cs4236b spec exports XD"),
                };
                Rig::CodecIndex { dev, ids }
            }
            WorkloadKind::BusMasterDma => {
                let (b, mem, drv) = ide_rig(id, irs, 16 << 10);
                bus = b;
                Rig::BusMasterDma { drv, mem }
            }
        };
        FleetInstance { id, kind, rng, bus, cp: Checkpoint::new(), rig, units: 0 }
    }

    /// The instance id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The workload kind.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Units completed so far.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// The instance's private bus clock, in simulated nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.bus.now_ns()
    }

    /// The next interarrival gap for this instance's unit stream.
    pub fn next_gap_ns(&mut self, mean_ns: u64) -> u64 {
        self.rng.exp_ns(mean_ns)
    }

    /// Drains the ledger delta accumulated since the last checkpoint.
    pub fn drain_checkpoint(&mut self) -> hwsim::Ledger {
        self.cp.drain(&self.bus.ledger())
    }

    /// Drains the authenticated trace accumulated since the last
    /// checkpoint as a segment of leaf hashes, ready for
    /// [`hwsim::MmrForest::append_segment`].
    pub fn drain_trace_segment(&mut self) -> hwsim::Segment {
        self.bus.drain_trace_segment().expect("fleet buses always trace")
    }

    /// Drains the authenticated trace accumulated since the last
    /// checkpoint straight into this instance's tree of `forest`
    /// ([`hwsim::Bus::drain_trace_into`]).
    pub fn drain_trace_into(&mut self, forest: &mut hwsim::MmrForest) {
        self.bus.drain_trace_into(forest, u64::from(self.id)).expect("fleet buses always trace");
    }

    /// Runs one workload unit, drawing its parameters from the
    /// instance's stream. Kinds with a shipped superplan (ICW storms,
    /// PIO reads, NIC transmits, fill rectangles) flip per unit between
    /// the fused one-guard dispatch and the unfused plan-by-plan path,
    /// so the determinism gate covers both pipelines interleaved.
    /// Returns the simulated nanoseconds the unit's bus activity took.
    pub fn run_unit(&mut self) -> u64 {
        let t0 = self.bus.now_ns();
        let (bus, rng) = (&mut self.bus, &mut self.rng);
        match &mut self.rig {
            Rig::Figure3 { drv } => {
                if rng.chance(1, 8) {
                    let enable = rng.chance(1, 2);
                    drv.set_irq(bus, enable);
                }
                let _ = drv.read_state(bus);
            }
            Rig::IcwStorm { drv } => {
                let cfg = PicConfig {
                    single: rng.chance(1, 2),
                    with_icw4: rng.chance(1, 2),
                    vector_base: (rng.below(32) << 3) as u8,
                    cascade_map: 0x04,
                    x86: rng.chance(1, 2),
                    auto_eoi: rng.chance(1, 4),
                    irq_mask: rng.next_u64() as u8,
                };
                if rng.chance(1, 2) {
                    drv.init_fused(bus, cfg);
                } else {
                    drv.init(bus, cfg);
                }
            }
            Rig::PioRead { drv } => {
                let lba = rng.below(IDE_SECTORS) as u32;
                let cfg = PioConfig {
                    sectors_per_irq: 1,
                    io32: rng.chance(1, 2),
                    moves: if rng.chance(1, 4) { PioMove::Loop } else { PioMove::Block },
                };
                if rng.chance(1, 2) {
                    let _ = drv.read_pio_fused(bus, lba, 1, cfg);
                } else {
                    let _ = drv.read_pio(bus, lba, 1, cfg);
                }
            }
            Rig::NetBurst { drv, frame } => {
                for b in &mut frame[12..20] {
                    *b = rng.next_u64() as u8;
                }
                let len = 20 + rng.below(44) as usize;
                if rng.chance(1, 2) {
                    drv.send_fused(bus, &frame[..len]);
                } else {
                    drv.send(bus, &frame[..len]);
                }
            }
            Rig::FifoRect { drv } => {
                let x = rng.below((PM2_W - 8) as u64) as u32;
                let y = rng.below((PM2_H - 8) as u64) as u32;
                let w = 1 + rng.below(16) as u32;
                let h = 1 + rng.below(8) as u32;
                if rng.chance(1, 4) {
                    let dx = rng.below((PM2_W - 8) as u64) as u32;
                    let dy = rng.below((PM2_H - 8) as u64) as u32;
                    drv.copy_rect(bus, x, y, dx, dy, w, h);
                } else {
                    let color = rng.next_u64() as u32;
                    if rng.chance(1, 2) {
                        drv.fill_rect_fused(bus, x, y, w, h, color);
                    } else {
                        drv.fill_rect(bus, x, y, w, h, color);
                    }
                }
            }
            Rig::DmaProgram { dev, ids } => {
                let ch = rng.below(4) as usize;
                let mut map = PortMap::new(bus, &DMA_PORTS[..]);
                // Mode: random high bits, channel select in bits 1..0.
                let mode = (rng.next_u64() & 0xfc) | ch as u64;
                dev.write_id(&mut map, ids.mode, &[], mode).unwrap();
                // Mask the channel, program the 16-bit pair (the
                // flip-flop pre-action serializes low;high), unmask.
                dev.write_id(&mut map, ids.single_mask, &[], 0b100 | ch as u64).unwrap();
                dev.write_id(&mut map, ids.addr[ch], &[], rng.below(1 << 16)).unwrap();
                dev.write_id(&mut map, ids.count[ch], &[], rng.below(256)).unwrap();
                dev.write_id(&mut map, ids.single_mask, &[], ch as u64).unwrap();
                let _ = dev.read_id(&mut map, ids.tc_status, &[]).unwrap();
                if rng.chance(1, 16) {
                    dev.write_id(&mut map, ids.master_clear, &[], 1).unwrap();
                }
            }
            Rig::CodecIndex { dev, ids } => {
                // I23 is the extended-register gateway; direct data
                // writes go to the other 31 indexed registers.
                let pick_plain = |rng: &mut Rng| {
                    let r = rng.below(31);
                    if r >= 23 {
                        r + 1
                    } else {
                        r
                    }
                };
                let i = pick_plain(rng);
                let j = pick_plain(rng);
                let mut map = PortMap::new(bus, &CODEC_PORTS[..]);
                dev.write_id(&mut map, ids.id, &[i], rng.below(256)).unwrap();
                let _ = dev.read_id(&mut map, ids.id, &[j]).unwrap();
                if rng.chance(1, 4) {
                    let r = rng.below(19);
                    let x = if r == 18 { 25 } else { r };
                    dev.write_id(&mut map, ids.xd, &[x], rng.below(256)).unwrap();
                    let _ = dev.read_id(&mut map, ids.xd, &[x]).unwrap();
                }
            }
            Rig::BusMasterDma { drv, mem } => {
                let count = 1 + rng.below(2) as u32;
                let lba = rng.below(IDE_SECTORS - count as u64) as u32;
                let _ = drv.read_dma(bus, mem, lba, count, DMA_PRD);
            }
        }
        self.units += 1;
        let service = (self.bus.now_ns() - t0).round() as u64;
        service.max(1)
    }

    /// Summed plan-dispatch counters of every interpreter instance in
    /// the rig.
    pub fn plan_stats(&self) -> PlanStats {
        match &self.rig {
            Rig::Figure3 { drv } => drv.plan_stats(),
            Rig::IcwStorm { drv } => drv.plan_stats(),
            Rig::PioRead { drv } | Rig::BusMasterDma { drv, .. } => {
                drv.ide_plan_stats() + drv.bm_plan_stats()
            }
            Rig::NetBurst { drv, .. } => drv.plan_stats(),
            Rig::FifoRect { drv } => drv.plan_stats(),
            Rig::DmaProgram { dev, .. } | Rig::CodecIndex { dev, .. } => dev.plan_stats(),
        }
    }

    /// Snapshots of every interpreter instance in the rig (one for
    /// most rigs, two for IDE which pairs a task file with the PIIX4
    /// busmaster function).
    pub fn snapshots(&self) -> Vec<InstanceSnapshot> {
        match &self.rig {
            Rig::Figure3 { drv } => vec![drv.instance().snapshot()],
            Rig::IcwStorm { drv } => vec![drv.instance().snapshot()],
            Rig::PioRead { drv } | Rig::BusMasterDma { drv, .. } => {
                let (ide, bm) = drv.instances();
                vec![ide.snapshot(), bm.snapshot()]
            }
            Rig::NetBurst { drv, .. } => vec![drv.instance().snapshot()],
            Rig::FifoRect { drv } => vec![drv.instance().snapshot()],
            Rig::DmaProgram { dev, .. } | Rig::CodecIndex { dev, .. } => vec![dev.snapshot()],
        }
    }

    /// The instance's full bus ledger.
    pub fn ledger(&self) -> hwsim::Ledger {
        self.bus.ledger()
    }
}
