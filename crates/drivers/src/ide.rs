//! IDE drivers: hand-crafted vs Devil-based, in every mode Table 2
//! sweeps — UDMA, and PIO with 16/32-bit I/O, 1/8/16 sectors per
//! interrupt, C-loop or block-transfer data moves.

use devices::ide::{bm, cmd, reg, status, SECTOR_SIZE};
use devil_runtime::{DeviceInstance, MappedPort, PortMap};
use hwsim::{Bus, SharedMem};

/// How PIO data words are moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PioMove {
    /// One `inw`/`inl` per word (a C loop over a single read).
    Loop,
    /// One string instruction per block (`rep insw` / block stubs).
    Block,
}

/// A PIO mode configuration (one Table 2 row).
#[derive(Clone, Copy, Debug)]
pub struct PioConfig {
    /// Sectors transferred per interrupt (1, 8 or 16).
    pub sectors_per_irq: u32,
    /// 32-bit data-port accesses instead of 16-bit.
    pub io32: bool,
    /// Data movement strategy.
    pub moves: PioMove,
}

/// The hand-crafted driver (original Linux style).
pub struct HandIde {
    base: u64,
}

impl HandIde {
    /// Creates a driver for a controller at I/O `base`.
    pub fn new(base: u64) -> Self {
        HandIde { base }
    }

    /// Programs the multiple-sector mode (setup, done once).
    pub fn set_multiple(&self, bus: &mut Bus, sectors: u32) {
        bus.outb(self.base + reg::COUNT, sectors as u8);
        bus.outb(self.base + reg::COMMAND, cmd::SET_MULTIPLE);
        bus.inb(self.base + reg::COMMAND); // ack irq
    }

    /// Reads `count` sectors starting at `lba` in PIO mode.
    pub fn read_pio(&self, bus: &mut Bus, lba: u32, count: u32, cfg: PioConfig) -> Vec<u8> {
        // Command setup: 1 readiness poll + 6 writes = the paper's 7.
        let st = bus.inb(self.base + reg::COMMAND);
        assert_ne!(st & status::DRDY, 0, "device not ready");
        bus.outb(self.base + reg::COUNT, count as u8);
        bus.outb(self.base + reg::LBA0, lba as u8);
        bus.outb(self.base + reg::LBA1, (lba >> 8) as u8);
        bus.outb(self.base + reg::LBA2, (lba >> 16) as u8);
        bus.outb(self.base + reg::DEVICE, 0x40 | ((lba >> 24) as u8 & 0x0f));
        let op = if cfg.sectors_per_irq > 1 { cmd::READ_MULTIPLE } else { cmd::READ_SECTORS };
        bus.outb(self.base + reg::COMMAND, op);

        let mut out = Vec::with_capacity(count as usize * SECTOR_SIZE);
        // One block buffer for every interrupt, as a C driver's stack
        // array would be.
        let mut buf = Vec::new();
        let mut remaining = count;
        while remaining > 0 {
            // One status read per interrupt: acknowledges and checks DRQ.
            let st = bus.inb(self.base + reg::COMMAND);
            assert_ne!(st & status::DRQ, 0, "device must expose data");
            let block = remaining.min(cfg.sectors_per_irq);
            let bytes = block as usize * SECTOR_SIZE;
            if cfg.io32 {
                let words = bytes / 4;
                match cfg.moves {
                    PioMove::Loop => {
                        for _ in 0..words {
                            let v = bus.inl(self.base + reg::DATA);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    PioMove::Block => {
                        buf.resize(words, 0);
                        bus.ins(self.base + reg::DATA, hwsim::Width::W32, &mut buf);
                        for &v in &buf {
                            out.extend_from_slice(&(v as u32).to_le_bytes());
                        }
                    }
                }
            } else {
                let words = bytes / 2;
                match cfg.moves {
                    PioMove::Loop => {
                        for _ in 0..words {
                            let v = bus.inw(self.base + reg::DATA);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    PioMove::Block => {
                        buf.resize(words, 0);
                        bus.ins(self.base + reg::DATA, hwsim::Width::W16, &mut buf);
                        for &v in &buf {
                            out.extend_from_slice(&(v as u16).to_le_bytes());
                        }
                    }
                }
            }
            remaining -= block;
        }
        out
    }

    /// Reads `count` sectors via the busmaster (UDMA path).
    pub fn read_dma(
        &self,
        bus: &mut Bus,
        mem: &SharedMem,
        lba: u32,
        count: u32,
        prd: u32,
    ) -> Vec<u8> {
        let bmb = self.base + 8;
        // Task file: 6 writes.
        bus.outb(self.base + reg::COUNT, count as u8);
        bus.outb(self.base + reg::LBA0, lba as u8);
        bus.outb(self.base + reg::LBA1, (lba >> 8) as u8);
        bus.outb(self.base + reg::LBA2, (lba >> 16) as u8);
        bus.outb(self.base + reg::DEVICE, 0x40 | ((lba >> 24) as u8 & 0x0f));
        bus.outb(self.base + reg::COMMAND, cmd::READ_DMA);
        // Busmaster: PRD, start; then completion poll and cleanup.
        bus.outl(bmb + bm::PRD, prd);
        bus.outb(bmb + bm::CMD, 0x09);
        loop {
            let st = bus.inb(bmb + bm::STATUS);
            if st & 0x04 != 0 {
                break;
            }
            bus.idle(1_000.0);
        }
        bus.inb(self.base + reg::COMMAND); // ack device irq
        bus.outb(bmb + bm::STATUS, 0x06); // clear busmaster irq
        bus.outb(bmb + bm::CMD, 0x00); // stop engine
        let mut out = vec![0u8; count as usize * SECTOR_SIZE];
        mem.read(prd as usize, &mut out);
        out
    }
}

/// The Devil-based driver: every device interaction goes through
/// compiled-specification stubs.
pub struct DevilIde {
    ide: DeviceInstance,
    bm: DeviceInstance,
    /// Devil ports of `ide`: data (16-bit), data32 (32-bit view), cmd
    /// block, all on the same physical base.
    ide_ports: [MappedPort; 3],
    /// Devil ports of `bm`: both on the busmaster block at base + 8.
    bm_ports: [MappedPort; 2],
    /// The data words of one interrupt's block move, kept across calls.
    words: Vec<u64>,
    /// Resolved-once id of the 16-bit data variable (the per-word PIO
    /// loop is the driver's hottest path).
    data16: devil_sema::model::VarId,
    /// Resolved-once id of the 32-bit data variable.
    data32: devil_sema::model::VarId,
    /// Resolved-once ids of the per-interrupt status variables: the
    /// poll loop reads them through precompiled plans, no name lookups.
    drq: devil_sema::model::VarId,
    err: devil_sema::model::VarId,
    bsy: devil_sema::model::VarId,
    /// Resolved-once ids of the piix4ide busmaster variables: the DMA
    /// setup/poll/teardown path runs on plans with no name lookups.
    prd_addr: devil_sema::model::VarId,
    bm_dir: devil_sema::model::VarId,
    bm_start: devil_sema::model::VarId,
    bm_intr: devil_sema::model::VarId,
    /// `bm_dir`'s TO_MEMORY symbol value, resolved once.
    bm_to_memory: u64,
    /// Resolved-once superplan ids of the fused per-interrupt PIO
    /// bodies (status checks + data burst in one guard evaluation).
    sp_pio16: usize,
    sp_pio32: usize,
}

impl DevilIde {
    /// Compiles the embedded `ide` and `piix4ide` specifications.
    pub fn new(base: u64) -> Self {
        Self::with_instances(
            base,
            crate::specs::instance(crate::specs::IDE),
            crate::specs::instance(crate::specs::PIIX4),
        )
    }

    /// Binds already-built `ide` and `piix4ide` interpreter instances at
    /// `base` — the fleet-spawning path, where one shared IR per spec
    /// backs many drivers.
    pub fn with_instances(base: u64, ide: DeviceInstance, bm: DeviceInstance) -> Self {
        let data16 = ide.var_id("Ide_data").expect("spec exports Ide_data");
        let data32 = ide.var_id("Ide_data32").expect("spec exports Ide_data32");
        let drq = ide.var_id("drq").expect("spec exports drq");
        let err = ide.var_id("err").expect("spec exports err");
        let bsy = ide.var_id("bsy").expect("spec exports bsy");
        let prd_addr = bm.var_id("prd_addr").expect("spec exports prd_addr");
        let bm_dir = bm.var_id("bm_dir").expect("spec exports bm_dir");
        let bm_start = bm.var_id("bm_start").expect("spec exports bm_start");
        let bm_intr = bm.var_id("bm_intr").expect("spec exports bm_intr");
        let bm_to_memory = bm.sym_value("bm_dir", "TO_MEMORY").expect("spec exports TO_MEMORY");
        let sp_pio16 = ide.ir().superplan_id("pio_irq16").expect("ide ships pio_irq16");
        let sp_pio32 = ide.ir().superplan_id("pio_irq32").expect("ide ships pio_irq32");
        DevilIde {
            ide,
            bm,
            ide_ports: [MappedPort::io(base); 3],
            bm_ports: [MappedPort::io(base + 8); 2],
            words: Vec::new(),
            data16,
            data32,
            drq,
            err,
            bsy,
            prd_addr,
            bm_dir,
            bm_start,
            bm_intr,
            bm_to_memory,
            sp_pio16,
            sp_pio32,
        }
    }

    /// Enables debug-mode run-time checks on both interfaces.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.ide.set_debug_checks(on);
        self.bm.set_debug_checks(on);
    }

    /// Plan-dispatch counters of the piix4ide busmaster interface (the
    /// UDMA setup/poll/teardown must run on precompiled plans).
    pub fn bm_plan_stats(&self) -> devil_runtime::PlanStats {
        self.bm.plan_stats()
    }

    /// Plan-dispatch counters of the IDE task-file interface.
    pub fn ide_plan_stats(&self) -> devil_runtime::PlanStats {
        self.ide.plan_stats()
    }

    /// The underlying interpreter instances, `(ide, piix4ide)` (fleet
    /// snapshotting).
    pub fn instances(&self) -> (&DeviceInstance, &DeviceInstance) {
        (&self.ide, &self.bm)
    }

    /// Programs the multiple-sector mode via stubs.
    pub fn set_multiple(&mut self, bus: &mut Bus, sectors: u32) {
        let mut map = PortMap::new(bus, &self.ide_ports[..]);
        self.ide.write(&mut map, "sector_count", sectors as u64).unwrap();
        self.ide.write_sym(&mut map, "command", "SET_MULTIPLE").unwrap();
        self.ide.read(&mut map, "bsy").unwrap();
    }

    fn issue_read(&mut self, bus: &mut Bus, lba: u32, count: u32, op: &str) {
        let mut map = PortMap::new(bus, &self.ide_ports[..]);
        // Readiness check costs two stub reads (bsy, drdy) where the
        // hand driver reads the status byte once, and the interface
        // sets `features` explicitly — the paper's "3 additional I/O
        // operations to prepare the command".
        let bsy = self.ide.read(&mut map, "bsy").unwrap();
        let drdy = self.ide.read(&mut map, "drdy").unwrap();
        assert!(bsy == 0 && drdy == 1, "device not ready");
        self.ide.write(&mut map, "features", 0).unwrap();
        self.ide.write(&mut map, "sector_count", count as u64).unwrap();
        self.ide.write(&mut map, "lba_low", (lba & 0xff) as u64).unwrap();
        self.ide.write(&mut map, "lba_mid", ((lba >> 8) & 0xff) as u64).unwrap();
        self.ide.write(&mut map, "lba_high", ((lba >> 16) & 0xff) as u64).unwrap();
        self.ide.write(&mut map, "lba_top", ((lba >> 24) & 0x0f) as u64).unwrap();
        self.ide.write_sym(&mut map, "drive", "MASTER").unwrap();
        self.ide.write_sym(&mut map, "command", op).unwrap();
    }

    /// Reads `count` sectors starting at `lba` in PIO mode.
    pub fn read_pio(&mut self, bus: &mut Bus, lba: u32, count: u32, cfg: PioConfig) -> Vec<u8> {
        let op = if cfg.sectors_per_irq > 1 { "READ_MULTIPLE" } else { "READ_SECTORS" };
        self.issue_read(bus, lba, count, op);
        let mut out = Vec::with_capacity(count as usize * SECTOR_SIZE);
        let mut remaining = count;
        while remaining > 0 {
            {
                // Per interrupt: three separate status-variable stubs
                // (the paper's "+2 per interrupt" over the hand driver's
                // single status read), each via its precompiled plan.
                let mut map = PortMap::new(bus, &self.ide_ports[..]);
                let drq = self.ide.read_id(&mut map, self.drq, &[]).unwrap();
                assert_eq!(drq, 1, "device must expose data");
                let err = self.ide.read_id(&mut map, self.err, &[]).unwrap();
                assert_eq!(err, 0, "device reported an error");
                self.ide.read_id(&mut map, self.bsy, &[]).unwrap();
            }
            let block = remaining.min(cfg.sectors_per_irq);
            let bytes = block as usize * SECTOR_SIZE;
            let mut map = PortMap::new(bus, &self.ide_ports[..]);
            if cfg.io32 {
                let words = bytes / 4;
                match cfg.moves {
                    PioMove::Loop => {
                        for _ in 0..words {
                            let v = self.ide.read_id(&mut map, self.data32, &[]).unwrap() as u32;
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    PioMove::Block => {
                        self.words.resize(words, 0);
                        self.ide.read_block(&mut map, "Ide_data32", &mut self.words).unwrap();
                        for &v in &self.words {
                            out.extend_from_slice(&(v as u32).to_le_bytes());
                        }
                    }
                }
            } else {
                let words = bytes / 2;
                match cfg.moves {
                    PioMove::Loop => {
                        for _ in 0..words {
                            let v = self.ide.read_id(&mut map, self.data16, &[]).unwrap() as u16;
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    PioMove::Block => {
                        self.words.resize(words, 0);
                        self.ide.read_block(&mut map, "Ide_data", &mut self.words).unwrap();
                        for &v in &self.words {
                            out.extend_from_slice(&(v as u16).to_le_bytes());
                        }
                    }
                }
            }
            remaining -= block;
        }
        out
    }

    /// Reads `count` sectors starting at `lba` in PIO mode through the
    /// fused superplans: each interrupt's three status stubs and the
    /// data burst run as one superplan — one guard evaluation, one
    /// `ins` block transaction — instead of four plan dispatches. The
    /// op stream is identical to [`DevilIde::read_pio`] in `Block`
    /// mode, so device state and ledgers match bit for bit.
    pub fn read_pio_fused(
        &mut self,
        bus: &mut Bus,
        lba: u32,
        count: u32,
        cfg: PioConfig,
    ) -> Vec<u8> {
        let op = if cfg.sectors_per_irq > 1 { "READ_MULTIPLE" } else { "READ_SECTORS" };
        self.issue_read(bus, lba, count, op);
        let mut out = Vec::with_capacity(count as usize * SECTOR_SIZE);
        let mut map = PortMap::new(bus, &self.ide_ports[..]);
        let mut remaining = count;
        while remaining > 0 {
            let block = remaining.min(cfg.sectors_per_irq);
            let bytes = block as usize * SECTOR_SIZE;
            let (sid, words) =
                if cfg.io32 { (self.sp_pio32, bytes / 4) } else { (self.sp_pio16, bytes / 2) };
            self.words.resize(words, 0);
            let mut status = [0u64; 3];
            self.ide
                .run_superplan(&mut map, sid, &[], &[], &mut self.words, &mut status)
                .expect("fused PIO interrupt body");
            assert_eq!(status[0], 1, "device must expose data");
            assert_eq!(status[1], 0, "device reported an error");
            if cfg.io32 {
                for &v in &self.words {
                    out.extend_from_slice(&(v as u32).to_le_bytes());
                }
            } else {
                for &v in &self.words {
                    out.extend_from_slice(&(v as u16).to_le_bytes());
                }
            }
            remaining -= block;
        }
        out
    }

    /// Reads `count` sectors via the busmaster (UDMA path).
    pub fn read_dma(
        &mut self,
        bus: &mut Bus,
        mem: &SharedMem,
        lba: u32,
        count: u32,
        prd: u32,
    ) -> Vec<u8> {
        self.issue_read(bus, lba, count, "READ_DMA");
        {
            let mut map = PortMap::new(bus, &self.bm_ports[..]);
            self.bm.write_id(&mut map, self.prd_addr, &[], prd as u64).unwrap();
            self.bm.write_id(&mut map, self.bm_dir, &[], self.bm_to_memory).unwrap();
            self.bm.write_id(&mut map, self.bm_start, &[], 1).unwrap();
        }
        loop {
            let done = {
                let mut map = PortMap::new(bus, &self.bm_ports[..]);
                self.bm.read_id(&mut map, self.bm_intr, &[]).unwrap() == 1
            };
            if done {
                break;
            }
            bus.idle(1_000.0);
        }
        {
            let mut map = PortMap::new(bus, &self.ide_ports[..]);
            self.ide.read_id(&mut map, self.bsy, &[]).unwrap(); // ack device irq
        }
        let mut map = PortMap::new(bus, &self.bm_ports[..]);
        self.bm.write_id(&mut map, self.bm_intr, &[], 1).unwrap(); // W1C
        self.bm.write_id(&mut map, self.bm_start, &[], 0).unwrap();
        let mut out = vec![0u8; count as usize * SECTOR_SIZE];
        mem.read(prd as usize, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::IdeController;
    use hwsim::IrqLine;

    const BASE: u64 = 0x1f0;

    fn rig(sectors: u64) -> (Bus, SharedMem) {
        let irq = IrqLine::new();
        let mem = SharedMem::new(1 << 20);
        let mut ctl = IdeController::new(sectors, irq, mem.clone());
        for s in 0..sectors as usize {
            for w in 0..SECTOR_SIZE {
                ctl.disk_mut()[s * SECTOR_SIZE + w] = ((s * 7 + w) & 0xff) as u8;
            }
        }
        let mut bus = Bus::default();
        bus.attach_io(Box::new(ctl), BASE, 16);
        (bus, mem)
    }

    fn expected(sectors: u64, lba: u32, count: u32) -> Vec<u8> {
        let _ = sectors;
        let mut v = Vec::new();
        for s in lba..lba + count {
            for w in 0..SECTOR_SIZE {
                v.push(((s as usize * 7 + w) & 0xff) as u8);
            }
        }
        v
    }

    #[test]
    fn hand_pio_loop_16bit() {
        let (mut bus, _) = rig(32);
        let drv = HandIde::new(BASE);
        let cfg = PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Loop };
        let data = drv.read_pio(&mut bus, 3, 4, cfg);
        assert_eq!(data, expected(32, 3, 4));
    }

    #[test]
    fn devil_pio_matches_hand_in_every_mode() {
        for spi in [1u32, 8, 16] {
            for io32 in [false, true] {
                for moves in [PioMove::Loop, PioMove::Block] {
                    let cfg = PioConfig { sectors_per_irq: spi, io32, moves };
                    let (mut bus_h, _) = rig(64);
                    let hand = HandIde::new(BASE);
                    if spi > 1 {
                        hand.set_multiple(&mut bus_h, spi);
                    }
                    let d_h = hand.read_pio(&mut bus_h, 0, 32, cfg);

                    let (mut bus_d, _) = rig(64);
                    let mut devil = DevilIde::new(BASE);
                    devil.set_debug_checks(true);
                    if spi > 1 {
                        devil.set_multiple(&mut bus_d, spi);
                    }
                    let d_d = devil.read_pio(&mut bus_d, 0, 32, cfg);
                    assert_eq!(d_h, d_d, "mode {cfg:?}");
                    assert_eq!(d_h, expected(64, 0, 32));
                }
            }
        }
    }

    #[test]
    fn devil_pio_costs_more_setup_and_per_irq_ops() {
        let cfg = PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Loop };
        let (mut bus_h, _) = rig(16);
        let hand = HandIde::new(BASE);
        hand.read_pio(&mut bus_h, 0, 4, cfg);
        let ops_h = bus_h.ledger().pio_ops();

        let (mut bus_d, _) = rig(16);
        let mut devil = DevilIde::new(BASE);
        devil.read_pio(&mut bus_d, 0, 4, cfg);
        let ops_d = bus_d.ledger().pio_ops();
        // Hand: 7 + 4*(1+256); Devil: more setup + 2 extra per irq.
        assert_eq!(ops_h, 7 + 4 * (1 + 256));
        assert!(ops_d > ops_h, "Devil must cost extra ops ({ops_d} vs {ops_h})");
        assert_eq!(ops_d - ops_h, 3 + 4 * 2, "+3 setup, +2 per interrupt");
    }

    #[test]
    fn dma_reads_match_and_cost_identical_time_shape() {
        let (mut bus_h, mem_h) = rig(64);
        let hand = HandIde::new(BASE);
        let d_h = hand.read_dma(&mut bus_h, &mem_h, 5, 8, 0x8000);
        assert_eq!(d_h, expected(64, 5, 8));

        let (mut bus_d, mem_d) = rig(64);
        let mut devil = DevilIde::new(BASE);
        devil.set_debug_checks(true);
        let d_d = devil.read_dma(&mut bus_d, &mem_d, 5, 8, 0x8000);
        assert_eq!(d_d, d_h);
        // Devil issues a handful more I/O ops but DMA time dominates.
        assert!(bus_d.ledger().io_ops() > bus_h.ledger().io_ops());
        assert_eq!(bus_d.ledger().dma_words, bus_h.ledger().dma_words);
    }

    #[test]
    fn dma_busmaster_path_runs_on_plans() {
        let (mut bus, mem) = rig(16);
        let mut devil = DevilIde::new(BASE);
        devil.read_dma(&mut bus, &mem, 0, 4, 0x8000);
        let stats = devil.bm_plan_stats();
        assert!(stats.straight > 0, "busmaster accesses must use plans: {stats:?}");
        assert_eq!(stats.general, 0, "no busmaster access may fall back: {stats:?}");
    }

    #[test]
    fn block_moves_use_string_ops() {
        let cfg = PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Block };
        let (mut bus, _) = rig(8);
        let mut devil = DevilIde::new(BASE);
        devil.read_pio(&mut bus, 0, 2, cfg);
        let l = bus.ledger();
        assert_eq!(l.block_in_words, 2 * 256);
        assert_eq!(l.block_ops, 2);
    }

    /// The fused per-interrupt superplan must issue the identical op
    /// stream as the unfused block-move path: same data, bit-identical
    /// ledger, identical simulated time — in every PIO geometry.
    #[test]
    fn fused_pio_matches_unfused_bit_for_bit() {
        for spi in [1u32, 4] {
            for io32 in [false, true] {
                let cfg = PioConfig { sectors_per_irq: spi, io32, moves: PioMove::Block };
                let (mut bus_u, _) = rig(64);
                let mut unfused = DevilIde::new(BASE);
                if spi > 1 {
                    unfused.set_multiple(&mut bus_u, spi);
                }
                let d_u = unfused.read_pio(&mut bus_u, 1, 8, cfg);

                let (mut bus_f, _) = rig(64);
                let mut fused = DevilIde::new(BASE);
                if spi > 1 {
                    fused.set_multiple(&mut bus_f, spi);
                }
                let d_f = fused.read_pio_fused(&mut bus_f, 1, 8, cfg);

                assert_eq!(d_f, d_u, "spi={spi} io32={io32}");
                assert_eq!(d_f, expected(64, 1, 8));
                assert_eq!(bus_f.ledger(), bus_u.ledger(), "identical op stream");
                assert_eq!(bus_f.now_ns(), bus_u.now_ns(), "identical simulated time");
            }
        }
    }

    /// Fused interrupts count as superplan hits, never as general
    /// fallbacks.
    #[test]
    fn fused_pio_counts_superplan_hits() {
        let cfg = PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Block };
        let (mut bus, _) = rig(16);
        let mut devil = DevilIde::new(BASE);
        devil.read_pio_fused(&mut bus, 0, 4, cfg);
        let stats = devil.ide_plan_stats();
        assert_eq!(stats.fused, 4, "one superplan dispatch per interrupt: {stats:?}");
        assert_eq!(stats.general, 0, "no general fallback: {stats:?}");
        let (ide, _) = devil.instances();
        let sid = ide.ir().superplan_id("pio_irq16").unwrap();
        let points = ide.ir().points(devil_runtime::AccessRef::Superplan(sid));
        assert_eq!(ide.hits()[points].iter().sum::<u64>(), 4);
    }

    /// The paper's baseline is the hand driver's per-word `inw` loop;
    /// the fused superplan streams the data block in one string op and
    /// must post strictly less simulated time despite its two extra
    /// status reads per interrupt.
    #[test]
    fn fused_pio_beats_hand_loop_time() {
        let cfg = PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Loop };
        let (mut bus_h, _) = rig(16);
        let hand = HandIde::new(BASE);
        let d_h = hand.read_pio(&mut bus_h, 0, 4, cfg);

        let fused_cfg = PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Block };
        let (mut bus_f, _) = rig(16);
        let mut devil = DevilIde::new(BASE);
        let d_f = devil.read_pio_fused(&mut bus_f, 0, 4, fused_cfg);

        assert_eq!(d_f, d_h);
        assert!(
            bus_f.now_ns() < bus_h.now_ns(),
            "fused {} ns must beat hand loop {} ns",
            bus_f.now_ns(),
            bus_h.now_ns()
        );
    }
}
