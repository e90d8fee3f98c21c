//! Behavioural model of an IDE (ATA) disk controller with an Intel
//! PIIX4-style PCI busmaster DMA engine.
//!
//! Two port claims, matching the two Devil specifications the paper
//! wrote for its IDE driver:
//!
//! * the **task file** (classic 0x1f0..0x1f7): 16-bit data port plus
//!   error/count/LBA/device/status/command registers,
//! * the **busmaster** block (PIIX4): command, status, and PRD pointer.
//!
//! Supported commands: `READ SECTORS` (0x20), `WRITE SECTORS` (0x30),
//! `READ MULTIPLE` (0xc4), `SET MULTIPLE MODE` (0xc6), `READ DMA`
//! (0xc8), `IDENTIFY` (0xec). PIO transfers raise one interrupt per
//! block of `multiple` sectors; DMA transfers copy through shared
//! memory and raise a single completion interrupt, exactly the
//! behaviours Table 2 sweeps over.

use hwsim::{Device, IrqLine, SharedMem, Width};

/// Bytes per sector.
pub const SECTOR_SIZE: usize = 512;

/// Status register bits.
pub mod status {
    /// Device ready.
    pub const DRDY: u8 = 0x40;
    /// Data request: PIO data is available / expected.
    pub const DRQ: u8 = 0x08;
    /// Device busy.
    pub const BSY: u8 = 0x80;
    /// Error.
    pub const ERR: u8 = 0x01;
}

/// Task-file register offsets (from the command block base).
pub mod reg {
    /// 16-bit data port.
    pub const DATA: u64 = 0;
    /// Error (read) / features (write).
    pub const ERROR: u64 = 1;
    /// Sector count.
    pub const COUNT: u64 = 2;
    /// LBA low byte.
    pub const LBA0: u64 = 3;
    /// LBA mid byte.
    pub const LBA1: u64 = 4;
    /// LBA high byte.
    pub const LBA2: u64 = 5;
    /// Device / LBA top nibble (bit 6 = LBA mode).
    pub const DEVICE: u64 = 6;
    /// Status (read) / command (write).
    pub const COMMAND: u64 = 7;
}

/// Busmaster register offsets.
pub mod bm {
    /// Command: bit 0 = start, bit 3 = direction (1 = to memory).
    pub const CMD: u64 = 0;
    /// Status: bit 0 = active, bit 2 = interrupt.
    pub const STATUS: u64 = 2;
    /// Physical address of the transfer buffer (simplified PRD).
    pub const PRD: u64 = 4;
}

/// ATA command opcodes.
pub mod cmd {
    /// PIO read.
    pub const READ_SECTORS: u8 = 0x20;
    /// PIO write.
    pub const WRITE_SECTORS: u8 = 0x30;
    /// PIO read with multi-sector interrupts.
    pub const READ_MULTIPLE: u8 = 0xc4;
    /// Configure sectors-per-interrupt.
    pub const SET_MULTIPLE: u8 = 0xc6;
    /// Busmaster DMA read.
    pub const READ_DMA: u8 = 0xc8;
    /// Identify device.
    pub const IDENTIFY: u8 = 0xec;
}

enum Phase {
    Idle,
    /// PIO data-in: words queued for the data port. `block` is the
    /// number of sectors delivered per interrupt.
    PioIn {
        sectors_left: u32,
        block: u32,
        buf: Vec<u16>,
        pos: usize,
    },
    /// PIO data-out: expecting words.
    PioOut {
        lba: u64,
        sectors_left: u32,
        buf: Vec<u16>,
    },
    /// DMA pending until the busmaster engine is started.
    DmaRead {
        lba: u64,
        sectors: u32,
    },
}

/// The IDE controller + disk + busmaster model.
pub struct IdeController {
    disk: Vec<u8>,
    sectors: u64,
    // Task file.
    features: u8,
    count: u8,
    lba: [u8; 3],
    device: u8,
    status: u8,
    error: u8,
    multiple: u32,
    phase: Phase,
    /// The PIO-in buffer of the last finished read, kept for the next
    /// READ command so that steady-state reads do not allocate.
    spare: Vec<u16>,
    cur_lba: u64,
    irq: IrqLine,
    // Busmaster.
    bm_cmd: u8,
    bm_status: u8,
    bm_prd: u32,
    mem: SharedMem,
    /// Words moved by DMA, for ledger-style assertions.
    pub dma_words: u64,
}

impl IdeController {
    /// Creates a disk of `sectors` sectors, zero-filled.
    pub fn new(sectors: u64, irq: IrqLine, mem: SharedMem) -> Self {
        IdeController {
            disk: vec![0; sectors as usize * SECTOR_SIZE],
            sectors,
            features: 0,
            count: 0,
            lba: [0; 3],
            device: 0,
            status: status::DRDY,
            error: 0,
            multiple: 1,
            phase: Phase::Idle,
            spare: Vec::new(),
            cur_lba: 0,
            irq,
            bm_cmd: 0,
            bm_status: 0,
            bm_prd: 0,
            mem,
            dma_words: 0,
        }
    }

    /// Direct disk image access for test setup.
    pub fn disk_mut(&mut self) -> &mut [u8] {
        &mut self.disk
    }

    /// Direct disk image access.
    pub fn disk(&self) -> &[u8] {
        &self.disk
    }

    /// The configured sectors-per-interrupt.
    pub fn multiple(&self) -> u32 {
        self.multiple
    }

    fn lba(&self) -> u64 {
        (self.lba[0] as u64)
            | (self.lba[1] as u64) << 8
            | (self.lba[2] as u64) << 16
            | ((self.device & 0x0f) as u64) << 24
    }

    fn sector_count(&self) -> u32 {
        if self.count == 0 {
            256
        } else {
            self.count as u32
        }
    }

    fn load_block(&mut self) {
        // Loads up to one block of sectors into the PIO buffer.
        if let Phase::PioIn { sectors_left, block, buf, pos } = &mut self.phase {
            let n = (*sectors_left).min(*block);
            buf.clear();
            *pos = 0;
            for s in 0..n as u64 {
                let base = (self.cur_lba + s) as usize * SECTOR_SIZE;
                for w in 0..SECTOR_SIZE / 2 {
                    let i = base + w * 2;
                    buf.push(u16::from_le_bytes([self.disk[i], self.disk[i + 1]]));
                }
            }
            self.cur_lba += n as u64;
            *sectors_left -= n;
            self.status = status::DRDY | status::DRQ;
            self.irq.raise();
        }
    }

    fn command(&mut self, op: u8) {
        self.status = status::DRDY;
        self.error = 0;
        match op {
            cmd::SET_MULTIPLE => {
                self.multiple = if self.count == 0 { 1 } else { self.count as u32 };
                self.irq.raise();
            }
            cmd::READ_SECTORS | cmd::READ_MULTIPLE => {
                let lba = self.lba();
                let n = self.sector_count();
                if lba + n as u64 > self.sectors {
                    self.status |= status::ERR;
                    self.error = 0x10; // IDNF
                    self.irq.raise();
                    return;
                }
                self.cur_lba = lba;
                // READ SECTORS interrupts every sector regardless of the
                // multiple setting; READ MULTIPLE honours it.
                let block = if op == cmd::READ_SECTORS { 1 } else { self.multiple };
                let buf = std::mem::take(&mut self.spare);
                self.phase = Phase::PioIn { sectors_left: n, block, buf, pos: 0 };
                self.load_block();
            }
            cmd::WRITE_SECTORS => {
                let lba = self.lba();
                let n = self.sector_count();
                if lba + n as u64 > self.sectors {
                    self.status |= status::ERR;
                    self.error = 0x10;
                    self.irq.raise();
                    return;
                }
                self.phase = Phase::PioOut { lba, sectors_left: n, buf: Vec::new() };
                self.status = status::DRDY | status::DRQ;
            }
            cmd::READ_DMA => {
                let lba = self.lba();
                let n = self.sector_count();
                if lba + n as u64 > self.sectors {
                    self.status |= status::ERR;
                    self.error = 0x10;
                    self.irq.raise();
                    return;
                }
                self.phase = Phase::DmaRead { lba, sectors: n };
                self.status = status::DRDY | status::BSY;
            }
            cmd::IDENTIFY => {
                let mut id = vec![0u16; 256];
                id[0] = 0x0040; // non-removable
                id[60] = (self.sectors & 0xffff) as u16;
                id[61] = (self.sectors >> 16) as u16;
                self.phase = Phase::PioIn { sectors_left: 0, block: 1, buf: id, pos: 0 };
                self.status = status::DRDY | status::DRQ;
                self.irq.raise();
            }
            _ => {
                self.status |= status::ERR;
                self.error = 0x04; // ABRT
                self.irq.raise();
            }
        }
    }

    fn data_read(&mut self) -> u16 {
        let mut need_reload = false;
        let v;
        match &mut self.phase {
            Phase::PioIn { sectors_left, buf, pos, .. } => {
                v = buf.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                if *pos >= buf.len() {
                    if *sectors_left > 0 {
                        need_reload = true;
                    } else {
                        self.spare = std::mem::take(buf);
                        self.phase = Phase::Idle;
                        self.status = status::DRDY;
                    }
                }
            }
            _ => v = 0xffff,
        }
        if need_reload {
            self.load_block();
        }
        v
    }

    fn data_write(&mut self, v: u16) {
        let mut done = false;
        if let Phase::PioOut { lba, sectors_left, buf } = &mut self.phase {
            buf.push(v);
            let words_per_block = (self.multiple.min(*sectors_left) as usize) * SECTOR_SIZE / 2;
            let words_per_block = words_per_block.max(SECTOR_SIZE / 2);
            if buf.len() >= words_per_block.min(*sectors_left as usize * SECTOR_SIZE / 2) {
                // Flush a block to disk.
                let base = *lba as usize * SECTOR_SIZE;
                for (i, w) in buf.iter().enumerate() {
                    let b = w.to_le_bytes();
                    self.disk[base + i * 2] = b[0];
                    self.disk[base + i * 2 + 1] = b[1];
                }
                let n = (buf.len() / (SECTOR_SIZE / 2)) as u32;
                *lba += n as u64;
                *sectors_left -= n;
                buf.clear();
                self.irq.raise();
                if *sectors_left == 0 {
                    done = true;
                }
            }
        }
        if done {
            self.phase = Phase::Idle;
            self.status = status::DRDY;
        }
    }

    fn bm_start(&mut self) {
        if let Phase::DmaRead { lba, sectors } = self.phase {
            let bytes = sectors as usize * SECTOR_SIZE;
            let base = lba as usize * SECTOR_SIZE;
            self.mem.write(self.bm_prd as usize, &self.disk[base..base + bytes]);
            self.dma_words += (bytes / 2) as u64;
            self.phase = Phase::Idle;
            self.status = status::DRDY;
            self.bm_status = 0x04; // interrupt, not active
            self.bm_cmd &= !0x01;
            self.irq.raise();
        }
    }
}

impl Device for IdeController {
    fn name(&self) -> &str {
        "ide_piix4"
    }

    /// Offsets 0..=7 are the task file; 8.. are the busmaster block
    /// (offset 8 = bm::CMD, 10 = bm::STATUS, 12 = bm::PRD).
    fn io_read(&mut self, offset: u64, width: Width) -> u64 {
        match offset {
            reg::DATA => {
                if width == Width::W32 {
                    let lo = self.data_read() as u64;
                    let hi = self.data_read() as u64;
                    lo | (hi << 16)
                } else {
                    self.data_read() as u64
                }
            }
            reg::ERROR => self.error as u64,
            reg::COUNT => self.count as u64,
            reg::LBA0 => self.lba[0] as u64,
            reg::LBA1 => self.lba[1] as u64,
            reg::LBA2 => self.lba[2] as u64,
            reg::DEVICE => self.device as u64,
            reg::COMMAND => {
                self.irq.clear();
                self.status as u64
            }
            o if o == 8 + bm::CMD => self.bm_cmd as u64,
            o if o == 8 + bm::STATUS => self.bm_status as u64,
            o if o == 8 + bm::PRD => self.bm_prd as u64,
            _ => 0xff,
        }
    }

    fn io_write(&mut self, offset: u64, value: u64, width: Width) {
        match offset {
            reg::DATA => {
                if width == Width::W32 {
                    self.data_write(value as u16);
                    self.data_write((value >> 16) as u16);
                } else {
                    self.data_write(value as u16);
                }
            }
            reg::ERROR => self.features = value as u8,
            reg::COUNT => self.count = value as u8,
            reg::LBA0 => self.lba[0] = value as u8,
            reg::LBA1 => self.lba[1] = value as u8,
            reg::LBA2 => self.lba[2] = value as u8,
            reg::DEVICE => self.device = value as u8,
            reg::COMMAND => self.command(value as u8),
            o if o == 8 + bm::CMD => {
                self.bm_cmd = value as u8;
                if value & 0x01 != 0 {
                    self.bm_status |= 0x01;
                    self.bm_start();
                }
            }
            o if o == 8 + bm::STATUS => {
                // Writing 1s clears the interrupt/error bits.
                self.bm_status &= !(value as u8 & 0x06);
            }
            o if o == 8 + bm::PRD => self.bm_prd = value as u32,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(sectors: u64) -> (IdeController, IrqLine, SharedMem) {
        let irq = IrqLine::new();
        let mem = SharedMem::new(1 << 20);
        let mut c = IdeController::new(sectors, irq.clone(), mem.clone());
        // Recognisable pattern: sector s, word w = (s*1000 + w) & 0xffff.
        for s in 0..sectors as usize {
            for w in 0..SECTOR_SIZE / 2 {
                let v = ((s * 1000 + w) & 0xffff) as u16;
                let b = v.to_le_bytes();
                c.disk_mut()[s * SECTOR_SIZE + w * 2] = b[0];
                c.disk_mut()[s * SECTOR_SIZE + w * 2 + 1] = b[1];
            }
        }
        (c, irq, mem)
    }

    fn issue_read(c: &mut IdeController, lba: u8, count: u8, op: u8) {
        c.io_write(reg::COUNT, count as u64, Width::W8);
        c.io_write(reg::LBA0, lba as u64, Width::W8);
        c.io_write(reg::LBA1, 0, Width::W8);
        c.io_write(reg::LBA2, 0, Width::W8);
        c.io_write(reg::DEVICE, 0x40, Width::W8);
        c.io_write(reg::COMMAND, op as u64, Width::W8);
    }

    #[test]
    fn pio_read_single_sector() {
        let (mut c, irq, _) = controller(16);
        issue_read(&mut c, 2, 1, cmd::READ_SECTORS);
        assert!(irq.pending());
        assert_eq!(c.io_read(reg::COMMAND, Width::W8) as u8 & status::DRQ, status::DRQ);
        let first = c.io_read(reg::DATA, Width::W16) as u16;
        assert_eq!(first, 2000);
        for _ in 1..255 {
            c.io_read(reg::DATA, Width::W16);
        }
        let last = c.io_read(reg::DATA, Width::W16) as u16;
        assert_eq!(last, 2000 + 255);
        // Transfer complete: DRQ clears.
        assert_eq!(c.io_read(reg::COMMAND, Width::W8) as u8 & status::DRQ, 0);
    }

    #[test]
    fn pio_read_32bit_pairs_words() {
        let (mut c, _, _) = controller(16);
        issue_read(&mut c, 0, 1, cmd::READ_SECTORS);
        let v = c.io_read(reg::DATA, Width::W32);
        assert_eq!(v & 0xffff, 0);
        assert_eq!(v >> 16, 1);
    }

    #[test]
    fn read_sectors_interrupts_per_sector() {
        let (mut c, irq, _) = controller(16);
        issue_read(&mut c, 0, 3, cmd::READ_SECTORS);
        assert_eq!(irq.edge_count(), 1);
        // Drain sector 0; ack the irq as a driver would (status read).
        c.io_read(reg::COMMAND, Width::W8);
        for _ in 0..256 {
            c.io_read(reg::DATA, Width::W16);
        }
        assert_eq!(irq.edge_count(), 2, "next sector raises a new irq");
        c.io_read(reg::COMMAND, Width::W8);
        for _ in 0..256 {
            c.io_read(reg::DATA, Width::W16);
        }
        assert_eq!(irq.edge_count(), 3);
    }

    #[test]
    fn read_multiple_batches_interrupts() {
        let (mut c, irq, _) = controller(64);
        // SET MULTIPLE 8.
        c.io_write(reg::COUNT, 8, Width::W8);
        c.io_write(reg::COMMAND, cmd::SET_MULTIPLE as u64, Width::W8);
        assert_eq!(c.multiple(), 8);
        c.io_read(reg::COMMAND, Width::W8); // ack
        issue_read(&mut c, 0, 16, cmd::READ_MULTIPLE);
        let edges0 = irq.edge_count();
        c.io_read(reg::COMMAND, Width::W8);
        // Drain 8 sectors worth; one more irq for the second block.
        for _ in 0..8 * 256 {
            c.io_read(reg::DATA, Width::W16);
        }
        assert_eq!(irq.edge_count(), edges0 + 1);
        c.io_read(reg::COMMAND, Width::W8);
        for _ in 0..8 * 256 {
            c.io_read(reg::DATA, Width::W16);
        }
        assert_eq!(c.io_read(reg::COMMAND, Width::W8) as u8 & status::DRQ, 0);
    }

    #[test]
    fn pio_write_round_trips() {
        let (mut c, _, _) = controller(16);
        c.io_write(reg::COUNT, 1, Width::W8);
        c.io_write(reg::LBA0, 5, Width::W8);
        c.io_write(reg::LBA1, 0, Width::W8);
        c.io_write(reg::LBA2, 0, Width::W8);
        c.io_write(reg::DEVICE, 0x40, Width::W8);
        c.io_write(reg::COMMAND, cmd::WRITE_SECTORS as u64, Width::W8);
        for w in 0..256u64 {
            c.io_write(reg::DATA, 0xa000 + w, Width::W16);
        }
        issue_read(&mut c, 5, 1, cmd::READ_SECTORS);
        assert_eq!(c.io_read(reg::DATA, Width::W16), 0xa000);
    }

    #[test]
    fn dma_read_transfers_to_memory() {
        let (mut c, irq, mem) = controller(16);
        issue_read(&mut c, 1, 2, cmd::READ_DMA);
        assert!(!irq.pending(), "no irq until the busmaster completes");
        // Program the busmaster: PRD = 0x1000, start, direction=to-mem.
        c.io_write(8 + bm::PRD, 0x1000, Width::W32);
        c.io_write(8 + bm::CMD, 0x09, Width::W8);
        assert!(irq.pending());
        assert_eq!(c.io_read(8 + bm::STATUS, Width::W8) & 0x04, 0x04);
        // Sector 1 word 0 = 1000.
        let mut b = [0u8; 2];
        mem.read(0x1000, &mut b);
        assert_eq!(u16::from_le_bytes(b), 1000);
        // Sector 2's first word lands one sector later.
        mem.read(0x1000 + SECTOR_SIZE, &mut b);
        assert_eq!(u16::from_le_bytes(b), 2000);
        assert_eq!(c.dma_words, 512);
        // Clear the busmaster interrupt.
        c.io_write(8 + bm::STATUS, 0x06, Width::W8);
        assert_eq!(c.io_read(8 + bm::STATUS, Width::W8) & 0x04, 0);
    }

    #[test]
    fn out_of_range_read_errors() {
        let (mut c, irq, _) = controller(4);
        issue_read(&mut c, 3, 2, cmd::READ_SECTORS);
        assert!(irq.pending());
        assert_eq!(c.io_read(reg::COMMAND, Width::W8) as u8 & status::ERR, status::ERR);
        assert_eq!(c.io_read(reg::ERROR, Width::W8), 0x10);
    }

    #[test]
    fn unknown_command_aborts() {
        let (mut c, _, _) = controller(4);
        c.io_write(reg::COMMAND, 0xf7, Width::W8);
        assert_eq!(c.io_read(reg::ERROR, Width::W8), 0x04);
    }

    #[test]
    fn identify_reports_capacity() {
        let (mut c, _, _) = controller(0x1234);
        c.io_write(reg::COMMAND, cmd::IDENTIFY as u64, Width::W8);
        let mut words = [0u16; 256];
        for w in &mut words {
            *w = c.io_read(reg::DATA, Width::W16) as u16;
        }
        assert_eq!(words[60] as u64 | ((words[61] as u64) << 16), 0x1234);
    }

    #[test]
    fn status_read_clears_irq() {
        let (mut c, irq, _) = controller(8);
        issue_read(&mut c, 0, 1, cmd::READ_SECTORS);
        assert!(irq.pending());
        c.io_read(reg::COMMAND, Width::W8);
        assert!(!irq.pending());
    }
}
