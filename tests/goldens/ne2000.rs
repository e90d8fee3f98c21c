// Generated by devilc from device `ne2000`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Values of the `st` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ne2000St {
    /// `'1'`
    Stp,
    /// `'10'`
    Sta,
    /// `'0'`
    Idle,
    /// `'11'`
    Both,
}
impl Ne2000St {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Ne2000St::Stp => 0x1,
            Ne2000St::Sta => 0x2,
            Ne2000St::Idle => 0x0,
            Ne2000St::Both => 0x3,
        }
    }
}

/// Values of the `txp` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ne2000Txp {
    /// `'1'`
    Send,
    /// `'0'`
    Nop,
}
impl Ne2000Txp {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Ne2000Txp::Send => 0x1,
            Ne2000Txp::Nop => 0x0,
        }
    }
}

/// Values of the `rd` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ne2000Rd {
    /// `'1'`
    Rread,
    /// `'10'`
    Rwrite,
    /// `'100'`
    Nodma,
    /// `'0'`
    R0,
    /// `'11'`
    R3,
    /// `'101'`
    R5,
    /// `'110'`
    R6,
    /// `'111'`
    R7,
}
impl Ne2000Rd {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Ne2000Rd::Rread => 0x1,
            Ne2000Rd::Rwrite => 0x2,
            Ne2000Rd::Nodma => 0x4,
            Ne2000Rd::R0 => 0x0,
            Ne2000Rd::R3 => 0x3,
            Ne2000Rd::R5 => 0x5,
            Ne2000Rd::R6 => 0x6,
            Ne2000Rd::R7 => 0x7,
        }
    }
}

/// Generated interface for `ne2000`.
#[derive(Default)]
pub struct Ne2000 {
    pub cache_cr: u64,
    pub valid_cr: bool,
    pub cache_pstart_reg: u64,
    pub valid_pstart_reg: bool,
    pub cache_pstop_reg: u64,
    pub valid_pstop_reg: bool,
    pub cache_bnry_reg: u64,
    pub valid_bnry_reg: bool,
    pub cache_tpsr_reg: u64,
    pub valid_tpsr_reg: bool,
    pub cache_tbcr0: u64,
    pub valid_tbcr0: bool,
    pub cache_tbcr1: u64,
    pub valid_tbcr1: bool,
    pub cache_isr_reg: u64,
    pub valid_isr_reg: bool,
    pub cache_rsar0: u64,
    pub valid_rsar0: bool,
    pub cache_rsar1: u64,
    pub valid_rsar1: bool,
    pub cache_rbcr0: u64,
    pub valid_rbcr0: bool,
    pub cache_rbcr1: u64,
    pub valid_rbcr1: bool,
    pub cache_dcr: u64,
    pub valid_dcr: bool,
    pub cache_imr_reg: u64,
    pub valid_imr_reg: bool,
    pub cache_dr: u64,
    pub valid_dr: bool,
}

impl Ne2000 {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_cr(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_cr = dev.read(0, 0, 8);
        self.valid_cr = true;
    }

    fn write_cr(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_cr & 0xff) | 0x0);
        self.valid_cr = true;
    }

    fn write_pstart_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_pstart_reg & 0xff) | 0x0);
        self.valid_pstart_reg = true;
    }

    fn write_pstop_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 8, (self.cache_pstop_reg & 0xff) | 0x0);
        self.valid_pstop_reg = true;
    }

    fn read_bnry_reg(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_bnry_reg = dev.read(0, 3, 8);
        self.valid_bnry_reg = true;
    }

    fn write_bnry_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 3, 8, (self.cache_bnry_reg & 0xff) | 0x0);
        self.valid_bnry_reg = true;
    }

    fn write_tpsr_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 4, 8, (self.cache_tpsr_reg & 0xff) | 0x0);
        self.valid_tpsr_reg = true;
    }

    fn write_tbcr0(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 5, 8, (self.cache_tbcr0 & 0xff) | 0x0);
        self.valid_tbcr0 = true;
    }

    fn write_tbcr1(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 6, 8, (self.cache_tbcr1 & 0xff) | 0x0);
        self.valid_tbcr1 = true;
    }

    fn read_isr_reg(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_isr_reg = dev.read(0, 7, 8);
        self.valid_isr_reg = true;
    }

    fn write_isr_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 7, 8, (self.cache_isr_reg & 0xff) | 0x0);
        self.valid_isr_reg = true;
    }

    fn write_rsar0(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 8, 8, (self.cache_rsar0 & 0xff) | 0x0);
        self.valid_rsar0 = true;
    }

    fn write_rsar1(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 9, 8, (self.cache_rsar1 & 0xff) | 0x0);
        self.valid_rsar1 = true;
    }

    fn write_rbcr0(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 10, 8, (self.cache_rbcr0 & 0xff) | 0x0);
        self.valid_rbcr0 = true;
    }

    fn write_rbcr1(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 11, 8, (self.cache_rbcr1 & 0xff) | 0x0);
        self.valid_rbcr1 = true;
    }

    fn write_dcr(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 14, 8, (self.cache_dcr & 0xff) | 0x0);
        self.valid_dcr = true;
    }

    fn write_imr_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 15, 8, (self.cache_imr_reg & 0xff) | 0x0);
        self.valid_imr_reg = true;
    }

    fn read_dr(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_dr = dev.read(1, 16, 16);
        self.valid_dr = true;
    }

    fn write_dr(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(1, 16, 16, (self.cache_dr & 0xffff) | 0x0);
        self.valid_dr = true;
    }

    /// Reads `st` from the device.
    pub fn get_st(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_cr) {
            self.read_cr(dev);
        }
        self.cache_cr & 0x3
    }

    /// Writes `st` to the device.
    pub fn set_st(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_cr = (self.cache_cr & 0xffffffffffffffc0) | 0x20 | (v & 0x3);
        self.write_cr(dev);
    }

    /// Reads `txp` from the device.
    pub fn get_txp(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_cr) {
            self.read_cr(dev);
        }
        (self.cache_cr & 0x4) >> 2
    }

    /// Writes `txp` to the device.
    pub fn set_txp(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_cr = (self.cache_cr & 0xffffffffffffffc3) | 0x20 | ((v << 2) & 0x4);
        self.write_cr(dev);
    }

    /// Reads `rd` from the device.
    pub fn get_rd(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_cr) {
            self.read_cr(dev);
        }
        (self.cache_cr & 0x38) >> 3
    }

    /// Writes `rd` to the device.
    pub fn set_rd(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_cr = (self.cache_cr & 0xffffffffffffffc3) | ((v << 3) & 0x38);
        self.write_cr(dev);
    }

    /// Reads `page` from the device.
    pub fn get_page(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_cr) {
            self.read_cr(dev);
        }
        (self.cache_cr & 0xc0) >> 6
    }

    /// Writes `page` to the device.
    pub fn set_page(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_cr = (self.cache_cr & 0xffffffffffffff03) | 0x20 | ((v << 6) & 0xc0);
        self.write_cr(dev);
    }

    /// Writes `pstart` to the device.
    pub fn set_pstart(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_pstart_reg = (self.cache_pstart_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_pstart_reg(dev);
    }

    /// Writes `pstop` to the device.
    pub fn set_pstop(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_pstop_reg = (self.cache_pstop_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_pstop_reg(dev);
    }

    /// Reads `bnry` from the device.
    pub fn get_bnry(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_bnry_reg(dev);
        self.cache_bnry_reg & 0xff
    }

    /// Writes `bnry` to the device.
    pub fn set_bnry(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_bnry_reg = (self.cache_bnry_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_bnry_reg(dev);
    }

    /// Writes `tpsr` to the device.
    pub fn set_tpsr(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_tpsr_reg = (self.cache_tpsr_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_tpsr_reg(dev);
    }

    /// Writes `tbcr` to the device.
    pub fn set_tbcr(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_tbcr1 = (self.cache_tbcr1 & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_tbcr1(dev);
        self.cache_tbcr0 = (self.cache_tbcr0 & 0xffffffffffffff00) | (v & 0xff);
        self.write_tbcr0(dev);
    }

    /// Reads `prx` from the device.
    pub fn get_prx(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_isr_reg(dev);
        self.cache_isr_reg & 0x1
    }

    /// Writes `prx` to the device.
    pub fn set_prx(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_isr_reg = (self.cache_isr_reg & 0xffffffffffffffbc) | (v & 0x1);
        self.write_isr_reg(dev);
    }

    /// Reads `ptx` from the device.
    pub fn get_ptx(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_isr_reg(dev);
        (self.cache_isr_reg & 0x2) >> 1
    }

    /// Writes `ptx` to the device.
    pub fn set_ptx(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_isr_reg = (self.cache_isr_reg & 0xffffffffffffffbc) | ((v << 1) & 0x2);
        self.write_isr_reg(dev);
    }

    /// Reads `rdc` from the device.
    pub fn get_rdc(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_isr_reg(dev);
        (self.cache_isr_reg & 0x40) >> 6
    }

    /// Writes `rdc` to the device.
    pub fn set_rdc(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_isr_reg = (self.cache_isr_reg & 0xffffffffffffffbc) | ((v << 6) & 0x40);
        self.write_isr_reg(dev);
    }

    /// Writes `rsar` to the device.
    pub fn set_rsar(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_rsar1 = (self.cache_rsar1 & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_rsar1(dev);
        self.cache_rsar0 = (self.cache_rsar0 & 0xffffffffffffff00) | (v & 0xff);
        self.write_rsar0(dev);
    }

    /// Writes `rbcr` to the device.
    pub fn set_rbcr(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_rbcr1 = (self.cache_rbcr1 & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_rbcr1(dev);
        self.cache_rbcr0 = (self.cache_rbcr0 & 0xffffffffffffff00) | (v & 0xff);
        self.write_rbcr0(dev);
    }

    /// Writes `data_config` to the device.
    pub fn set_data_config(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_dcr = (self.cache_dcr & 0xffffffffffffff00) | (v & 0xff);
        self.write_dcr(dev);
    }

    /// Writes `int_mask` to the device.
    pub fn set_int_mask(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_imr_reg = (self.cache_imr_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_imr_reg(dev);
    }

    /// Reads `remote_data` from the device.
    pub fn get_remote_data(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_dr(dev);
        self.cache_dr & 0xffff
    }

    /// Writes `remote_data` to the device.
    pub fn set_remote_data(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_dr = (self.cache_dr & 0xffffffffffff0000) | (v & 0xffff);
        self.write_dr(dev);
    }

    /// Fused superplan `tx`: one guard evaluation, batched I/O.
    pub fn sp_tx(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64, a2: u64, block_out: &[u64]) {
        self.cache_rsar1 = (self.cache_rsar1 & 0xffffffffffffff00) | ((a0 >> 8) & 0xff);
        self.write_rsar1(dev);
        self.cache_rsar0 = (self.cache_rsar0 & 0xffffffffffffff00) | (a0 & 0xff);
        self.write_rsar0(dev);
        self.cache_rbcr1 = (self.cache_rbcr1 & 0xffffffffffffff00) | ((a1 >> 8) & 0xff);
        self.write_rbcr1(dev);
        self.cache_rbcr0 = (self.cache_rbcr0 & 0xffffffffffffff00) | (a1 & 0xff);
        self.write_rbcr0(dev);
        self.cache_cr = (self.cache_cr & 0xffffffffffffffc3) | 0x10;
        self.write_cr(dev);
        dev.write_block(1, 0x10, 16, block_out);
        self.cache_isr_reg = (self.cache_isr_reg & 0xffffffffffffffbc) | 0x40;
        self.write_isr_reg(dev);
        self.cache_tpsr_reg = (self.cache_tpsr_reg & 0xffffffffffffff00) | 0x40;
        self.write_tpsr_reg(dev);
        self.cache_tbcr1 = (self.cache_tbcr1 & 0xffffffffffffff00) | ((a2 >> 8) & 0xff);
        self.write_tbcr1(dev);
        self.cache_tbcr0 = (self.cache_tbcr0 & 0xffffffffffffff00) | (a2 & 0xff);
        self.write_tbcr0(dev);
        self.cache_cr = (self.cache_cr & 0xffffffffffffffc3) | 0x24;
        self.write_cr(dev);
    }

}
