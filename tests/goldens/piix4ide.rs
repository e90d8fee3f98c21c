// Generated by devilc from device `piix4ide`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Values of the `bm_dir` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Piix4ideBmDir {
    /// `'1'`
    ToMemory,
    /// `'0'`
    FromMemory,
}
impl Piix4ideBmDir {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Piix4ideBmDir::ToMemory => 0x1,
            Piix4ideBmDir::FromMemory => 0x0,
        }
    }
}

/// Generated interface for `piix4ide`.
#[derive(Default)]
pub struct Piix4ide {
    pub cache_bmcmd: u64,
    pub valid_bmcmd: bool,
    pub cache_bmstatus: u64,
    pub valid_bmstatus: bool,
    pub cache_prd_reg: u64,
    pub valid_prd_reg: bool,
}

impl Piix4ide {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn write_bmcmd(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_bmcmd & 0x9) | 0x0);
        self.valid_bmcmd = true;
    }

    fn read_bmstatus(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_bmstatus = dev.read(0, 2, 8);
        self.valid_bmstatus = true;
    }

    fn write_bmstatus(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 8, (self.cache_bmstatus & 0x4) | 0x0);
        self.valid_bmstatus = true;
    }

    fn write_prd_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(1, 4, 32, (self.cache_prd_reg & 0xffffffff) | 0x0);
        self.valid_prd_reg = true;
    }

    /// Writes `bm_dir` to the device.
    pub fn set_bm_dir(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_bmcmd = (self.cache_bmcmd & 0xfffffffffffffff7) | ((v << 3) & 0x8);
        self.write_bmcmd(dev);
    }

    /// Writes `bm_start` to the device.
    pub fn set_bm_start(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_bmcmd = (self.cache_bmcmd & 0xfffffffffffffffe) | (v & 0x1);
        self.write_bmcmd(dev);
    }

    /// Reads `bm_intr` from the device.
    pub fn get_bm_intr(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_bmstatus(dev);
        (self.cache_bmstatus & 0x4) >> 2
    }

    /// Writes `bm_intr` to the device.
    pub fn set_bm_intr(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_bmstatus = (self.cache_bmstatus & 0xfffffffffffffffb) | ((v << 2) & 0x4);
        self.write_bmstatus(dev);
    }

    /// Writes `prd_addr` to the device.
    pub fn set_prd_addr(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_prd_reg = (self.cache_prd_reg & 0xffffffff00000000) | (v & 0xffffffff);
        self.write_prd_reg(dev);
    }

}
