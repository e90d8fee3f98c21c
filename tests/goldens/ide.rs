// Generated by devilc from device `ide`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Values of the `drive` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdeDrive {
    /// `'0'`
    Master,
    /// `'1'`
    Slave,
}
impl IdeDrive {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            IdeDrive::Master => 0x0,
            IdeDrive::Slave => 0x1,
        }
    }
}

/// Values of the `command` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdeCommand {
    /// `'100000'`
    ReadSectors,
    /// `'110000'`
    WriteSectors,
    /// `'11000100'`
    ReadMultiple,
    /// `'11000110'`
    SetMultiple,
    /// `'11001000'`
    ReadDma,
    /// `'11101100'`
    Identify,
}
impl IdeCommand {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            IdeCommand::ReadSectors => 0x20,
            IdeCommand::WriteSectors => 0x30,
            IdeCommand::ReadMultiple => 0xc4,
            IdeCommand::SetMultiple => 0xc6,
            IdeCommand::ReadDma => 0xc8,
            IdeCommand::Identify => 0xec,
        }
    }
}

/// Generated interface for `ide`.
#[derive(Default)]
pub struct Ide {
    pub cache_dr: u64,
    pub valid_dr: bool,
    pub cache_dr32: u64,
    pub valid_dr32: bool,
    pub cache_features_reg: u64,
    pub valid_features_reg: bool,
    pub cache_sc_reg: u64,
    pub valid_sc_reg: bool,
    pub cache_lba_low_reg: u64,
    pub valid_lba_low_reg: bool,
    pub cache_lba_mid_reg: u64,
    pub valid_lba_mid_reg: bool,
    pub cache_lba_high_reg: u64,
    pub valid_lba_high_reg: bool,
    pub cache_device_reg: u64,
    pub valid_device_reg: bool,
    pub cache_status_reg: u64,
    pub valid_status_reg: bool,
    pub cache_command_reg: u64,
    pub valid_command_reg: bool,
}

impl Ide {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_dr(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_dr = dev.read(0, 0, 16);
        self.valid_dr = true;
    }

    fn write_dr(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 16, (self.cache_dr & 0xffff) | 0x0);
        self.valid_dr = true;
    }

    fn read_dr32(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_dr32 = dev.read(1, 0, 32);
        self.valid_dr32 = true;
    }

    fn write_dr32(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(1, 0, 32, (self.cache_dr32 & 0xffffffff) | 0x0);
        self.valid_dr32 = true;
    }

    fn write_features_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 1, 8, (self.cache_features_reg & 0xff) | 0x0);
        self.valid_features_reg = true;
    }

    fn write_sc_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 2, 8, (self.cache_sc_reg & 0xff) | 0x0);
        self.valid_sc_reg = true;
    }

    fn write_lba_low_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 3, 8, (self.cache_lba_low_reg & 0xff) | 0x0);
        self.valid_lba_low_reg = true;
    }

    fn write_lba_mid_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 4, 8, (self.cache_lba_mid_reg & 0xff) | 0x0);
        self.valid_lba_mid_reg = true;
    }

    fn write_lba_high_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 5, 8, (self.cache_lba_high_reg & 0xff) | 0x0);
        self.valid_lba_high_reg = true;
    }

    fn write_device_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 6, 8, (self.cache_device_reg & 0x5f) | 0x40);
        self.valid_device_reg = true;
    }

    fn read_status_reg(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_status_reg = dev.read(2, 7, 8);
        self.valid_status_reg = true;
    }

    fn write_command_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(2, 7, 8, (self.cache_command_reg & 0xff) | 0x0);
        self.valid_command_reg = true;
    }

    /// Reads `Ide_data` from the device.
    pub fn get_Ide_data(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_dr(dev);
        self.cache_dr & 0xffff
    }

    /// Writes `Ide_data` to the device.
    pub fn set_Ide_data(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_dr = (self.cache_dr & 0xffffffffffff0000) | (v & 0xffff);
        self.write_dr(dev);
    }

    /// Reads `Ide_data32` from the device.
    pub fn get_Ide_data32(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_dr32(dev);
        self.cache_dr32 & 0xffffffff
    }

    /// Writes `Ide_data32` to the device.
    pub fn set_Ide_data32(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_dr32 = (self.cache_dr32 & 0xffffffff00000000) | (v & 0xffffffff);
        self.write_dr32(dev);
    }

    /// Writes `features` to the device.
    pub fn set_features(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_features_reg = (self.cache_features_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_features_reg(dev);
    }

    /// Writes `sector_count` to the device.
    pub fn set_sector_count(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_sc_reg = (self.cache_sc_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_sc_reg(dev);
    }

    /// Writes `lba_low` to the device.
    pub fn set_lba_low(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_lba_low_reg = (self.cache_lba_low_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_lba_low_reg(dev);
    }

    /// Writes `lba_mid` to the device.
    pub fn set_lba_mid(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_lba_mid_reg = (self.cache_lba_mid_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_lba_mid_reg(dev);
    }

    /// Writes `lba_high` to the device.
    pub fn set_lba_high(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_lba_high_reg = (self.cache_lba_high_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_lba_high_reg(dev);
    }

    /// Writes `drive` to the device.
    pub fn set_drive(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_device_reg = (self.cache_device_reg & 0xffffffffffffffef) | ((v << 4) & 0x10);
        self.write_device_reg(dev);
    }

    /// Writes `lba_top` to the device.
    pub fn set_lba_top(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_device_reg = (self.cache_device_reg & 0xfffffffffffffff0) | (v & 0xf);
        self.write_device_reg(dev);
    }

    /// Reads `bsy` from the device.
    pub fn get_bsy(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_status_reg(dev);
        (self.cache_status_reg & 0x80) >> 7
    }

    /// Reads `drdy` from the device.
    pub fn get_drdy(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_status_reg(dev);
        (self.cache_status_reg & 0x40) >> 6
    }

    /// Reads `drq` from the device.
    pub fn get_drq(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_status_reg(dev);
        (self.cache_status_reg & 0x8) >> 3
    }

    /// Reads `err` from the device.
    pub fn get_err(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_status_reg(dev);
        self.cache_status_reg & 0x1
    }

    /// Writes `command` to the device.
    pub fn set_command(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_command_reg = (self.cache_command_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_command_reg(dev);
    }

    /// Fused superplan `pio_irq16`: one guard evaluation, batched I/O.
    pub fn sp_pio_irq16(&mut self, dev: &mut dyn DeviceAccess, outs: &mut [u64], block_in: &mut [u64]) {
        self.read_status_reg(dev);
        outs[0] = (self.cache_status_reg & 0x8) >> 3;
        self.read_status_reg(dev);
        outs[1] = self.cache_status_reg & 0x1;
        self.read_status_reg(dev);
        outs[2] = (self.cache_status_reg & 0x80) >> 7;
        dev.read_block(0, 0x0, 16, block_in);
    }

    /// Fused superplan `pio_irq32`: one guard evaluation, batched I/O.
    pub fn sp_pio_irq32(&mut self, dev: &mut dyn DeviceAccess, outs: &mut [u64], block_in: &mut [u64]) {
        self.read_status_reg(dev);
        outs[0] = (self.cache_status_reg & 0x8) >> 3;
        self.read_status_reg(dev);
        outs[1] = self.cache_status_reg & 0x1;
        self.read_status_reg(dev);
        outs[2] = (self.cache_status_reg & 0x80) >> 7;
        dev.read_block(1, 0x0, 32, block_in);
    }

}
