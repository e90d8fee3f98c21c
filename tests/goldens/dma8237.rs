// Generated by devilc from device `dma8237`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `dma8237`.
#[derive(Default)]
pub struct Dma8237 {
    pub cache_ff_reg: u64,
    pub valid_ff_reg: bool,
    pub cache_addr0_low: u64,
    pub valid_addr0_low: bool,
    pub cache_addr0_high: u64,
    pub valid_addr0_high: bool,
    pub cache_count0_low: u64,
    pub valid_count0_low: bool,
    pub cache_count0_high: u64,
    pub valid_count0_high: bool,
    pub cache_addr1_low: u64,
    pub valid_addr1_low: bool,
    pub cache_addr1_high: u64,
    pub valid_addr1_high: bool,
    pub cache_count1_low: u64,
    pub valid_count1_low: bool,
    pub cache_count1_high: u64,
    pub valid_count1_high: bool,
    pub cache_addr2_low: u64,
    pub valid_addr2_low: bool,
    pub cache_addr2_high: u64,
    pub valid_addr2_high: bool,
    pub cache_count2_low: u64,
    pub valid_count2_low: bool,
    pub cache_count2_high: u64,
    pub valid_count2_high: bool,
    pub cache_addr3_low: u64,
    pub valid_addr3_low: bool,
    pub cache_addr3_high: u64,
    pub valid_addr3_high: bool,
    pub cache_count3_low: u64,
    pub valid_count3_low: bool,
    pub cache_count3_high: u64,
    pub valid_count3_high: bool,
    pub cache_command_reg: u64,
    pub valid_command_reg: bool,
    pub cache_status_reg: u64,
    pub valid_status_reg: bool,
    pub cache_request_reg: u64,
    pub valid_request_reg: bool,
    pub cache_single_mask_reg: u64,
    pub valid_single_mask_reg: bool,
    pub cache_mode_reg: u64,
    pub valid_mode_reg: bool,
    pub cache_master_clear_reg: u64,
    pub valid_master_clear_reg: bool,
    pub cache_all_mask_reg: u64,
    pub valid_all_mask_reg: bool,
}

impl Dma8237 {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn write_ff_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 12, 8, (self.cache_ff_reg & 0x1) | 0x0);
        self.valid_ff_reg = true;
    }

    fn read_addr0_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr0_low = dev.read(0, 0, 8);
        self.valid_addr0_low = true;
    }

    fn write_addr0_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_addr0_low & 0xff) | 0x0);
        self.valid_addr0_low = true;
    }

    fn read_addr0_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr0_high = dev.read(0, 0, 8);
        self.valid_addr0_high = true;
    }

    fn write_addr0_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_addr0_high & 0xff) | 0x0);
        self.valid_addr0_high = true;
    }

    fn read_count0_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count0_low = dev.read(0, 1, 8);
        self.valid_count0_low = true;
    }

    fn write_count0_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_count0_low & 0xff) | 0x0);
        self.valid_count0_low = true;
    }

    fn read_count0_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count0_high = dev.read(0, 1, 8);
        self.valid_count0_high = true;
    }

    fn write_count0_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_count0_high & 0xff) | 0x0);
        self.valid_count0_high = true;
    }

    fn read_addr1_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr1_low = dev.read(0, 2, 8);
        self.valid_addr1_low = true;
    }

    fn write_addr1_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 8, (self.cache_addr1_low & 0xff) | 0x0);
        self.valid_addr1_low = true;
    }

    fn read_addr1_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr1_high = dev.read(0, 2, 8);
        self.valid_addr1_high = true;
    }

    fn write_addr1_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 8, (self.cache_addr1_high & 0xff) | 0x0);
        self.valid_addr1_high = true;
    }

    fn read_count1_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count1_low = dev.read(0, 3, 8);
        self.valid_count1_low = true;
    }

    fn write_count1_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 3, 8, (self.cache_count1_low & 0xff) | 0x0);
        self.valid_count1_low = true;
    }

    fn read_count1_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count1_high = dev.read(0, 3, 8);
        self.valid_count1_high = true;
    }

    fn write_count1_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 3, 8, (self.cache_count1_high & 0xff) | 0x0);
        self.valid_count1_high = true;
    }

    fn read_addr2_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr2_low = dev.read(0, 4, 8);
        self.valid_addr2_low = true;
    }

    fn write_addr2_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 4, 8, (self.cache_addr2_low & 0xff) | 0x0);
        self.valid_addr2_low = true;
    }

    fn read_addr2_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr2_high = dev.read(0, 4, 8);
        self.valid_addr2_high = true;
    }

    fn write_addr2_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 4, 8, (self.cache_addr2_high & 0xff) | 0x0);
        self.valid_addr2_high = true;
    }

    fn read_count2_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count2_low = dev.read(0, 5, 8);
        self.valid_count2_low = true;
    }

    fn write_count2_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 5, 8, (self.cache_count2_low & 0xff) | 0x0);
        self.valid_count2_low = true;
    }

    fn read_count2_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count2_high = dev.read(0, 5, 8);
        self.valid_count2_high = true;
    }

    fn write_count2_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 5, 8, (self.cache_count2_high & 0xff) | 0x0);
        self.valid_count2_high = true;
    }

    fn read_addr3_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr3_low = dev.read(0, 6, 8);
        self.valid_addr3_low = true;
    }

    fn write_addr3_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 6, 8, (self.cache_addr3_low & 0xff) | 0x0);
        self.valid_addr3_low = true;
    }

    fn read_addr3_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_addr3_high = dev.read(0, 6, 8);
        self.valid_addr3_high = true;
    }

    fn write_addr3_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 6, 8, (self.cache_addr3_high & 0xff) | 0x0);
        self.valid_addr3_high = true;
    }

    fn read_count3_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count3_low = dev.read(0, 7, 8);
        self.valid_count3_low = true;
    }

    fn write_count3_low(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 7, 8, (self.cache_count3_low & 0xff) | 0x0);
        self.valid_count3_low = true;
    }

    fn read_count3_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_count3_high = dev.read(0, 7, 8);
        self.valid_count3_high = true;
    }

    fn write_count3_high(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 7, 8, (self.cache_count3_high & 0xff) | 0x0);
        self.valid_count3_high = true;
    }

    fn write_command_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 8, 8, (self.cache_command_reg & 0xff) | 0x0);
        self.valid_command_reg = true;
    }

    fn read_status_reg(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_status_reg = dev.read(0, 8, 8);
        self.valid_status_reg = true;
    }

    fn write_request_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 9, 8, (self.cache_request_reg & 0x7) | 0x0);
        self.valid_request_reg = true;
    }

    fn write_single_mask_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 10, 8, (self.cache_single_mask_reg & 0x7) | 0x0);
        self.valid_single_mask_reg = true;
    }

    fn write_mode_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 11, 8, (self.cache_mode_reg & 0xff) | 0x0);
        self.valid_mode_reg = true;
    }

    fn write_master_clear_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 13, 8, (self.cache_master_clear_reg & 0x1) | 0x0);
        self.valid_master_clear_reg = true;
    }

    fn write_all_mask_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 15, 8, (self.cache_all_mask_reg & 0xf) | 0x0);
        self.valid_all_mask_reg = true;
    }

    /// Writes `flip_flop` to the device.
    pub fn set_flip_flop(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg = (self.cache_ff_reg & 0xfffffffffffffffe) | (v & 0x1);
        self.write_ff_reg(dev);
    }

    /// Reads `addr0` from the device.
    pub fn get_addr0(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_addr0_high && self.valid_addr0_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_addr0_low(dev);
            self.read_addr0_high(dev);
        }
        ((self.cache_addr0_high & 0xff) << 8) | (self.cache_addr0_low & 0xff)
    }

    /// Writes `addr0` to the device.
    pub fn set_addr0(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_addr0_low = (self.cache_addr0_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_addr0_low(dev);
        self.cache_addr0_high = (self.cache_addr0_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_addr0_high(dev);
    }

    /// Reads `count0` from the device.
    pub fn get_count0(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_count0_high && self.valid_count0_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_count0_low(dev);
            self.read_count0_high(dev);
        }
        ((self.cache_count0_high & 0xff) << 8) | (self.cache_count0_low & 0xff)
    }

    /// Writes `count0` to the device.
    pub fn set_count0(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_count0_low = (self.cache_count0_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_count0_low(dev);
        self.cache_count0_high = (self.cache_count0_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_count0_high(dev);
    }

    /// Reads `addr1` from the device.
    pub fn get_addr1(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_addr1_high && self.valid_addr1_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_addr1_low(dev);
            self.read_addr1_high(dev);
        }
        ((self.cache_addr1_high & 0xff) << 8) | (self.cache_addr1_low & 0xff)
    }

    /// Writes `addr1` to the device.
    pub fn set_addr1(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_addr1_low = (self.cache_addr1_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_addr1_low(dev);
        self.cache_addr1_high = (self.cache_addr1_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_addr1_high(dev);
    }

    /// Reads `count1` from the device.
    pub fn get_count1(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_count1_high && self.valid_count1_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_count1_low(dev);
            self.read_count1_high(dev);
        }
        ((self.cache_count1_high & 0xff) << 8) | (self.cache_count1_low & 0xff)
    }

    /// Writes `count1` to the device.
    pub fn set_count1(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_count1_low = (self.cache_count1_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_count1_low(dev);
        self.cache_count1_high = (self.cache_count1_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_count1_high(dev);
    }

    /// Reads `addr2` from the device.
    pub fn get_addr2(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_addr2_high && self.valid_addr2_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_addr2_low(dev);
            self.read_addr2_high(dev);
        }
        ((self.cache_addr2_high & 0xff) << 8) | (self.cache_addr2_low & 0xff)
    }

    /// Writes `addr2` to the device.
    pub fn set_addr2(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_addr2_low = (self.cache_addr2_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_addr2_low(dev);
        self.cache_addr2_high = (self.cache_addr2_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_addr2_high(dev);
    }

    /// Reads `count2` from the device.
    pub fn get_count2(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_count2_high && self.valid_count2_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_count2_low(dev);
            self.read_count2_high(dev);
        }
        ((self.cache_count2_high & 0xff) << 8) | (self.cache_count2_low & 0xff)
    }

    /// Writes `count2` to the device.
    pub fn set_count2(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_count2_low = (self.cache_count2_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_count2_low(dev);
        self.cache_count2_high = (self.cache_count2_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_count2_high(dev);
    }

    /// Reads `addr3` from the device.
    pub fn get_addr3(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_addr3_high && self.valid_addr3_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_addr3_low(dev);
            self.read_addr3_high(dev);
        }
        ((self.cache_addr3_high & 0xff) << 8) | (self.cache_addr3_low & 0xff)
    }

    /// Writes `addr3` to the device.
    pub fn set_addr3(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_addr3_low = (self.cache_addr3_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_addr3_low(dev);
        self.cache_addr3_high = (self.cache_addr3_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_addr3_high(dev);
    }

    /// Reads `count3` from the device.
    pub fn get_count3(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_count3_high && self.valid_count3_low) {
            self.cache_ff_reg &= 0xfffffffffffffffe;
            self.write_ff_reg(dev);
            self.read_count3_low(dev);
            self.read_count3_high(dev);
        }
        ((self.cache_count3_high & 0xff) << 8) | (self.cache_count3_low & 0xff)
    }

    /// Writes `count3` to the device.
    pub fn set_count3(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ff_reg &= 0xfffffffffffffffe;
        self.write_ff_reg(dev);
        self.cache_count3_low = (self.cache_count3_low & 0xffffffffffffff00) | (v & 0xff);
        self.write_count3_low(dev);
        self.cache_count3_high = (self.cache_count3_high & 0xffffffffffffff00) | ((v >> 8) & 0xff);
        self.write_count3_high(dev);
    }

    /// Writes `command` to the device.
    pub fn set_command(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_command_reg = (self.cache_command_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_command_reg(dev);
    }

    /// Reads `tc_status` from the device.
    pub fn get_tc_status(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_status_reg(dev);
        self.cache_status_reg & 0xf
    }

    /// Writes `request` to the device.
    pub fn set_request(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_request_reg = (self.cache_request_reg & 0xfffffffffffffff8) | (v & 0x7);
        self.write_request_reg(dev);
    }

    /// Writes `single_mask` to the device.
    pub fn set_single_mask(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_single_mask_reg = (self.cache_single_mask_reg & 0xfffffffffffffff8) | (v & 0x7);
        self.write_single_mask_reg(dev);
    }

    /// Writes `mode` to the device.
    pub fn set_mode(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_mode_reg = (self.cache_mode_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_mode_reg(dev);
    }

    /// Writes `master_clear` to the device.
    pub fn set_master_clear(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_master_clear_reg = (self.cache_master_clear_reg & 0xfffffffffffffffe) | (v & 0x1);
        self.write_master_clear_reg(dev);
    }

    /// Writes `all_mask` to the device.
    pub fn set_all_mask(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_all_mask_reg = (self.cache_all_mask_reg & 0xfffffffffffffff0) | (v & 0xf);
        self.write_all_mask_reg(dev);
    }

}
