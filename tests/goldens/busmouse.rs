// Generated by devilc from device `logitech_busmouse`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Values of the `config` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogitechBusmouseConfig {
    /// `'1'`
    Configuration,
    /// `'0'`
    DefaultMode,
}
impl LogitechBusmouseConfig {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            LogitechBusmouseConfig::Configuration => 0x1,
            LogitechBusmouseConfig::DefaultMode => 0x0,
        }
    }
}

/// Values of the `interrupt` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogitechBusmouseInterrupt {
    /// `'0'`
    Enable,
    /// `'1'`
    Disable,
}
impl LogitechBusmouseInterrupt {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            LogitechBusmouseInterrupt::Enable => 0x0,
            LogitechBusmouseInterrupt::Disable => 0x1,
        }
    }
}

/// Generated interface for `logitech_busmouse`.
#[derive(Default)]
pub struct LogitechBusmouse {
    pub cache_sig_reg: u64,
    pub valid_sig_reg: bool,
    pub cache_cr: u64,
    pub valid_cr: bool,
    pub cache_interrupt_reg: u64,
    pub valid_interrupt_reg: bool,
    pub cache_index_reg: u64,
    pub valid_index_reg: bool,
    pub cache_x_low: u64,
    pub valid_x_low: bool,
    pub cache_x_high: u64,
    pub valid_x_high: bool,
    pub cache_y_low: u64,
    pub valid_y_low: bool,
    pub cache_y_high: u64,
    pub valid_y_high: bool,
}

impl LogitechBusmouse {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_sig_reg(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_sig_reg = dev.read(0, 1, 8);
        self.valid_sig_reg = true;
    }

    fn write_sig_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_sig_reg & 0xff) | 0x0);
        self.valid_sig_reg = true;
    }

    fn write_cr(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 3, 8, (self.cache_cr & 0x91) | 0x90);
        self.valid_cr = true;
    }

    fn write_interrupt_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 8, (self.cache_interrupt_reg & 0x10) | 0x0);
        self.valid_interrupt_reg = true;
    }

    fn write_index_reg(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 8, (self.cache_index_reg & 0xe0) | 0x80);
        self.valid_index_reg = true;
    }

    fn read_x_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_x_low = dev.read(0, 0, 8);
        self.valid_x_low = true;
    }

    fn read_x_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_x_high = dev.read(0, 0, 8);
        self.valid_x_high = true;
    }

    fn read_y_low(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_y_low = dev.read(0, 0, 8);
        self.valid_y_low = true;
    }

    fn read_y_high(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_y_high = dev.read(0, 0, 8);
        self.valid_y_high = true;
    }

    /// Reads `signature` from the device.
    pub fn get_signature(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_sig_reg(dev);
        self.cache_sig_reg & 0xff
    }

    /// Writes `signature` to the device.
    pub fn set_signature(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_sig_reg = (self.cache_sig_reg & 0xffffffffffffff00) | (v & 0xff);
        self.write_sig_reg(dev);
    }

    /// Writes `config` to the device.
    pub fn set_config(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_cr = (self.cache_cr & 0xfffffffffffffffe) | (v & 0x1);
        self.write_cr(dev);
    }

    /// Writes `interrupt` to the device.
    pub fn set_interrupt(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_interrupt_reg = (self.cache_interrupt_reg & 0xffffffffffffffef) | ((v << 4) & 0x10);
        self.write_interrupt_reg(dev);
    }

    /// Writes `index` to the device.
    pub fn set_index(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | ((v << 5) & 0x60);
        self.write_index_reg(dev);
    }

    /// Gets `dx` from the cache (fill it with the structure reader).
    pub fn get_dx(&mut self) -> i64 {
        devil_runtime::sign_extend(((self.cache_x_high & 0xf) << 4) | (self.cache_x_low & 0xf), 8)
    }

    /// Stages `dx` in the cache (flush with the structure writer).
    pub fn stage_dx(&mut self, v: u64) {
        self.cache_x_high = (self.cache_x_high & !0xf) | ((v >> 4) & 0xf);
        self.valid_x_high = true;
        self.cache_x_low = (self.cache_x_low & !0xf) | (v & 0xf);
        self.valid_x_low = true;
    }

    /// Reads `dx` from the device.
    pub fn read_dx(&mut self, dev: &mut dyn DeviceAccess) -> i64 {
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x20;
        self.write_index_reg(dev);
        self.read_x_high(dev);
        self.cache_index_reg &= 0xffffffffffffff9f;
        self.write_index_reg(dev);
        self.read_x_low(dev);
        devil_runtime::sign_extend(((self.cache_x_high & 0xf) << 4) | (self.cache_x_low & 0xf), 8)
    }

    /// Gets `dy` from the cache (fill it with the structure reader).
    pub fn get_dy(&mut self) -> i64 {
        devil_runtime::sign_extend(((self.cache_y_high & 0xf) << 4) | (self.cache_y_low & 0xf), 8)
    }

    /// Stages `dy` in the cache (flush with the structure writer).
    pub fn stage_dy(&mut self, v: u64) {
        self.cache_y_high = (self.cache_y_high & !0xf) | ((v >> 4) & 0xf);
        self.valid_y_high = true;
        self.cache_y_low = (self.cache_y_low & !0xf) | (v & 0xf);
        self.valid_y_low = true;
    }

    /// Reads `dy` from the device.
    pub fn read_dy(&mut self, dev: &mut dyn DeviceAccess) -> i64 {
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x60;
        self.write_index_reg(dev);
        self.read_y_high(dev);
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x40;
        self.write_index_reg(dev);
        self.read_y_low(dev);
        devil_runtime::sign_extend(((self.cache_y_high & 0xf) << 4) | (self.cache_y_low & 0xf), 8)
    }

    /// Gets `buttons` from the cache (fill it with the structure reader).
    pub fn get_buttons(&mut self) -> u64 {
        (self.cache_y_high & 0xe0) >> 5
    }

    /// Stages `buttons` in the cache (flush with the structure writer).
    pub fn stage_buttons(&mut self, v: u64) {
        self.cache_y_high = (self.cache_y_high & !0xe0) | ((v << 5) & 0xe0);
        self.valid_y_high = true;
    }

    /// Reads `buttons` from the device.
    pub fn read_buttons(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x60;
        self.write_index_reg(dev);
        self.read_y_high(dev);
        (self.cache_y_high & 0xe0) >> 5
    }

    /// Reads the `mouse_state` structure into the cache.
    pub fn get_mouse_state(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x20;
        self.write_index_reg(dev);
        self.read_x_high(dev);
        self.cache_index_reg &= 0xffffffffffffff9f;
        self.write_index_reg(dev);
        self.read_x_low(dev);
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x60;
        self.write_index_reg(dev);
        self.read_y_high(dev);
        self.cache_index_reg = (self.cache_index_reg & 0xffffffffffffff9f) | 0x40;
        self.write_index_reg(dev);
        self.read_y_low(dev);
    }

}
