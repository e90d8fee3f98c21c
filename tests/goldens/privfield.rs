// Generated by devilc from device `privfield`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `privfield`.
#[derive(Default)]
pub struct Privfield {
    pub cache_a: u64,
    pub valid_a: bool,
    pub mem_pm: u64,
}

impl Privfield {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_a(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_a = dev.read(0, 0, 8);
        self.valid_a = true;
    }

    fn write_a(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_a & 0xff) | 0x0);
        self.valid_a = true;
    }

    /// Reads the private memory cell `pm`.
    pub fn get_pm(&mut self) -> u64 {
        self.mem_pm
    }

    /// Stages `pm` in the cell (flush with the structure writer).
    pub fn stage_pm(&mut self, v: u64) {
        self.mem_pm = v & 0x1;
    }

    /// Writes the private memory cell `pm`.
    pub fn set_pm(&mut self, v: u64) {
        self.mem_pm = v & 0x1;
    }

    /// Gets `fa` from the cache (fill it with the structure reader).
    pub fn get_fa(&mut self) -> u64 {
        self.cache_a & 0xff
    }

    /// Stages `fa` in the cache (flush with the structure writer).
    pub fn stage_fa(&mut self, v: u64) {
        self.cache_a = (self.cache_a & !0xff) | (v & 0xff);
        self.valid_a = true;
    }

    /// Reads `fa` from the device.
    pub fn read_fa(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_a) {
            self.read_a(dev);
            self.mem_pm = 0x1;
        }
        self.cache_a & 0xff
    }

    /// Writes `fa` to the device.
    pub fn set_fa(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_a = (self.cache_a & 0xffffffffffffff00) | (v & 0xff);
        self.write_a(dev);
        self.mem_pm = 0x1;
    }

    /// Reads the `s` structure into the cache.
    pub fn get_s(&mut self, dev: &mut dyn DeviceAccess) {
        self.read_a(dev);
        self.mem_pm = 0x1;
    }

    /// Flushes the `s` structure from the cache (stage fields first).
    pub fn put_s(&mut self, dev: &mut dyn DeviceAccess) {
        self.write_a(dev);
        self.mem_pm = 0x1;
    }

}
