// Generated by devilc from device `cs4236b`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op)]
use devil_runtime::DeviceAccess;

/// Generated interface for `cs4236b`.
#[derive(Default)]
pub struct Cs4236b {
    pub cache_control: u64,
    pub valid_control: bool,
    pub cache_gw: u64,
    pub valid_gw: bool,
    pub mem_xm: u64,
}

impl Cs4236b {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_control(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_control = dev.read(0, 0, 8);
        self.valid_control = true;
    }

    fn write_control(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_control & 0x1f) | 0x0);
        self.valid_control = true;
    }

    fn write_gw(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_gw & 0xfc) | 0x0);
        self.valid_gw = true;
    }

    /// Reads the private memory cell `xm`.
    pub fn get_xm(&mut self) -> u64 {
        self.mem_xm
    }

    /// Writes the private memory cell `xm`.
    pub fn set_xm(&mut self, v: u64) {
        self.mem_xm = v & 0x1;
    }

    /// Reads `IA` from the device.
    pub fn get_IA(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        if !(self.valid_control) {
            self.read_control(dev);
            self.mem_xm = 0x0;
        }
        (self.cache_control & 0x1f)
    }

    /// Writes `IA` to the device.
    pub fn set_IA(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | (v & 0x1f);
        self.write_control(dev);
        self.mem_xm = 0x0;
    }

    // Parameterized variable `ID`: served by the interpreter API.
    // Parameterized variable `XD`: served by the interpreter API.
    /// Gets `XA` from the cache (fill it with the structure reader).
    pub fn get_XA(&mut self) -> u64 {
        ((self.cache_gw & 0x4) << 2) | ((self.cache_gw & 0xf0) >> 4)
    }

    /// Stages `XA` in the cache (flush with the structure writer).
    pub fn stage_XA(&mut self, v: u64) {
        self.cache_gw = (self.cache_gw & !0x4) | ((v >> 2) & 0x4);
        self.valid_gw = true;
        self.cache_gw = (self.cache_gw & !0xf0) | ((v << 4) & 0xf0);
        self.valid_gw = true;
    }

    /// Writes `XA` to the device.
    pub fn set_XA(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | 0x17;
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.cache_gw = (self.cache_gw & 0xffffffffffffff03) | ((v >> 2) & 0x4) | ((v << 4) & 0xf0);
        self.write_gw(dev);
        self.mem_xm = 0x1;
    }

    /// Gets `XRAE` from the cache (fill it with the structure reader).
    pub fn get_XRAE(&mut self) -> u64 {
        ((self.cache_gw & 0x8) >> 3)
    }

    /// Stages `XRAE` in the cache (flush with the structure writer).
    pub fn stage_XRAE(&mut self, v: u64) {
        self.cache_gw = (self.cache_gw & !0x8) | ((v << 3) & 0x8);
        self.valid_gw = true;
    }

    /// Writes `XRAE` to the device.
    pub fn set_XRAE(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | 0x17;
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.cache_gw = (self.cache_gw & 0xfffffffffffffff7) | ((v << 3) & 0x8);
        self.write_gw(dev);
        self.mem_xm = 0x1;
    }

    // Structure `XS` (read): not plan-compiled; served by the interpreter API.
    /// Flushes the `XS` structure from the cache (stage fields first).
    pub fn put_XS(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | 0x17;
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.write_gw(dev);
        self.mem_xm = 0x1;
    }

}
