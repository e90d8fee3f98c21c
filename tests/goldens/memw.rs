// Generated by devilc from device `memw`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `memw`.
#[derive(Default)]
pub struct Memw {
    pub cache_a: u64,
    pub valid_a: bool,
    pub cache_c: u64,
    pub valid_c: bool,
    pub mem_m: u64,
}

impl Memw {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn write_a(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_a & 0xff) | 0x0);
        self.valid_a = true;
    }

    fn write_c(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_c & 0xff) | 0x0);
        self.valid_c = true;
    }

    /// Reads the private memory cell `m`.
    pub fn get_m(&mut self) -> u64 {
        self.mem_m
    }

    /// Writes the private memory cell `m`.
    pub fn set_m(&mut self, v: u64) {
        self.mem_m = v & 0x1;
    }

    /// Writes `resta` to the device.
    pub fn set_resta(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((v << 1) & 0xfe);
        self.write_a(dev);
    }

    /// Writes `restc` to the device.
    pub fn set_restc(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_c = (self.cache_c & 0xffffffffffffff01) | ((v << 1) & 0xfe);
        self.write_c(dev);
    }

    /// Writes `w` to the device.
    pub fn set_w(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        if self.mem_m == 0x0 {
            self.cache_c = (self.cache_c & 0xfffffffffffffffe) | ((v >> 1) & 0x1);
            self.valid_c = true;
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (v & 0x1);
            self.write_a(dev);
        } else {
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (v & 0x1);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xfffffffffffffffe) | ((v >> 1) & 0x1);
            self.write_c(dev);
        }
    }

    /// Fused superplan `burst`: one guard evaluation, batched I/O.
    pub fn sp_burst(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64) {
        if self.mem_m == 0x0 {
            self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((a0 << 1) & 0xfe);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xfffffffffffffffe) | ((a1 >> 1) & 0x1);
            self.valid_c = true;
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (a1 & 0x1);
            self.write_a(dev);
        } else {
            self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((a0 << 1) & 0xfe);
            self.write_a(dev);
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (a1 & 0x1);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xfffffffffffffffe) | ((a1 >> 1) & 0x1);
            self.write_c(dev);
        }
    }

}
