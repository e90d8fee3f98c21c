// Generated by devilc from device `selfact`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `selfact`.
#[derive(Default)]
pub struct Selfact {
    pub cache_a: u64,
    pub valid_a: bool,
    pub cache_c: u64,
    pub valid_c: bool,
}

impl Selfact {
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

    /// Gets `w` from the cache (fill it with the structure reader).
    pub fn get_w(&mut self) -> u64 {
        self.cache_a & 0x1
    }

    /// Stages `w` in the cache (flush with the structure writer).
    pub fn stage_w(&mut self, v: u64) {
        self.cache_a = (self.cache_a & !0x1) | (v & 0x1);
        self.valid_a = true;
    }

    /// Writes `w` to the device.
    pub fn set_w(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        if (v & 0x1) == 0x0 {
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (v & 0x1);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.valid_c = true;
        } else {
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (v & 0x1);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.write_c(dev);
        }
    }

    /// Gets `rest` from the cache (fill it with the structure reader).
    pub fn get_rest(&mut self) -> u64 {
        (self.cache_a & 0xfe) >> 1
    }

    /// Stages `rest` in the cache (flush with the structure writer).
    pub fn stage_rest(&mut self, v: u64) {
        self.cache_a = (self.cache_a & !0xfe) | ((v << 1) & 0xfe);
        self.valid_a = true;
    }

    /// Writes `rest` to the device.
    pub fn set_rest(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        if (self.cache_a & 0x1) == 0x0 {
            self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((v << 1) & 0xfe);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.valid_c = true;
        } else {
            self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((v << 1) & 0xfe);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.write_c(dev);
        }
    }

    /// Gets `v` from the cache (fill it with the structure reader).
    pub fn get_v(&mut self) -> u64 {
        self.cache_c & 0xff
    }

    /// Stages `v` in the cache (flush with the structure writer).
    pub fn stage_v(&mut self, v: u64) {
        self.cache_c = (self.cache_c & !0xff) | (v & 0xff);
        self.valid_c = true;
    }

    /// Writes `v` to the device.
    pub fn set_v(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_c = (self.cache_c & 0xffffffffffffff00) | (v & 0xff);
        self.write_c(dev);
    }

    /// Flushes the `s` structure from the cache (stage fields first).
    pub fn put_s(&mut self, dev: &mut dyn DeviceAccess) {
        if (self.cache_a & 0x1) == 0x0 {
        } else {
            self.write_c(dev);
        }
    }

    /// Fused superplan `burst`: one guard evaluation, batched I/O.
    pub fn sp_burst(&mut self, dev: &mut dyn DeviceAccess, a0: u64) {
        if (self.cache_a & 0x1) == 0x0 {
            self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((a0 << 1) & 0xfe);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.valid_c = true;
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | 0x1;
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.write_c(dev);
        } else {
            self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((a0 << 1) & 0xfe);
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.write_c(dev);
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | 0x1;
            self.write_a(dev);
            self.cache_c = (self.cache_c & 0xffffffffffffff00) | 0x5;
            self.write_c(dev);
        }
    }

}
