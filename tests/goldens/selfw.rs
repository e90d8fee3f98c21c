// Generated by devilc from device `selfw`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `selfw`.
#[derive(Default)]
pub struct Selfw {
    pub cache_a: u64,
    pub valid_a: bool,
}

impl Selfw {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn write_a(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_a & 0xff) | 0x0);
        self.valid_a = true;
    }

    /// Writes `rest` to the device.
    pub fn set_rest(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((v << 1) & 0xfe);
        self.write_a(dev);
    }

    /// Writes `w` to the device.
    pub fn set_w(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        if (v & 0x1) == 0x0 {
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (v & 0x1);
            self.valid_a = true;
        } else {
            self.cache_a = (self.cache_a & 0xfffffffffffffffe) | (v & 0x1);
            self.write_a(dev);
        }
    }

    /// Fused superplan `burst`: one guard evaluation, batched I/O.
    pub fn sp_burst(&mut self, dev: &mut dyn DeviceAccess, a0: u64) {
        self.cache_a = (self.cache_a & 0xffffffffffffff01) | ((a0 << 1) & 0xfe);
        self.write_a(dev);
        self.cache_a = (self.cache_a & 0xfffffffffffffffe) | 0x1;
        self.write_a(dev);
    }

}
