// Generated by devilc from device `fam2`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `fam2`.
pub struct Fam2 {
    pub cache_g: Vec<u64>,
    pub valid_g: Vec<bool>,
}

impl Default for Fam2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fam2 {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self {
            cache_g: vec![0; 6],
            valid_g: vec![false; 6],
        }
    }

    fn read_g(&mut self, dev: &mut dyn DeviceAccess, k: usize, offset: u64) {
        self.cache_g[k] = dev.read(0, offset, 8);
        self.valid_g[k] = true;
    }

    fn write_g(&mut self, dev: &mut dyn DeviceAccess, k: usize, offset: u64) {
        dev.write(0, offset, 8, (self.cache_g[k] & 0xff) | 0x0);
        self.valid_g[k] = true;
    }

    /// The cache index of an instance of family `g`.
    fn ix_g(v0: u64, v1: u64) -> usize {
        ((v0) * 3 + (match v1 { 0x2..=0x3 => 0 + (v1 - 0x2), _ => 2 + (v1 - 0x7) }) * 1) as usize
    }

    /// Reads `w` from the device.
    pub fn get_w(&mut self, dev: &mut dyn DeviceAccess, a0: u64) -> Result<u64, devil_runtime::RtError> {
        if !matches!(a0, 0x2..=0x3 | 0x7) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "w".into(), value: a0 });
        }
        self.read_g(dev, Self::ix_g(0x1, a0), 0x1);
        Ok(self.cache_g[Self::ix_g(0x1, a0)] & 0xf)
    }

    /// Writes `w` to the device.
    pub fn set_w(&mut self, dev: &mut dyn DeviceAccess, a0: u64, v: u64) -> Result<(), devil_runtime::RtError> {
        if !matches!(a0, 0x2..=0x3 | 0x7) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "w".into(), value: a0 });
        }
        self.cache_g[Self::ix_g(0x1, a0)] = (self.cache_g[Self::ix_g(0x1, a0)] & 0xfffffffffffffff0) | (v & 0xf);
        self.write_g(dev, Self::ix_g(0x1, a0), 0x1);
        Ok(())
    }

    /// Reads `u` from the device.
    pub fn get_u(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64) -> Result<u64, devil_runtime::RtError> {
        if !matches!(a0, 0x0..=0x1) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "u".into(), value: a0 });
        }
        if !matches!(a1, 0x2..=0x3 | 0x7) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "u".into(), value: a1 });
        }
        if !(self.valid_g[Self::ix_g(a0, a1)]) {
            self.read_g(dev, Self::ix_g(a0, a1), a0);
        }
        Ok((self.cache_g[Self::ix_g(a0, a1)] & 0xf0) >> 4)
    }

    /// Writes `u` to the device.
    pub fn set_u(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64, v: u64) -> Result<(), devil_runtime::RtError> {
        if !matches!(a0, 0x0..=0x1) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "u".into(), value: a0 });
        }
        if !matches!(a1, 0x2..=0x3 | 0x7) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "u".into(), value: a1 });
        }
        self.cache_g[Self::ix_g(a0, a1)] = (self.cache_g[Self::ix_g(a0, a1)] & 0xffffffffffffff0f) | ((v << 4) & 0xf0);
        self.write_g(dev, Self::ix_g(a0, a1), a0);
        Ok(())
    }

}
