// Generated by devilc from device `cs4236b`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Generated interface for `cs4236b`.
pub struct Cs4236b {
    pub cache_control: u64,
    pub valid_control: bool,
    pub cache_I: Vec<u64>,
    pub valid_I: Vec<bool>,
    pub cache_gw: u64,
    pub valid_gw: bool,
    pub cache_X: Vec<u64>,
    pub valid_X: Vec<bool>,
    pub mem_xm: u64,
}

impl Default for Cs4236b {
    fn default() -> Self {
        Self::new()
    }
}

impl Cs4236b {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self {
            cache_control: 0,
            valid_control: false,
            cache_I: vec![0; 32],
            valid_I: vec![false; 32],
            cache_gw: 0,
            valid_gw: false,
            cache_X: vec![0; 19],
            valid_X: vec![false; 19],
            mem_xm: 0,
        }
    }

    fn read_control(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_control = dev.read(0, 0, 8);
        self.valid_control = true;
    }

    fn write_control(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_control & 0x1f) | 0x0);
        self.valid_control = true;
    }

    fn read_I(&mut self, dev: &mut dyn DeviceAccess, k: usize, offset: u64) {
        self.cache_I[k] = dev.read(0, offset, 8);
        self.valid_I[k] = true;
    }

    fn write_I(&mut self, dev: &mut dyn DeviceAccess, k: usize, offset: u64) {
        dev.write(0, offset, 8, (self.cache_I[k] & 0xff) | 0x0);
        self.valid_I[k] = true;
    }

    fn write_gw(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_gw & 0xfc) | 0x0);
        self.valid_gw = true;
    }

    fn read_X(&mut self, dev: &mut dyn DeviceAccess, k: usize, offset: u64) {
        self.cache_X[k] = dev.read(0, offset, 8);
        self.valid_X[k] = true;
    }

    fn write_X(&mut self, dev: &mut dyn DeviceAccess, k: usize, offset: u64) {
        dev.write(0, offset, 8, (self.cache_X[k] & 0xff) | 0x0);
        self.valid_X[k] = true;
    }

    /// The cache index of an instance of family `I`.
    fn ix_I(v0: u64) -> usize {
        (v0) as usize
    }

    /// The cache index of an instance of family `X`.
    fn ix_X(v0: u64) -> usize {
        (match v0 { 0x0..=0x11 => v0, _ => 18 + (v0 - 0x19) }) as usize
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
        self.cache_control & 0x1f
    }

    /// Writes `IA` to the device.
    pub fn set_IA(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | (v & 0x1f);
        self.write_control(dev);
        self.mem_xm = 0x0;
    }

    /// Reads `ID` from the device.
    pub fn get_ID(&mut self, dev: &mut dyn DeviceAccess, a0: u64) -> Result<u64, devil_runtime::RtError> {
        if !matches!(a0, 0x0..=0x1f) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "ID".into(), value: a0 });
        }
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | (a0 & 0x1f);
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.read_I(dev, Self::ix_I(a0), 0x1);
        Ok(self.cache_I[Self::ix_I(a0)] & 0xff)
    }

    /// Writes `ID` to the device.
    pub fn set_ID(&mut self, dev: &mut dyn DeviceAccess, a0: u64, v: u64) -> Result<(), devil_runtime::RtError> {
        if !matches!(a0, 0x0..=0x1f) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "ID".into(), value: a0 });
        }
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | (a0 & 0x1f);
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.cache_I[Self::ix_I(a0)] = (self.cache_I[Self::ix_I(a0)] & 0xffffffffffffff00) | (v & 0xff);
        self.write_I(dev, Self::ix_I(a0), 0x1);
        Ok(())
    }

    /// Reads `XD` from the device.
    pub fn get_XD(&mut self, dev: &mut dyn DeviceAccess, a0: u64) -> Result<u64, devil_runtime::RtError> {
        if !matches!(a0, 0x0..=0x11 | 0x19) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "XD".into(), value: a0 });
        }
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | 0x17;
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.cache_gw = (self.cache_gw & 0xffffffffffffff03) | 0x8 | ((a0 >> 2) & 0x4) | ((a0 << 4) & 0xf0);
        self.write_gw(dev);
        self.mem_xm = 0x1;
        self.read_X(dev, Self::ix_X(a0), 0x1);
        Ok(self.cache_X[Self::ix_X(a0)] & 0xff)
    }

    /// Writes `XD` to the device.
    pub fn set_XD(&mut self, dev: &mut dyn DeviceAccess, a0: u64, v: u64) -> Result<(), devil_runtime::RtError> {
        if !matches!(a0, 0x0..=0x11 | 0x19) {
            return Err(devil_runtime::RtError::ArgOutOfRange { var: "XD".into(), value: a0 });
        }
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | 0x17;
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.cache_gw = (self.cache_gw & 0xffffffffffffff03) | 0x8 | ((a0 >> 2) & 0x4) | ((a0 << 4) & 0xf0);
        self.write_gw(dev);
        self.mem_xm = 0x1;
        self.cache_X[Self::ix_X(a0)] = (self.cache_X[Self::ix_X(a0)] & 0xffffffffffffff00) | (v & 0xff);
        self.write_X(dev, Self::ix_X(a0), 0x1);
        Ok(())
    }

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
        (self.cache_gw & 0x8) >> 3
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

    /// Flushes the `XS` structure from the cache (stage fields first).
    pub fn put_XS(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_control = (self.cache_control & 0xffffffffffffffe0) | 0x17;
        self.write_control(dev);
        self.mem_xm = 0x0;
        self.write_gw(dev);
        self.mem_xm = 0x1;
    }

}
