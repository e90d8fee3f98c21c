// Generated by devilc from device `pic8259`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Values of the `ic4` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pic8259Ic4 {
    /// `'1'`
    Yes,
    /// `'0'`
    No,
}
impl Pic8259Ic4 {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Pic8259Ic4::Yes => 0x1,
            Pic8259Ic4::No => 0x0,
        }
    }
}

/// Values of the `sngl` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pic8259Sngl {
    /// `'1'`
    Single,
    /// `'0'`
    Cascaded,
}
impl Pic8259Sngl {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Pic8259Sngl::Single => 0x1,
            Pic8259Sngl::Cascaded => 0x0,
        }
    }
}

/// Values of the `microprocessor` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pic8259Microprocessor {
    /// `'1'`
    X8086,
    /// `'0'`
    Mcs80,
}
impl Pic8259Microprocessor {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Pic8259Microprocessor::X8086 => 0x1,
            Pic8259Microprocessor::Mcs80 => 0x0,
        }
    }
}

/// Generated interface for `pic8259`.
#[derive(Default)]
pub struct Pic8259 {
    pub cache_icw1: u64,
    pub valid_icw1: bool,
    pub cache_icw2: u64,
    pub valid_icw2: bool,
    pub cache_icw3: u64,
    pub valid_icw3: bool,
    pub cache_icw4: u64,
    pub valid_icw4: bool,
    pub cache_ocw1: u64,
    pub valid_ocw1: bool,
}

impl Pic8259 {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn write_icw1(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 0, 8, (self.cache_icw1 & 0x1f) | 0x10);
        self.valid_icw1 = true;
    }

    fn write_icw2(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_icw2 & 0xf8) | 0x0);
        self.valid_icw2 = true;
    }

    fn write_icw3(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_icw3 & 0xff) | 0x0);
        self.valid_icw3 = true;
    }

    fn write_icw4(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_icw4 & 0x1f) | 0x0);
        self.valid_icw4 = true;
    }

    fn write_ocw1(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 8, (self.cache_ocw1 & 0xff) | 0x0);
        self.valid_ocw1 = true;
    }

    /// Gets `ic4` from the cache (fill it with the structure reader).
    pub fn get_ic4(&mut self) -> u64 {
        self.cache_icw1 & 0x1
    }

    /// Stages `ic4` in the cache (flush with the structure writer).
    pub fn stage_ic4(&mut self, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & !0x1) | (v & 0x1);
        self.valid_icw1 = true;
    }

    /// Writes `ic4` to the device.
    pub fn set_ic4(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & 0xfffffffffffffffe) | (v & 0x1);
        self.write_icw1(dev);
    }

    /// Gets `sngl` from the cache (fill it with the structure reader).
    pub fn get_sngl(&mut self) -> u64 {
        (self.cache_icw1 & 0x2) >> 1
    }

    /// Stages `sngl` in the cache (flush with the structure writer).
    pub fn stage_sngl(&mut self, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & !0x2) | ((v << 1) & 0x2);
        self.valid_icw1 = true;
    }

    /// Writes `sngl` to the device.
    pub fn set_sngl(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & 0xfffffffffffffffd) | ((v << 1) & 0x2);
        self.write_icw1(dev);
    }

    /// Gets `adi` from the cache (fill it with the structure reader).
    pub fn get_adi(&mut self) -> u64 {
        (self.cache_icw1 & 0x4) >> 2
    }

    /// Stages `adi` in the cache (flush with the structure writer).
    pub fn stage_adi(&mut self, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & !0x4) | ((v << 2) & 0x4);
        self.valid_icw1 = true;
    }

    /// Writes `adi` to the device.
    pub fn set_adi(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & 0xfffffffffffffffb) | ((v << 2) & 0x4);
        self.write_icw1(dev);
    }

    /// Gets `ltim` from the cache (fill it with the structure reader).
    pub fn get_ltim(&mut self) -> u64 {
        (self.cache_icw1 & 0x8) >> 3
    }

    /// Stages `ltim` in the cache (flush with the structure writer).
    pub fn stage_ltim(&mut self, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & !0x8) | ((v << 3) & 0x8);
        self.valid_icw1 = true;
    }

    /// Writes `ltim` to the device.
    pub fn set_ltim(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw1 = (self.cache_icw1 & 0xfffffffffffffff7) | ((v << 3) & 0x8);
        self.write_icw1(dev);
    }

    /// Gets `vector_base` from the cache (fill it with the structure reader).
    pub fn get_vector_base(&mut self) -> u64 {
        (self.cache_icw2 & 0xf8) >> 3
    }

    /// Stages `vector_base` in the cache (flush with the structure writer).
    pub fn stage_vector_base(&mut self, v: u64) {
        self.cache_icw2 = (self.cache_icw2 & !0xf8) | ((v << 3) & 0xf8);
        self.valid_icw2 = true;
    }

    /// Writes `vector_base` to the device.
    pub fn set_vector_base(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw2 = (self.cache_icw2 & 0xffffffffffffff07) | ((v << 3) & 0xf8);
        self.write_icw2(dev);
    }

    /// Gets `cascade_map` from the cache (fill it with the structure reader).
    pub fn get_cascade_map(&mut self) -> u64 {
        self.cache_icw3 & 0xff
    }

    /// Stages `cascade_map` in the cache (flush with the structure writer).
    pub fn stage_cascade_map(&mut self, v: u64) {
        self.cache_icw3 = (self.cache_icw3 & !0xff) | (v & 0xff);
        self.valid_icw3 = true;
    }

    /// Writes `cascade_map` to the device.
    pub fn set_cascade_map(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw3 = (self.cache_icw3 & 0xffffffffffffff00) | (v & 0xff);
        self.write_icw3(dev);
    }

    /// Gets `sfnm` from the cache (fill it with the structure reader).
    pub fn get_sfnm(&mut self) -> u64 {
        (self.cache_icw4 & 0x10) >> 4
    }

    /// Stages `sfnm` in the cache (flush with the structure writer).
    pub fn stage_sfnm(&mut self, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & !0x10) | ((v << 4) & 0x10);
        self.valid_icw4 = true;
    }

    /// Writes `sfnm` to the device.
    pub fn set_sfnm(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & 0xffffffffffffffef) | ((v << 4) & 0x10);
        self.write_icw4(dev);
    }

    /// Gets `buffered` from the cache (fill it with the structure reader).
    pub fn get_buffered(&mut self) -> u64 {
        (self.cache_icw4 & 0xc) >> 2
    }

    /// Stages `buffered` in the cache (flush with the structure writer).
    pub fn stage_buffered(&mut self, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & !0xc) | ((v << 2) & 0xc);
        self.valid_icw4 = true;
    }

    /// Writes `buffered` to the device.
    pub fn set_buffered(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & 0xfffffffffffffff3) | ((v << 2) & 0xc);
        self.write_icw4(dev);
    }

    /// Gets `aeoi` from the cache (fill it with the structure reader).
    pub fn get_aeoi(&mut self) -> u64 {
        (self.cache_icw4 & 0x2) >> 1
    }

    /// Stages `aeoi` in the cache (flush with the structure writer).
    pub fn stage_aeoi(&mut self, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & !0x2) | ((v << 1) & 0x2);
        self.valid_icw4 = true;
    }

    /// Writes `aeoi` to the device.
    pub fn set_aeoi(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & 0xfffffffffffffffd) | ((v << 1) & 0x2);
        self.write_icw4(dev);
    }

    /// Gets `microprocessor` from the cache (fill it with the structure reader).
    pub fn get_microprocessor(&mut self) -> u64 {
        self.cache_icw4 & 0x1
    }

    /// Stages `microprocessor` in the cache (flush with the structure writer).
    pub fn stage_microprocessor(&mut self, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & !0x1) | (v & 0x1);
        self.valid_icw4 = true;
    }

    /// Writes `microprocessor` to the device.
    pub fn set_microprocessor(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_icw4 = (self.cache_icw4 & 0xfffffffffffffffe) | (v & 0x1);
        self.write_icw4(dev);
    }

    /// Gets `irq_mask` from the cache (fill it with the structure reader).
    pub fn get_irq_mask(&mut self) -> u64 {
        self.cache_ocw1 & 0xff
    }

    /// Stages `irq_mask` in the cache (flush with the structure writer).
    pub fn stage_irq_mask(&mut self, v: u64) {
        self.cache_ocw1 = (self.cache_ocw1 & !0xff) | (v & 0xff);
        self.valid_ocw1 = true;
    }

    /// Writes `irq_mask` to the device.
    pub fn set_irq_mask(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_ocw1 = (self.cache_ocw1 & 0xffffffffffffff00) | (v & 0xff);
        self.write_ocw1(dev);
    }

    /// Flushes the `init` structure from the cache (stage fields first).
    pub fn put_init(&mut self, dev: &mut dyn DeviceAccess) {
        if (self.cache_icw1 & 0x2) == 0x0 && (self.cache_icw1 & 0x1) == 0x0 {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_icw3(dev);
            self.write_ocw1(dev);
        } else if (self.cache_icw1 & 0x2) == 0x0 && (self.cache_icw1 & 0x1) == 0x1 {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_icw3(dev);
            self.write_icw4(dev);
            self.write_ocw1(dev);
        } else if (self.cache_icw1 & 0x2) == 0x2 && (self.cache_icw1 & 0x1) == 0x0 {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_ocw1(dev);
        } else {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_icw4(dev);
            self.write_ocw1(dev);
        }
    }

    /// Fused superplan `icw_init`: one guard evaluation, batched I/O.
    pub fn sp_icw_init(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) {
        self.cache_icw1 = (self.cache_icw1 & 0xfffffffffffffffe) | (a0 & 0x1);
        self.valid_icw1 = true;
        self.cache_icw1 = (self.cache_icw1 & 0xfffffffffffffffd) | ((a1 << 1) & 0x2);
        self.valid_icw1 = true;
        self.cache_icw1 &= 0xfffffffffffffffb;
        self.valid_icw1 = true;
        self.cache_icw1 &= 0xfffffffffffffff7;
        self.valid_icw1 = true;
        self.cache_icw2 = (self.cache_icw2 & 0xffffffffffffff07) | ((a2 << 3) & 0xf8);
        self.valid_icw2 = true;
        self.cache_icw3 = (self.cache_icw3 & 0xffffffffffffff00) | (a3 & 0xff);
        self.valid_icw3 = true;
        self.cache_icw4 &= 0xffffffffffffffef;
        self.valid_icw4 = true;
        self.cache_icw4 &= 0xfffffffffffffff3;
        self.valid_icw4 = true;
        self.cache_icw4 = (self.cache_icw4 & 0xfffffffffffffffd) | ((a4 << 1) & 0x2);
        self.valid_icw4 = true;
        self.cache_icw4 = (self.cache_icw4 & 0xfffffffffffffffe) | (a5 & 0x1);
        self.valid_icw4 = true;
        self.cache_ocw1 = (self.cache_ocw1 & 0xffffffffffffff00) | (a6 & 0xff);
        self.valid_ocw1 = true;
        if (self.cache_icw1 & 0x2) == 0x0 && (self.cache_icw1 & 0x1) == 0x0 {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_icw3(dev);
            self.write_ocw1(dev);
        } else if (self.cache_icw1 & 0x2) == 0x0 && (self.cache_icw1 & 0x1) == 0x1 {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_icw3(dev);
            self.write_icw4(dev);
            self.write_ocw1(dev);
        } else if (self.cache_icw1 & 0x2) == 0x2 && (self.cache_icw1 & 0x1) == 0x0 {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_ocw1(dev);
        } else {
            self.write_icw1(dev);
            self.write_icw2(dev);
            self.write_icw4(dev);
            self.write_ocw1(dev);
        }
    }

}
