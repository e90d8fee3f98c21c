// Generated by devilc from device `permedia2`. Do not edit.
#![allow(clippy::identity_op, clippy::eq_op, clippy::too_many_arguments, non_snake_case)]
use devil_runtime::DeviceAccess;

/// Values of the `render_op` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Permedia2RenderOp {
    /// `'1'`
    Fill,
    /// `'10'`
    Copy,
}
impl Permedia2RenderOp {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Permedia2RenderOp::Fill => 0x1,
            Permedia2RenderOp::Copy => 0x2,
        }
    }
}

/// Values of the `depth` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Permedia2Depth {
    /// `'0'`
    Bpp8,
    /// `'1'`
    Bpp16,
    /// `'10'`
    Bpp24,
    /// `'11'`
    Bpp32,
}
impl Permedia2Depth {
    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        match self {
            Permedia2Depth::Bpp8 => 0x0,
            Permedia2Depth::Bpp16 => 0x1,
            Permedia2Depth::Bpp24 => 0x2,
            Permedia2Depth::Bpp32 => 0x3,
        }
    }
}

/// Generated interface for `permedia2`.
#[derive(Default)]
pub struct Permedia2 {
    pub cache_fifo: u64,
    pub valid_fifo: bool,
    pub cache_rect_pos: u64,
    pub valid_rect_pos: bool,
    pub cache_rect_size: u64,
    pub valid_rect_size: bool,
    pub cache_block_color: u64,
    pub valid_block_color: bool,
    pub cache_render: u64,
    pub valid_render: bool,
    pub cache_copy_src: u64,
    pub valid_copy_src: bool,
    pub cache_config: u64,
    pub valid_config: bool,
    pub cache_scratch0: u64,
    pub valid_scratch0: bool,
    pub cache_scratch1: u64,
    pub valid_scratch1: bool,
    pub cache_scratch2: u64,
    pub valid_scratch2: bool,
}

impl Permedia2 {
    /// Creates an interface with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_fifo(&mut self, dev: &mut dyn DeviceAccess) {
        self.cache_fifo = dev.read(0, 0, 32);
        self.valid_fifo = true;
    }

    fn write_rect_pos(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 1, 32, (self.cache_rect_pos & 0xffffffff) | 0x0);
        self.valid_rect_pos = true;
    }

    fn write_rect_size(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 2, 32, (self.cache_rect_size & 0xffffffff) | 0x0);
        self.valid_rect_size = true;
    }

    fn write_block_color(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 3, 32, (self.cache_block_color & 0xffffffff) | 0x0);
        self.valid_block_color = true;
    }

    fn write_render(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 4, 32, (self.cache_render & 0x3) | 0x0);
        self.valid_render = true;
    }

    fn write_copy_src(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 5, 32, (self.cache_copy_src & 0xffffffff) | 0x0);
        self.valid_copy_src = true;
    }

    fn write_config(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 6, 32, (self.cache_config & 0x3) | 0x0);
        self.valid_config = true;
    }

    fn write_scratch0(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 7, 32, (self.cache_scratch0 & 0xffffffff) | 0x0);
        self.valid_scratch0 = true;
    }

    fn write_scratch1(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 8, 32, (self.cache_scratch1 & 0xffffffff) | 0x0);
        self.valid_scratch1 = true;
    }

    fn write_scratch2(&mut self, dev: &mut dyn DeviceAccess) {
        dev.write(0, 9, 32, (self.cache_scratch2 & 0xffffffff) | 0x0);
        self.valid_scratch2 = true;
    }

    /// Reads `fifo_space` from the device.
    pub fn get_fifo_space(&mut self, dev: &mut dyn DeviceAccess) -> u64 {
        self.read_fifo(dev);
        self.cache_fifo & 0xffffffff
    }

    /// Writes `dst_x` to the device.
    pub fn set_dst_x(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_rect_pos = (self.cache_rect_pos & 0xffffffffffff0000) | (v & 0xffff);
        self.write_rect_pos(dev);
    }

    /// Writes `dst_y` to the device.
    pub fn set_dst_y(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_rect_pos = (self.cache_rect_pos & 0xffffffff0000ffff) | ((v << 16) & 0xffff0000);
        self.write_rect_pos(dev);
    }

    /// Writes `rect_w` to the device.
    pub fn set_rect_w(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_rect_size = (self.cache_rect_size & 0xffffffffffff0000) | (v & 0xffff);
        self.write_rect_size(dev);
    }

    /// Writes `rect_h` to the device.
    pub fn set_rect_h(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_rect_size = (self.cache_rect_size & 0xffffffff0000ffff) | ((v << 16) & 0xffff0000);
        self.write_rect_size(dev);
    }

    /// Writes `fill_color` to the device.
    pub fn set_fill_color(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_block_color = (self.cache_block_color & 0xffffffff00000000) | (v & 0xffffffff);
        self.write_block_color(dev);
    }

    /// Writes `render_op` to the device.
    pub fn set_render_op(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_render = (self.cache_render & 0xfffffffffffffffc) | (v & 0x3);
        self.write_render(dev);
    }

    /// Writes `src_x` to the device.
    pub fn set_src_x(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_copy_src = (self.cache_copy_src & 0xffffffffffff0000) | (v & 0xffff);
        self.write_copy_src(dev);
    }

    /// Writes `src_y` to the device.
    pub fn set_src_y(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_copy_src = (self.cache_copy_src & 0xffffffff0000ffff) | ((v << 16) & 0xffff0000);
        self.write_copy_src(dev);
    }

    /// Writes `depth` to the device.
    pub fn set_depth(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_config = (self.cache_config & 0xfffffffffffffffc) | (v & 0x3);
        self.write_config(dev);
    }

    /// Writes `logical_op` to the device.
    pub fn set_logical_op(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_scratch0 = (self.cache_scratch0 & 0xffffffff00000000) | (v & 0xffffffff);
        self.write_scratch0(dev);
    }

    /// Writes `write_mask` to the device.
    pub fn set_write_mask(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_scratch1 = (self.cache_scratch1 & 0xffffffff00000000) | (v & 0xffffffff);
        self.write_scratch1(dev);
    }

    /// Writes `span_mode` to the device.
    pub fn set_span_mode(&mut self, dev: &mut dyn DeviceAccess, v: u64) {
        self.cache_scratch2 = (self.cache_scratch2 & 0xffffffff00000000) | (v & 0xffffffff);
        self.write_scratch2(dev);
    }

    /// Fused superplan `fill24_burst`: one guard evaluation, batched I/O.
    pub fn sp_fill24_burst(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64, a2: u64, a3: u64, a4: u64) {
        self.cache_scratch0 = (self.cache_scratch0 & 0xffffffff00000000) | 0x3;
        self.write_scratch0(dev);
        self.cache_scratch1 &= 0xffffffff00000000;
        self.write_scratch1(dev);
        self.cache_scratch2 &= 0xffffffff00000000;
        self.write_scratch2(dev);
        self.cache_scratch0 &= 0xffffffff00000000;
        self.write_scratch0(dev);
        self.cache_rect_pos = (self.cache_rect_pos & 0xffffffffffff0000) | (a0 & 0xffff);
        self.write_rect_pos(dev);
        self.cache_rect_pos = (self.cache_rect_pos & 0xffffffff0000ffff) | ((a1 << 16) & 0xffff0000);
        self.write_rect_pos(dev);
        self.cache_rect_size = (self.cache_rect_size & 0xffffffffffff0000) | (a2 & 0xffff);
        self.write_rect_size(dev);
        self.cache_rect_size = (self.cache_rect_size & 0xffffffff0000ffff) | ((a3 << 16) & 0xffff0000);
        self.write_rect_size(dev);
        self.cache_block_color = (self.cache_block_color & 0xffffffff00000000) | (a4 & 0xffffffff);
        self.write_block_color(dev);
    }

    /// Fused superplan `fill_std_setup`: one guard evaluation, batched I/O.
    pub fn sp_fill_std_setup(&mut self, dev: &mut dyn DeviceAccess, a0: u64, a1: u64, a2: u64, a3: u64) {
        self.cache_scratch0 = (self.cache_scratch0 & 0xffffffff00000000) | 0x3;
        self.write_scratch0(dev);
        self.cache_scratch1 = (self.cache_scratch1 & 0xffffffff00000000) | 0xffffffff;
        self.write_scratch1(dev);
        self.cache_scratch2 = (self.cache_scratch2 & 0xffffffff00000000) | 0x3;
        self.write_scratch2(dev);
        self.cache_scratch0 = (self.cache_scratch0 & 0xffffffff00000000) | 0xffffffff;
        self.write_scratch0(dev);
        self.cache_scratch1 = (self.cache_scratch1 & 0xffffffff00000000) | 0x3;
        self.write_scratch1(dev);
        self.cache_scratch2 = (self.cache_scratch2 & 0xffffffff00000000) | 0xffffffff;
        self.write_scratch2(dev);
        self.cache_rect_pos = (self.cache_rect_pos & 0xffffffffffff0000) | (a0 & 0xffff);
        self.write_rect_pos(dev);
        self.cache_rect_pos = (self.cache_rect_pos & 0xffffffff0000ffff) | ((a1 << 16) & 0xffff0000);
        self.write_rect_pos(dev);
        self.cache_rect_size = (self.cache_rect_size & 0xffffffffffff0000) | (a2 & 0xffff);
        self.write_rect_size(dev);
        self.cache_rect_size = (self.cache_rect_size & 0xffffffff0000ffff) | ((a3 << 16) & 0xffff0000);
        self.write_rect_size(dev);
    }

    /// Fused superplan `fill_std_finish`: one guard evaluation, batched I/O.
    pub fn sp_fill_std_finish(&mut self, dev: &mut dyn DeviceAccess, a0: u64) {
        self.cache_block_color = (self.cache_block_color & 0xffffffff00000000) | (a0 & 0xffffffff);
        self.write_block_color(dev);
        self.cache_scratch0 &= 0xffffffff00000000;
        self.write_scratch0(dev);
        self.cache_scratch1 &= 0xffffffff00000000;
        self.write_scratch1(dev);
        self.cache_scratch2 &= 0xffffffff00000000;
        self.write_scratch2(dev);
        self.cache_scratch1 = (self.cache_scratch1 & 0xffffffff00000000) | 0x1;
        self.write_scratch1(dev);
        self.cache_scratch2 = (self.cache_scratch2 & 0xffffffff00000000) | 0x1;
        self.write_scratch2(dev);
    }

}
