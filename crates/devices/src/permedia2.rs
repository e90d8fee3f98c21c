//! Behavioural model of the 3Dlabs Permedia2 2D engine.
//!
//! Unlike the ISA-style devices, the Permedia2 maps registers into the
//! memory address space and decodes processor writes into an input
//! FIFO (the paper, Section 4.3). Before touching the chip the driver
//! must poll `InFIFOSpace` for free entries — the `#w` iterations per
//! wait loop in Tables 3 and 4.
//!
//! The model implements the subset the Xfree86 driver accelerates:
//! **rectangle fill** and **screen-to-screen copy**, at 8/16/24/32 bits
//! per pixel, with a 32-entry FIFO drained on simulated time. Command
//! execution time is proportional to drawn bytes, calibrated near the
//! paper's absolute rates (≈400 MB/s fill, ≈105 MB/s copy throughput).

use hwsim::{Device, Width};
use std::collections::VecDeque;

/// Register byte-offsets within the MMIO claim (32-bit registers at
/// 4-byte strides, matching the Devil port offsets 0..9 scaled by the
/// access width).
pub mod reg {
    /// Read: number of free input-FIFO entries.
    pub const IN_FIFO_SPACE: u64 = 0x00;
    /// Write: destination rectangle position, `y << 16 | x`.
    pub const RECT_POS: u64 = 0x04;
    /// Write: rectangle size, `h << 16 | w`.
    pub const RECT_SIZE: u64 = 0x08;
    /// Write: fill color (framebuffer block color).
    pub const BLOCK_COLOR: u64 = 0x0c;
    /// Write: render command — executes the staged primitive.
    pub const RENDER: u64 = 0x10;
    /// Write: copy source position, `y << 16 | x`.
    pub const COPY_SRC: u64 = 0x14;
    /// Write: pixel-depth configuration (0=8bpp,1=16,2=24,3=32).
    pub const CONFIG: u64 = 0x18;
    /// Write: scratch / logical-op setup (modelled as no-ops with FIFO
    /// cost, so drivers can issue the realistic 15-write setup stream).
    pub const SCRATCH0: u64 = 0x1c;
    /// Write: scratch register.
    pub const SCRATCH1: u64 = 0x20;
    /// Write: scratch register.
    pub const SCRATCH2: u64 = 0x24;
}

/// Render command bits.
pub mod render {
    /// Execute a rectangle fill.
    pub const FILL: u32 = 0x01;
    /// Execute a screen-to-screen copy.
    pub const COPY: u32 = 0x02;
}

/// FIFO depth of the input FIFO.
pub const FIFO_DEPTH: usize = 32;

/// The simulated Permedia2.
pub struct Permedia2 {
    width: u32,
    height: u32,
    fb: Vec<u32>,
    bpp_code: u32,
    rect_pos: u32,
    rect_size: u32,
    color: u32,
    copy_src: u32,
    fifo: VecDeque<(u64, u32)>,
    /// The copy engine's staging buffer, kept between copies.
    copy_buf: Vec<u32>,
    /// Simulated time at which the engine becomes idle.
    busy_until: f64,
    now: f64,
    /// ns per written framebuffer byte for fills.
    fill_ns_per_byte: f64,
    /// ns per copied framebuffer byte (read+write) for copies.
    copy_ns_per_byte: f64,
    /// Total rectangles drawn.
    pub rects_done: u64,
    /// Total copies done.
    pub copies_done: u64,
    /// Writes dropped because the FIFO was full (driver protocol bug).
    pub overruns: u64,
}

impl Permedia2 {
    /// Creates a screen of `width`×`height` pixels.
    pub fn new(width: u32, height: u32) -> Self {
        Permedia2 {
            width,
            height,
            fb: vec![0; (width * height) as usize],
            bpp_code: 0,
            rect_pos: 0,
            rect_size: 0,
            color: 0,
            copy_src: 0,
            fifo: VecDeque::new(),
            copy_buf: Vec::new(),
            busy_until: 0.0,
            now: 0.0,
            fill_ns_per_byte: 2.5,
            copy_ns_per_byte: 4.7,
            rects_done: 0,
            copies_done: 0,
            overruns: 0,
        }
    }

    /// The current bits-per-pixel (8/16/24/32).
    pub fn bpp(&self) -> u32 {
        [8, 16, 24, 32][self.bpp_code as usize]
    }

    /// Bytes per pixel at the current depth.
    fn bytes_per_pixel(&self) -> f64 {
        self.bpp() as f64 / 8.0
    }

    /// Reads one framebuffer pixel (test inspection).
    pub fn pixel(&self, x: u32, y: u32) -> u32 {
        self.fb[(y * self.width + x) as usize]
    }

    /// Free FIFO entries right now.
    pub fn fifo_space(&self) -> usize {
        FIFO_DEPTH - self.fifo.len()
    }

    fn drain(&mut self) {
        while let Some(&(r, v)) = self.fifo.front() {
            // The engine processes the next entry only when idle and
            // only if it became idle at or before `now`.
            if self.busy_until > self.now {
                break;
            }
            self.fifo.pop_front();
            self.process(r, v);
        }
    }

    fn process(&mut self, r: u64, v: u32) {
        match r {
            reg::RECT_POS => self.rect_pos = v,
            reg::RECT_SIZE => self.rect_size = v,
            reg::BLOCK_COLOR => self.color = v,
            reg::COPY_SRC => self.copy_src = v,
            reg::CONFIG => self.bpp_code = v & 0x3,
            reg::RENDER => {
                let (x, y) = (self.rect_pos & 0xffff, self.rect_pos >> 16);
                let (w, h) = (self.rect_size & 0xffff, self.rect_size >> 16);
                let pixels = (w * h) as f64;
                if v & render::FILL != 0 {
                    self.fill(x, y, w, h);
                    self.rects_done += 1;
                    self.busy_until = self.now.max(self.busy_until)
                        + pixels * self.bytes_per_pixel() * self.fill_ns_per_byte;
                } else if v & render::COPY != 0 {
                    let (sx, sy) = (self.copy_src & 0xffff, self.copy_src >> 16);
                    self.copy(sx, sy, x, y, w, h);
                    self.copies_done += 1;
                    self.busy_until = self.now.max(self.busy_until)
                        + pixels * self.bytes_per_pixel() * self.copy_ns_per_byte;
                }
            }
            _ => {} // scratch/no-op setup registers
        }
    }

    fn fill(&mut self, x: u32, y: u32, w: u32, h: u32) {
        let color = self.color & (((1u64 << self.bpp()) - 1) as u32);
        for yy in y..(y + h).min(self.height) {
            for xx in x..(x + w).min(self.width) {
                self.fb[(yy * self.width + xx) as usize] = color;
            }
        }
    }

    fn copy(&mut self, sx: u32, sy: u32, dx: u32, dy: u32, w: u32, h: u32) {
        // Copy via a staging buffer so overlapping regions behave.
        self.copy_buf.clear();
        for yy in 0..h {
            for xx in 0..w {
                let (px, py) = ((sx + xx).min(self.width - 1), (sy + yy).min(self.height - 1));
                self.copy_buf.push(self.fb[(py * self.width + px) as usize]);
            }
        }
        for yy in 0..h {
            for xx in 0..w {
                let (px, py) = (dx + xx, dy + yy);
                if px < self.width && py < self.height {
                    self.fb[(py * self.width + px) as usize] =
                        self.copy_buf[(yy * w + xx) as usize];
                }
            }
        }
    }
}

impl Device for Permedia2 {
    fn name(&self) -> &str {
        "permedia2"
    }

    fn tick(&mut self, now_ns: f64) {
        self.now = now_ns;
        self.drain();
    }

    fn mem_read(&mut self, offset: u64, _width: Width) -> u64 {
        match offset {
            reg::IN_FIFO_SPACE => self.fifo_space() as u64,
            _ => 0,
        }
    }

    fn mem_write(&mut self, offset: u64, value: u64, _width: Width) {
        if offset == reg::IN_FIFO_SPACE {
            return; // read-only
        }
        if self.fifo.len() >= FIFO_DEPTH {
            self.overruns += 1;
            return;
        }
        self.fifo.push_back((offset, value as u32));
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{Bus, CostModel};

    const BASE: u64 = 0xf000_0000;

    fn setup() -> Bus {
        let mut bus = Bus::new(CostModel::default());
        bus.attach_mem(Box::new(Permedia2::new(1024, 768)), BASE, 4096);
        bus
    }

    fn wr(bus: &mut Bus, r: u64, v: u32) {
        bus.mem_write(BASE + r, v as u64, Width::W32);
    }

    fn rd(bus: &mut Bus, r: u64) -> u32 {
        bus.mem_read(BASE + r, Width::W32) as u32
    }

    #[test]
    fn fifo_space_starts_full() {
        let mut bus = setup();
        assert_eq!(rd(&mut bus, reg::IN_FIFO_SPACE), FIFO_DEPTH as u32);
    }

    #[test]
    fn fill_rectangle_draws_pixels() {
        let mut bus = setup();
        wr(&mut bus, reg::CONFIG, 3); // 32bpp
        wr(&mut bus, reg::RECT_POS, (5 << 16) | 10);
        wr(&mut bus, reg::RECT_SIZE, (4 << 16) | 8);
        wr(&mut bus, reg::BLOCK_COLOR, 0x00ff_00aa);
        wr(&mut bus, reg::RENDER, render::FILL);
        bus.idle(1_000_000.0); // let the engine drain
                               // Verify pixels via a direct device instance.
        let mut pm = Permedia2::new(64, 64);
        pm.mem_write(reg::CONFIG, 3, Width::W32);
        pm.mem_write(reg::RECT_POS, (5 << 16) | 10, Width::W32);
        pm.mem_write(reg::RECT_SIZE, (4 << 16) | 8, Width::W32);
        pm.mem_write(reg::BLOCK_COLOR, 0x00ff_00aa, Width::W32);
        pm.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        pm.tick(1.0e9);
        assert_eq!(pm.pixel(10, 5), 0x00ff_00aa);
        assert_eq!(pm.pixel(17, 8), 0x00ff_00aa);
        assert_eq!(pm.pixel(18, 5), 0, "outside the rect");
        assert_eq!(pm.pixel(10, 9), 0, "outside the rect");
        assert_eq!(pm.rects_done, 1);
    }

    #[test]
    fn color_is_masked_to_depth() {
        let mut pm = Permedia2::new(16, 16);
        pm.mem_write(reg::CONFIG, 0, Width::W32); // 8bpp
        assert_eq!(pm.bpp(), 8);
        pm.mem_write(reg::RECT_POS, 0, Width::W32);
        pm.mem_write(reg::RECT_SIZE, (1 << 16) | 1, Width::W32);
        pm.mem_write(reg::BLOCK_COLOR, 0x1234, Width::W32);
        pm.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        pm.tick(1.0e9);
        assert_eq!(pm.pixel(0, 0), 0x34);
    }

    #[test]
    fn screen_copy_moves_pixels() {
        let mut pm = Permedia2::new(64, 64);
        pm.mem_write(reg::CONFIG, 1, Width::W32);
        // Fill a 2x2 at (0,0).
        pm.mem_write(reg::RECT_POS, 0, Width::W32);
        pm.mem_write(reg::RECT_SIZE, (2 << 16) | 2, Width::W32);
        pm.mem_write(reg::BLOCK_COLOR, 0x7777, Width::W32);
        pm.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        pm.tick(1.0e9);
        // Copy it to (10, 10).
        pm.mem_write(reg::COPY_SRC, 0, Width::W32);
        pm.mem_write(reg::RECT_POS, (10 << 16) | 10, Width::W32);
        pm.mem_write(reg::RECT_SIZE, (2 << 16) | 2, Width::W32);
        pm.mem_write(reg::RENDER, render::COPY as u64, Width::W32);
        pm.tick(2.0e9);
        assert_eq!(pm.pixel(10, 10), 0x7777);
        assert_eq!(pm.pixel(11, 11), 0x7777);
        assert_eq!(pm.copies_done, 1);
    }

    #[test]
    fn fifo_fills_under_back_to_back_commands() {
        let mut pm = Permedia2::new(512, 512);
        pm.tick(0.0);
        // Issue a huge fill, then stuff the FIFO without advancing time.
        pm.mem_write(reg::CONFIG, 3, Width::W32);
        pm.mem_write(reg::RECT_POS, 0, Width::W32);
        pm.mem_write(reg::RECT_SIZE, (400u64 << 16) | 400, Width::W32);
        pm.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        let before = pm.fifo_space();
        for _ in 0..10 {
            pm.mem_write(reg::SCRATCH0, 0, Width::W32);
        }
        assert!(pm.fifo_space() < before, "engine busy, entries queue up");
        // After enough simulated time the FIFO drains.
        pm.tick(1.0e12);
        assert_eq!(pm.fifo_space(), FIFO_DEPTH);
        assert_eq!(pm.overruns, 0);
    }

    #[test]
    fn fifo_overrun_counts_dropped_writes() {
        let mut pm = Permedia2::new(512, 512);
        pm.tick(0.0);
        pm.mem_write(reg::CONFIG, 3, Width::W32);
        pm.mem_write(reg::RECT_POS, 0, Width::W32);
        pm.mem_write(reg::RECT_SIZE, (400u64 << 16) | 400, Width::W32);
        pm.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        for _ in 0..(FIFO_DEPTH + 5) {
            pm.mem_write(reg::SCRATCH0, 0, Width::W32);
        }
        assert!(pm.overruns > 0);
    }

    #[test]
    fn bigger_rects_keep_engine_busy_longer() {
        let mut small = Permedia2::new(512, 512);
        small.tick(0.0);
        small.mem_write(reg::CONFIG, 3, Width::W32);
        small.mem_write(reg::RECT_SIZE, (2u64 << 16) | 2, Width::W32);
        small.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        let small_busy = small.busy_until;
        let mut big = Permedia2::new(512, 512);
        big.tick(0.0);
        big.mem_write(reg::CONFIG, 3, Width::W32);
        big.mem_write(reg::RECT_SIZE, (400u64 << 16) | 400, Width::W32);
        big.mem_write(reg::RENDER, render::FILL as u64, Width::W32);
        assert!(big.busy_until > small_busy * 100.0);
    }

    #[test]
    fn through_bus_round_trip() {
        let mut bus = setup();
        wr(&mut bus, reg::CONFIG, 0);
        wr(&mut bus, reg::RECT_POS, 0);
        wr(&mut bus, reg::RECT_SIZE, (1 << 16) | 1);
        wr(&mut bus, reg::BLOCK_COLOR, 0x42);
        wr(&mut bus, reg::RENDER, render::FILL);
        bus.idle(1.0e6);
        assert_eq!(rd(&mut bus, reg::IN_FIFO_SPACE), FIFO_DEPTH as u32);
        assert_eq!(bus.ledger().mem_write, 5);
        assert_eq!(bus.ledger().mem_read, 1);
    }
}
