//! The [`DeviceAccess`] abstraction and its `hwsim` adapter.
//!
//! Devil hides *how* a device is mapped (the paper's port layer): the
//! same specification drives port-I/O and memory-mapped devices. The
//! runtime reaches hardware exclusively through this trait; `PortMap`
//! adapts it to a simulated [`hwsim::Bus`], binding each Devil port
//! parameter to a physical base address and address space.

use hwsim::{Bus, Width};
use std::borrow::Cow;

/// Low-level access to a device's ports.
///
/// `port` is the index of the Devil port parameter (declaration order),
/// `offset` the register offset within that port's range, and
/// `width_bits` the access width (8/16/32).
pub trait DeviceAccess {
    /// Reads one value.
    fn read(&mut self, port: usize, offset: u64, width_bits: u32) -> u64;

    /// Writes one value.
    fn write(&mut self, port: usize, offset: u64, width_bits: u32, value: u64);

    /// Block read (`rep ins`-style). The default implementation loops
    /// over single reads; mapped implementations should use a genuine
    /// block operation.
    fn read_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &mut [u64]) {
        for slot in buf.iter_mut() {
            *slot = self.read(port, offset, width_bits);
        }
    }

    /// Block write (`rep outs`-style).
    fn write_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &[u64]) {
        for &v in buf {
            self.write(port, offset, width_bits, v);
        }
    }
}

/// Which address space a Devil port is bound to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// x86-style port I/O.
    Io,
    /// Memory-mapped I/O.
    Mem,
}

/// A binding of one Devil port parameter to a physical address range.
#[derive(Clone, Copy, Debug)]
pub struct MappedPort {
    /// Physical base address.
    pub base: u64,
    /// Address space.
    pub space: Space,
}

impl MappedPort {
    /// A port-I/O binding at `base`.
    pub const fn io(base: u64) -> Self {
        MappedPort { base, space: Space::Io }
    }

    /// A memory-mapped binding at `base`.
    pub const fn mem(base: u64) -> Self {
        MappedPort { base, space: Space::Mem }
    }
}

/// Adapts a [`hwsim::Bus`] to [`DeviceAccess`] given per-port bindings.
///
/// The bindings are owned or borrowed: a driver that keeps its
/// `[MappedPort; N]` lends it to every call's map, so building the map
/// allocates nothing.
pub struct PortMap<'b> {
    bus: &'b mut Bus,
    ports: Cow<'b, [MappedPort]>,
}

impl<'b> PortMap<'b> {
    /// Creates a map binding Devil port `i` to `ports[i]`; `ports` is a
    /// `Vec` the map owns or a slice it borrows.
    pub fn new(bus: &'b mut Bus, ports: impl Into<Cow<'b, [MappedPort]>>) -> Self {
        PortMap { bus, ports: ports.into() }
    }

    /// The underlying bus (for measurements mid-session).
    pub fn bus(&mut self) -> &mut Bus {
        self.bus
    }

    fn width(width_bits: u32) -> Width {
        Width::from_bits(width_bits)
            .unwrap_or_else(|| panic!("unsupported access width {width_bits}"))
    }
}

impl DeviceAccess for PortMap<'_> {
    fn read(&mut self, port: usize, offset: u64, width_bits: u32) -> u64 {
        let p = self.ports[port];
        let w = Self::width(width_bits);
        match p.space {
            Space::Io => self.bus.io_read(p.base + offset, w),
            Space::Mem => self.bus.mem_read(p.base + offset * w.bytes(), w),
        }
    }

    fn write(&mut self, port: usize, offset: u64, width_bits: u32, value: u64) {
        let p = self.ports[port];
        let w = Self::width(width_bits);
        match p.space {
            Space::Io => self.bus.io_write(p.base + offset, value, w),
            Space::Mem => self.bus.mem_write(p.base + offset * w.bytes(), value, w),
        }
    }

    fn read_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &mut [u64]) {
        let p = self.ports[port];
        let w = Self::width(width_bits);
        match p.space {
            Space::Io => self.bus.ins(p.base + offset, w, buf),
            Space::Mem => {
                for slot in buf.iter_mut() {
                    *slot = self.bus.mem_read(p.base + offset * w.bytes(), w);
                }
            }
        }
    }

    fn write_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &[u64]) {
        let p = self.ports[port];
        let w = Self::width(width_bits);
        match p.space {
            Space::Io => self.bus.outs(p.base + offset, w, buf),
            Space::Mem => {
                for &v in buf {
                    self.bus.mem_write(p.base + offset * w.bytes(), v, w);
                }
            }
        }
    }
}

/// An in-memory fake for tests: a register file per (port, offset).
#[derive(Clone, Debug, Default)]
pub struct FakeAccess {
    /// Backing store keyed by `(port, offset)`.
    pub regs: std::collections::HashMap<(usize, u64), u64>,
    /// Log of `(is_write, port, offset, value)` operations.
    pub log: Vec<(bool, usize, u64, u64)>,
}

impl FakeAccess {
    /// A fresh empty fake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Presets a register value.
    pub fn preset(&mut self, port: usize, offset: u64, value: u64) {
        self.regs.insert((port, offset), value);
    }

    /// Number of operations performed.
    pub fn ops(&self) -> usize {
        self.log.len()
    }
}

impl DeviceAccess for FakeAccess {
    fn read(&mut self, port: usize, offset: u64, _width_bits: u32) -> u64 {
        let v = *self.regs.get(&(port, offset)).unwrap_or(&0);
        self.log.push((false, port, offset, v));
        v
    }

    fn write(&mut self, port: usize, offset: u64, _width_bits: u32, value: u64) {
        self.regs.insert((port, offset), value);
        self.log.push((true, port, offset, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{CostModel, Device};

    struct Scratch([u8; 4]);
    impl Device for Scratch {
        fn name(&self) -> &str {
            "scratch"
        }
        fn io_read(&mut self, o: u64, _w: Width) -> u64 {
            self.0[o as usize] as u64
        }
        fn io_write(&mut self, o: u64, v: u64, _w: Width) {
            self.0[o as usize] = v as u8;
        }
        fn mem_read(&mut self, o: u64, _w: Width) -> u64 {
            self.0[o as usize] as u64
        }
        fn mem_write(&mut self, o: u64, v: u64, _w: Width) {
            self.0[o as usize] = v as u8;
        }
    }

    /// A map over `ports` in either form `PortMap::new` takes: an owned
    /// `Vec` or a borrowed slice. Both must behave the same.
    fn map<'b>(bus: &'b mut Bus, ports: &'b [MappedPort], owned: bool) -> PortMap<'b> {
        if owned {
            PortMap::new(bus, ports.to_vec())
        } else {
            PortMap::new(bus, ports)
        }
    }

    #[test]
    fn port_map_io_space() {
        for owned in [true, false] {
            let mut bus = Bus::new(CostModel::default());
            bus.attach_io(Box::new(Scratch([0; 4])), 0x23c, 4);
            let ports = [MappedPort::io(0x23c)];
            let mut map = map(&mut bus, &ports, owned);
            map.write(0, 2, 8, 0x5a);
            assert_eq!(map.read(0, 2, 8), 0x5a);
            assert_eq!(bus.ledger().io_ops(), 2);
        }
    }

    #[test]
    fn port_map_mem_space_scales_offsets() {
        for owned in [true, false] {
            let mut bus = Bus::new(CostModel::default());
            bus.attach_mem(Box::new(Scratch([0; 4])), 0x8000, 4);
            let ports = [MappedPort::mem(0x8000)];
            let mut map = map(&mut bus, &ports, owned);
            // 8-bit port: offset 3 = byte 3.
            map.write(0, 3, 8, 0x77);
            assert_eq!(map.read(0, 3, 8), 0x77);
            assert_eq!(bus.ledger().mmio_ops(), 2);
        }
    }

    #[test]
    fn port_map_block_uses_string_ops() {
        for owned in [true, false] {
            let mut bus = Bus::new(CostModel::default());
            bus.attach_io(Box::new(Scratch([9; 4])), 0x1f0, 4);
            let ports = [MappedPort::io(0x1f0)];
            let mut map = map(&mut bus, &ports, owned);
            let mut buf = [0u64; 16];
            map.read_block(0, 0, 8, &mut buf);
            assert!(buf.iter().all(|&v| v == 9));
            let l = bus.ledger();
            assert_eq!(l.block_in_words, 16);
            assert_eq!(l.io_ops(), 0);
        }
    }

    #[test]
    fn fake_access_logs() {
        let mut f = FakeAccess::new();
        f.preset(0, 1, 42);
        assert_eq!(f.read(0, 1, 8), 42);
        f.write(0, 1, 8, 7);
        assert_eq!(f.read(0, 1, 8), 7);
        assert_eq!(f.ops(), 3);
        assert_eq!(f.log[1], (true, 0, 1, 7));
    }

    #[test]
    fn default_block_impl_loops() {
        let mut f = FakeAccess::new();
        f.preset(0, 0, 3);
        let mut buf = [0u64; 4];
        f.read_block(0, 0, 8, &mut buf);
        assert_eq!(buf, [3; 4]);
        assert_eq!(f.ops(), 4);
        f.write_block(0, 0, 8, &[1, 2]);
        assert_eq!(f.read(0, 0, 8), 2);
    }
}
