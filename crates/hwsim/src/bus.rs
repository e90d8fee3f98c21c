//! The system bus: address claims, access dispatch, cost accounting.
//!
//! Drivers talk to devices exclusively through a [`Bus`]: port I/O
//! (`inb`/`outb` and friends), block string operations (`insw`/`outsw`,
//! modelling x86 `rep ins`/`rep outs`), and memory-mapped access. Every
//! operation is charged to the [`Ledger`] and the [`SimClock`], which is
//! what the experiment harnesses measure.

use crate::clock::{CostModel, SimClock};
use crate::device::Device;
use crate::ledger::Ledger;
use crate::mmr::{self, Hash, MmrForest, MmrLog, Segment};
use crate::width::Width;

/// An address-range claim registered by a device.
#[derive(Debug)]
struct Claim {
    base: u64,
    len: u64,
    device: usize,
}

impl Claim {
    fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }
}

/// The simulated system bus.
pub struct Bus {
    devices: Vec<Box<dyn Device>>,
    io_claims: Vec<Claim>,
    mem_claims: Vec<Claim>,
    ledger: Ledger,
    clock: SimClock,
    costs: CostModel,
    /// Authenticated trace: one [`MmrLog`] entry per bus transaction
    /// when enabled. `None` (the default) keeps the hot path at a
    /// single branch per op.
    trace: Option<Box<MmrLog>>,
}

/// Trace entry kinds; an unclaimed access sets [`TRACE_UNCLAIMED`] on
/// its kind rather than appending a second entry, so a traced bus
/// appends exactly [`Ledger::len`] entries.
const TRACE_IO_READ: u8 = 0;
const TRACE_IO_WRITE: u8 = 1;
const TRACE_BLOCK_IN: u8 = 2;
const TRACE_BLOCK_OUT: u8 = 3;
const TRACE_MEM_READ: u8 = 4;
const TRACE_MEM_WRITE: u8 = 5;
const TRACE_DMA: u8 = 6;
/// Flag bit marking an access to an unclaimed address.
pub const TRACE_UNCLAIMED: u8 = 0x80;
/// Fixed raw size of one trace entry: kind, width, address, and two
/// payload words (value, or block length + payload checksum).
const TRACE_ENTRY_BYTES: usize = 26;

/// Handle to a device attached to a [`Bus`], for typed re-borrowing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceId(usize);

impl Default for Bus {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Bus {
    /// Creates an empty bus with the given cost model.
    pub fn new(costs: CostModel) -> Self {
        Bus {
            devices: Vec::new(),
            io_claims: Vec::new(),
            mem_claims: Vec::new(),
            ledger: Ledger::new(),
            clock: SimClock::new(),
            costs,
            trace: None,
        }
    }

    /// Attaches a device with no address claims (claims can be added
    /// afterwards with [`Bus::claim_io`] / [`Bus::claim_mem`]).
    pub fn attach(&mut self, dev: Box<dyn Device>) -> DeviceId {
        self.devices.push(dev);
        DeviceId(self.devices.len() - 1)
    }

    /// Attaches a device and claims `len` port addresses at `base`.
    pub fn attach_io(&mut self, dev: Box<dyn Device>, base: u64, len: u64) -> DeviceId {
        let id = self.attach(dev);
        self.claim_io(id, base, len);
        id
    }

    /// Attaches a device and claims `len` bytes of memory space at `base`.
    pub fn attach_mem(&mut self, dev: Box<dyn Device>, base: u64, len: u64) -> DeviceId {
        let id = self.attach(dev);
        self.claim_mem(id, base, len);
        id
    }

    /// Adds a port-space claim for an attached device.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing claim — simulated
    /// machines are configured statically and an overlap is a harness
    /// bug.
    pub fn claim_io(&mut self, id: DeviceId, base: u64, len: u64) {
        assert!(
            !self.io_claims.iter().any(|c| base < c.base + c.len && c.base < base + len),
            "overlapping I/O claim at {base:#x}"
        );
        self.io_claims.push(Claim { base, len, device: id.0 });
    }

    /// Adds a memory-space claim for an attached device.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing claim.
    pub fn claim_mem(&mut self, id: DeviceId, base: u64, len: u64) {
        assert!(
            !self.mem_claims.iter().any(|c| base < c.base + c.len && c.base < base + len),
            "overlapping memory claim at {base:#x}"
        );
        self.mem_claims.push(Claim { base, len, device: id.0 });
    }

    /// Borrows an attached device for direct inspection (tests and
    /// harnesses; drivers must go through bus accesses).
    pub fn device_mut(&mut self, id: DeviceId) -> &mut dyn Device {
        self.devices[id.0].as_mut()
    }

    // ---- measurement ----

    /// The cumulative operation ledger.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.clock.now_ns()
    }

    /// Advances simulated time without bus traffic (e.g. the driver
    /// sleeping while waiting for an interrupt) and ticks devices.
    pub fn idle(&mut self, ns: f64) {
        self.clock.advance(ns);
        let now = self.clock.now_ns();
        for d in &mut self.devices {
            d.tick(now);
        }
    }

    // ---- authenticated trace ----

    /// Turns on the authenticated trace: from now on every bus
    /// transaction bump-appends one fixed-size entry into an
    /// [`MmrLog`]; hashing is deferred to fold points (watermark,
    /// [`Bus::trace_root`], [`Bus::drain_trace_into`],
    /// [`Bus::drain_trace_segment`]), never per-op. `retain` keeps
    /// leaf/node hashes for bisection and drains; `false` streams in
    /// O(peaks) memory. The entry arena starts sized to one drain window
    /// of 64 entries, which most fleet checkpoints stay under; a longer
    /// window grows it once, and drains keep the capacity.
    pub fn enable_trace(&mut self, retain: bool) {
        let mut log = MmrLog::new(retain);
        log.reserve(64, TRACE_ENTRY_BYTES);
        self.trace = Some(Box::new(log));
    }

    /// The trace log, if tracing is enabled.
    pub fn trace(&self) -> Option<&MmrLog> {
        self.trace.as_deref()
    }

    /// Folds pending entries and returns the trace root.
    pub fn trace_root(&mut self) -> Option<Hash> {
        self.trace.as_deref_mut().map(MmrLog::root)
    }

    /// Takes the trace accumulated since the last drain as a
    /// [`Segment`] of leaf hashes, leaving the trace empty. The segment
    /// carries no internal nodes: the tree it is appended to hashes
    /// each parent once. [`Bus::drain_trace_into`] drains the same
    /// leaves without the segment in between.
    ///
    /// # Panics
    ///
    /// Panics if the trace was enabled with `enable_trace(false)`: a
    /// streaming trace may already have folded leaves into peaks.
    pub fn drain_trace_segment(&mut self) -> Option<Segment> {
        self.trace.as_deref_mut().map(MmrLog::take_segment)
    }

    /// Drains the trace accumulated since the last drain into source
    /// `id`'s tree of `forest`, leaving the trace empty, and returns the
    /// number of leaves drained — the checkpoint-drain hook: a fleet
    /// shard drains each instance's trace into its per-instance forest,
    /// keeping retained memory bounded by the drain cadence. Entries
    /// and parents are hashed through the forest's digest memo
    /// ([`MmrForest::drain_log`]), so a distinct entry is hashed once
    /// per forest while it stays in the memo; the tree's root is the
    /// one [`Bus::drain_trace_segment`] plus [`MmrForest::append_segment`]
    /// would give. `None` when tracing is off.
    ///
    /// # Panics
    ///
    /// Panics if the trace was enabled with `enable_trace(false)`, as
    /// [`Bus::drain_trace_segment`] does.
    pub fn drain_trace_into(&mut self, forest: &mut MmrForest, id: u64) -> Option<u64> {
        self.trace.as_deref_mut().map(|log| forest.drain_log(id, log))
    }

    #[inline]
    fn trace_op(&mut self, kind: u8, width: Width, addr: u64, a: u64, b: u64) {
        if let Some(t) = self.trace.as_deref_mut() {
            let mut e = [0u8; TRACE_ENTRY_BYTES];
            e[0] = kind;
            e[1] = width.bytes() as u8;
            e[2..10].copy_from_slice(&addr.to_le_bytes());
            e[10..18].copy_from_slice(&a.to_le_bytes());
            e[18..26].copy_from_slice(&b.to_le_bytes());
            t.push(&e);
        }
    }

    /// The bus cost model.
    pub fn costs(&self) -> CostModel {
        self.costs
    }

    // ---- port I/O ----

    fn io_lookup(&self, addr: u64) -> Option<(usize, u64)> {
        self.io_claims.iter().find(|c| c.contains(addr)).map(|c| (c.device, addr - c.base))
    }

    fn mem_lookup(&self, addr: u64) -> Option<(usize, u64)> {
        self.mem_claims.iter().find(|c| c.contains(addr)).map(|c| (c.device, addr - c.base))
    }

    fn tick_device(&mut self, idx: usize) {
        let now = self.clock.now_ns();
        self.devices[idx].tick(now);
    }

    /// Generic port read.
    pub fn io_read(&mut self, addr: u64, width: Width) -> u64 {
        self.clock.advance(self.costs.io_single_ns);
        self.ledger.count_in(width);
        let (value, kind) = match self.io_lookup(addr) {
            Some((idx, off)) => {
                self.tick_device(idx);
                (width.truncate(self.devices[idx].io_read(off, width)), TRACE_IO_READ)
            }
            None => {
                self.ledger.unclaimed += 1;
                (width.ones(), TRACE_IO_READ | TRACE_UNCLAIMED)
            }
        };
        self.trace_op(kind, width, addr, value, 0);
        value
    }

    /// Generic port write.
    pub fn io_write(&mut self, addr: u64, value: u64, width: Width) {
        self.clock.advance(self.costs.io_single_ns);
        self.ledger.count_out(width);
        let kind = match self.io_lookup(addr) {
            Some((idx, off)) => {
                self.tick_device(idx);
                self.devices[idx].io_write(off, width.truncate(value), width);
                TRACE_IO_WRITE
            }
            None => {
                self.ledger.unclaimed += 1;
                TRACE_IO_WRITE | TRACE_UNCLAIMED
            }
        };
        self.trace_op(kind, width, addr, width.truncate(value), 0);
    }

    /// 8-bit port read (`inb`).
    pub fn inb(&mut self, addr: u64) -> u8 {
        self.io_read(addr, Width::W8) as u8
    }

    /// 8-bit port write (`outb`).
    pub fn outb(&mut self, addr: u64, v: u8) {
        self.io_write(addr, v as u64, Width::W8);
    }

    /// 16-bit port read (`inw`).
    pub fn inw(&mut self, addr: u64) -> u16 {
        self.io_read(addr, Width::W16) as u16
    }

    /// 16-bit port write (`outw`).
    pub fn outw(&mut self, addr: u64, v: u16) {
        self.io_write(addr, v as u64, Width::W16);
    }

    /// 32-bit port read (`inl`).
    pub fn inl(&mut self, addr: u64) -> u32 {
        self.io_read(addr, Width::W32) as u32
    }

    /// 32-bit port write (`outl`).
    pub fn outl(&mut self, addr: u64, v: u32) {
        self.io_write(addr, v as u64, Width::W32);
    }

    /// Block string input (`rep insw`-style): reads `buf.len()` words of
    /// `width` from one port into `buf`. Charged at block rates.
    ///
    /// A zero-length transfer is a true no-op: `rep` with `ecx == 0`
    /// issues no bus cycles, so nothing is charged and no `block_ops`
    /// entry is recorded. Unclaimed non-empty transfers still count
    /// their words — the bus cycles happen even if only a floating bus
    /// answers, matching the single-op accounting above.
    pub fn ins(&mut self, addr: u64, width: Width, buf: &mut [u64]) {
        if buf.is_empty() {
            return;
        }
        self.clock
            .advance(self.costs.io_block_setup_ns + self.costs.io_block_word_ns * buf.len() as f64);
        self.ledger.block_ops += 1;
        self.ledger.block_in_words += buf.len() as u64;
        let kind = match self.io_lookup(addr) {
            Some((idx, off)) => {
                self.tick_device(idx);
                let dev = &mut self.devices[idx];
                for slot in buf.iter_mut() {
                    *slot = width.truncate(dev.io_read(off, width));
                }
                TRACE_BLOCK_IN
            }
            None => {
                self.ledger.unclaimed += 1;
                buf.fill(width.ones());
                TRACE_BLOCK_IN | TRACE_UNCLAIMED
            }
        };
        if self.trace.is_some() {
            // One entry per block instruction, like the ledger: the
            // payload is covered by length + checksum, computed only
            // when tracing is on.
            let ck = mmr::fnv1a_words(buf);
            self.trace_op(kind, width, addr, buf.len() as u64, ck);
        }
    }

    /// Block string output (`rep outsw`-style). Zero-length transfers
    /// are no-ops and unclaimed words count, as for [`Bus::ins`].
    pub fn outs(&mut self, addr: u64, width: Width, buf: &[u64]) {
        if buf.is_empty() {
            return;
        }
        self.clock
            .advance(self.costs.io_block_setup_ns + self.costs.io_block_word_ns * buf.len() as f64);
        self.ledger.block_ops += 1;
        self.ledger.block_out_words += buf.len() as u64;
        let kind = match self.io_lookup(addr) {
            Some((idx, off)) => {
                self.tick_device(idx);
                let dev = &mut self.devices[idx];
                for &v in buf {
                    dev.io_write(off, width.truncate(v), width);
                }
                TRACE_BLOCK_OUT
            }
            None => {
                self.ledger.unclaimed += 1;
                TRACE_BLOCK_OUT | TRACE_UNCLAIMED
            }
        };
        if self.trace.is_some() {
            let ck = mmr::fnv1a_words(buf);
            self.trace_op(kind, width, addr, buf.len() as u64, ck);
        }
    }

    // ---- memory-mapped I/O ----

    /// Memory-mapped read.
    pub fn mem_read(&mut self, addr: u64, width: Width) -> u64 {
        self.clock.advance(self.costs.mem_read_ns);
        self.ledger.mem_read += 1;
        let (value, kind) = match self.mem_lookup(addr) {
            Some((idx, off)) => {
                self.tick_device(idx);
                (width.truncate(self.devices[idx].mem_read(off, width)), TRACE_MEM_READ)
            }
            None => {
                self.ledger.unclaimed += 1;
                (width.ones(), TRACE_MEM_READ | TRACE_UNCLAIMED)
            }
        };
        self.trace_op(kind, width, addr, value, 0);
        value
    }

    /// Memory-mapped write (posted).
    pub fn mem_write(&mut self, addr: u64, value: u64, width: Width) {
        self.clock.advance(self.costs.mem_write_ns);
        self.ledger.mem_write += 1;
        let kind = match self.mem_lookup(addr) {
            Some((idx, off)) => {
                self.tick_device(idx);
                self.devices[idx].mem_write(off, width.truncate(value), width);
                TRACE_MEM_WRITE
            }
            None => {
                self.ledger.unclaimed += 1;
                TRACE_MEM_WRITE | TRACE_UNCLAIMED
            }
        };
        self.trace_op(kind, width, addr, width.truncate(value), 0);
    }

    /// Charges a device-driven DMA transfer of `words` words to the
    /// ledger and clock. Called by device models when they master the
    /// bus; the CPU is not involved.
    pub fn charge_dma(&mut self, words: u64) {
        self.ledger.dma_words += words;
        self.ledger.dma_ops += 1;
        self.clock.advance(self.costs.dma_word_ns * words as f64);
        self.trace_op(TRACE_DMA, Width::W8, 0, words, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-byte scratch register file for bus tests.
    struct Scratch {
        regs: [u8; 8],
        ticks: u64,
    }

    impl Scratch {
        fn new() -> Self {
            Scratch { regs: [0; 8], ticks: 0 }
        }
    }

    impl Device for Scratch {
        fn name(&self) -> &str {
            "scratch"
        }
        fn io_read(&mut self, offset: u64, width: Width) -> u64 {
            match width {
                Width::W8 => self.regs[offset as usize] as u64,
                Width::W16 => {
                    u16::from_le_bytes([self.regs[offset as usize], self.regs[offset as usize + 1]])
                        as u64
                }
                Width::W32 => u32::from_le_bytes([
                    self.regs[offset as usize],
                    self.regs[offset as usize + 1],
                    self.regs[offset as usize + 2],
                    self.regs[offset as usize + 3],
                ]) as u64,
            }
        }
        fn io_write(&mut self, offset: u64, value: u64, width: Width) {
            for i in 0..width.bytes() {
                self.regs[(offset + i) as usize] = (value >> (8 * i)) as u8;
            }
        }
        fn mem_read(&mut self, offset: u64, width: Width) -> u64 {
            self.io_read(offset, width)
        }
        fn mem_write(&mut self, offset: u64, value: u64, width: Width) {
            self.io_write(offset, value, width);
        }
        fn tick(&mut self, _now: f64) {
            self.ticks += 1;
        }
    }

    #[test]
    fn port_io_round_trip() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
        bus.outb(0x300, 0xab);
        bus.outw(0x302, 0x1234);
        bus.outl(0x304, 0xdead_beef);
        assert_eq!(bus.inb(0x300), 0xab);
        assert_eq!(bus.inw(0x302), 0x1234);
        assert_eq!(bus.inl(0x304), 0xdead_beef);
        let l = bus.ledger();
        assert_eq!(l.io_ops(), 6);
        assert_eq!(l.io_in, [1, 1, 1]);
        assert_eq!(l.io_out, [1, 1, 1]);
    }

    #[test]
    fn offsets_are_claim_relative() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x23c, 4);
        bus.outb(0x23e, 7); // offset 2 within the claim
        assert_eq!(bus.inb(0x23e), 7);
        assert_eq!(bus.inb(0x23c), 0);
    }

    #[test]
    fn mmio_round_trip_and_costs() {
        let mut bus = Bus::default();
        bus.attach_mem(Box::new(Scratch::new()), 0xf000_0000, 8);
        let t0 = bus.now_ns();
        bus.mem_write(0xf000_0000, 0x55, Width::W8);
        let t1 = bus.now_ns();
        bus.mem_read(0xf000_0000, Width::W8);
        let t2 = bus.now_ns();
        let c = bus.costs();
        assert_eq!(t1 - t0, c.mem_write_ns);
        assert_eq!(t2 - t1, c.mem_read_ns);
        assert_eq!(bus.ledger().mmio_ops(), 2);
    }

    #[test]
    fn unclaimed_reads_float_high() {
        let mut bus = Bus::default();
        assert_eq!(bus.inb(0x999), 0xff);
        assert_eq!(bus.inw(0x999), 0xffff);
        bus.outb(0x999, 1);
        assert_eq!(bus.ledger().unclaimed, 3);
    }

    #[test]
    #[should_panic(expected = "overlapping I/O claim")]
    fn overlapping_claims_rejected() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
        bus.attach_io(Box::new(Scratch::new()), 0x304, 8);
    }

    #[test]
    fn block_transfer_counts_and_costs() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x1f0, 8);
        let t0 = bus.now_ns();
        let mut buf = [0u64; 256];
        bus.ins(0x1f0, Width::W16, &mut buf);
        let c = bus.costs();
        let expect = c.io_block_setup_ns + 256.0 * c.io_block_word_ns;
        assert!((bus.now_ns() - t0 - expect).abs() < 1e-9);
        let l = bus.ledger();
        assert_eq!(l.block_ops, 1);
        assert_eq!(l.block_in_words, 256);
        assert_eq!(l.io_ops(), 0, "block words are not single ops");
        assert_eq!(l.pio_ops(), 256);
    }

    #[test]
    fn block_transfer_is_cheaper_than_loop() {
        let mut bus_block = Bus::default();
        bus_block.attach_io(Box::new(Scratch::new()), 0x1f0, 8);
        let mut buf = [0u64; 256];
        bus_block.ins(0x1f0, Width::W16, &mut buf);
        let block_time = bus_block.now_ns();

        let mut bus_loop = Bus::default();
        bus_loop.attach_io(Box::new(Scratch::new()), 0x1f0, 8);
        for _ in 0..256 {
            bus_loop.inw(0x1f0);
        }
        let loop_time = bus_loop.now_ns();
        assert!(block_time < loop_time, "{block_time} !< {loop_time}");
    }

    #[test]
    fn outs_writes_each_word() {
        let mut bus = Bus::default();
        let id = bus.attach_io(Box::new(Scratch::new()), 0, 8);
        bus.outs(0, Width::W8, &[1, 2, 3]);
        // Each word overwrites the same port; the device sees the last.
        assert_eq!(bus.inb(0), 3);
        assert_eq!(bus.ledger().block_out_words, 3);
        let _ = id;
    }

    #[test]
    fn zero_length_block_transfers_are_no_ops() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x1f0, 8);
        let t0 = bus.now_ns();
        bus.ins(0x1f0, Width::W16, &mut []);
        bus.outs(0x1f0, Width::W16, &[]);
        bus.ins(0x999, Width::W16, &mut []); // unclaimed, zero-length: still nothing
        bus.outs(0x999, Width::W16, &[]);
        assert_eq!(bus.now_ns(), t0, "zero-length transfers charge no time");
        assert_eq!(bus.ledger(), Ledger::new(), "zero-length transfers count nothing");
    }

    #[test]
    fn unclaimed_block_transfers_count_their_words() {
        let mut bus = Bus::default();
        let mut buf = [0u64; 4];
        bus.ins(0x999, Width::W16, &mut buf);
        assert_eq!(buf, [0xffff; 4], "unclaimed block reads float high");
        bus.outs(0x999, Width::W16, &[1, 2, 3]);
        let l = bus.ledger();
        // The bus cycles happen even with no device answering, so the
        // words count — same as single unclaimed ops count in io_in/out.
        assert_eq!(l.block_ops, 2);
        assert_eq!(l.block_in_words, 4);
        assert_eq!(l.block_out_words, 3);
        assert_eq!(l.unclaimed, 2);
    }

    #[test]
    fn idle_advances_time_and_ticks_devices() {
        let mut bus = Bus::default();
        let id = bus.attach_io(Box::new(Scratch::new()), 0, 8);
        bus.idle(5_000.0);
        assert_eq!(bus.now_ns(), 5_000.0);
        // Downcast via the test-only accessor: tick count advanced.
        let dev = bus.device_mut(id);
        assert_eq!(dev.name(), "scratch");
    }

    #[test]
    fn dma_charge_accrues() {
        let mut bus = Bus::default();
        let t0 = bus.now_ns();
        bus.charge_dma(512);
        assert_eq!(bus.ledger().dma_words, 512);
        assert_eq!(bus.ledger().dma_ops, 1);
        assert!(bus.now_ns() > t0);
    }

    /// Drives one representative of every transaction kind.
    fn exercise(bus: &mut Bus) {
        bus.outb(0x300, 0xab);
        bus.inw(0x302);
        bus.outs(0x300, Width::W8, &[1, 2, 3]);
        let mut buf = [0u64; 4];
        bus.ins(0x300, Width::W8, &mut buf);
        bus.inb(0x999); // unclaimed
        bus.charge_dma(16);
    }

    #[test]
    fn trace_counts_one_entry_per_ledger_transaction() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
        bus.outb(0x300, 1); // pre-trace traffic is not recorded
        bus.enable_trace(false);
        let before = bus.ledger();
        exercise(&mut bus);
        let delta = bus.ledger().since(&before);
        assert_eq!(bus.trace().unwrap().len(), delta.len());
        assert_eq!(delta.len(), 6, "2 singles + 2 blocks + 1 unclaimed + 1 dma");
    }

    #[test]
    fn trace_roots_replay_deterministically() {
        let run = |retain: bool| {
            let mut bus = Bus::default();
            bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
            bus.enable_trace(retain);
            exercise(&mut bus);
            bus.trace_root().unwrap()
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(false), run(true), "streaming and retained agree");

        // A diverging value shows up in the root.
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
        bus.enable_trace(false);
        bus.outb(0x300, 0xac);
        let mut other = Bus::default();
        other.attach_io(Box::new(Scratch::new()), 0x300, 8);
        other.enable_trace(false);
        other.outb(0x300, 0xad);
        assert_ne!(bus.trace_root(), other.trace_root());
    }

    #[test]
    fn trace_distinguishes_unclaimed_accesses() {
        // Same kind/addr/value, but one bus has the address claimed:
        // the unclaimed flag must separate the roots.
        let mut claimed = Bus::default();
        claimed.attach_io(Box::new(Scratch::new()), 0x300, 8);
        claimed.enable_trace(false);
        claimed.outb(0x300, 0);
        let mut floating = Bus::default();
        floating.enable_trace(false);
        floating.outb(0x300, 0);
        assert_ne!(claimed.trace_root(), floating.trace_root());
    }

    #[test]
    fn drained_trace_segments_reproduce_the_contiguous_root() {
        let mut whole = Bus::default();
        whole.attach_io(Box::new(Scratch::new()), 0x300, 8);
        whole.enable_trace(false);

        // One bus drains segments, the other drains into a forest.
        let [mut drained, mut into] = [(); 2].map(|()| {
            let mut bus = Bus::default();
            bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
            bus.enable_trace(true); // drains must retain leaves
            bus
        });
        let mut acc = crate::mmr::Mmr::streaming();
        let mut forest = MmrForest::new(false);

        for round in 0..5 {
            exercise(&mut whole);
            exercise(&mut drained);
            exercise(&mut into);
            if round % 2 == 0 {
                acc.append(&drained.drain_trace_segment().unwrap());
                into.drain_trace_into(&mut forest, 7).unwrap();
            }
        }
        acc.append(&drained.drain_trace_segment().unwrap());
        into.drain_trace_into(&mut forest, 7).unwrap();
        assert_eq!(acc.root(), whole.trace_root().unwrap());
        assert_eq!(forest.tree(7).unwrap().root(), acc.root());
        assert_eq!(drained.trace().unwrap().len(), 0);
        assert_eq!(into.trace().unwrap().len(), 0);
    }

    /// Issues `n` traced single-port transactions.
    fn window(bus: &mut Bus, n: u64) {
        for i in 0..n {
            bus.outb(0x300, i as u8);
        }
    }

    #[test]
    fn a_fresh_trace_arena_holds_one_drain_window() {
        let mut bus = Bus::default();
        bus.enable_trace(true);
        // 64 entries of 26 bytes, each behind a 4-byte length.
        assert!(bus.trace().unwrap().retained_bytes() <= 64 * 30);
    }

    #[test]
    fn drain_windows_within_the_reserve_never_grow_the_arena() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
        bus.enable_trace(true);
        let mut forest = MmrForest::new(false);
        let reserved = bus.trace().unwrap().retained_bytes();
        for _ in 0..100 {
            window(&mut bus, 40);
            assert_eq!(bus.drain_trace_into(&mut forest, 0), Some(40));
            assert_eq!(bus.trace().unwrap().retained_bytes(), reserved);
        }
    }

    #[test]
    fn a_long_drain_window_grows_the_arena_once() {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(Scratch::new()), 0x300, 8);
        bus.enable_trace(true);
        let mut forest = MmrForest::new(false);
        let reserved = bus.trace().unwrap().retained_bytes();
        window(&mut bus, 300);
        assert_eq!(bus.drain_trace_into(&mut forest, 0), Some(300));
        let grown = bus.trace().unwrap().retained_bytes();
        assert!(grown >= 300 * 30 && grown > reserved, "{reserved} → {grown} bytes");
        for n in [300, 40, 300, 1, 0] {
            window(&mut bus, n);
            assert_eq!(bus.drain_trace_into(&mut forest, 0), Some(n));
            assert_eq!(bus.trace().unwrap().retained_bytes(), grown, "window of {n}");
        }
    }

    #[test]
    #[should_panic(expected = "enable_trace(true)")]
    fn draining_a_streaming_trace_is_rejected_at_the_drain() {
        let mut bus = Bus::default();
        bus.enable_trace(false);
        bus.outb(0x300, 1);
        bus.drain_trace_segment();
    }
}
