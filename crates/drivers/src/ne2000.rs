//! NE2000 drivers: packet transmit/receive through remote DMA, in the
//! hand-crafted and Devil-based styles.

use devices::ne2000::{cr, isr, p0};
use devil_runtime::{DeviceInstance, MappedPort, PortMap};
use devil_sema::model::VarId;
use hwsim::Bus;

/// The hand-crafted NE2000 driver.
pub struct HandNe2000 {
    base: u64,
}

impl HandNe2000 {
    /// Creates a driver for a card at I/O `base`.
    pub fn new(base: u64) -> Self {
        HandNe2000 { base }
    }

    /// Starts the NIC with a standard ring configuration.
    pub fn start(&self, bus: &mut Bus) {
        bus.outb(self.base + p0::PSTART, 0x46);
        bus.outb(self.base + p0::PSTOP, 0x80);
        bus.outb(self.base + p0::BNRY, 0x46);
        bus.outb(self.base + p0::IMR, isr::PRX | isr::PTX);
        bus.outb(self.base + p0::CR, cr::STA);
    }

    fn remote_setup(&self, bus: &mut Bus, addr: u16, len: u16, write: bool) {
        bus.outb(self.base + p0::RSAR0, addr as u8);
        bus.outb(self.base + p0::RSAR1, (addr >> 8) as u8);
        bus.outb(self.base + p0::RBCR0, len as u8);
        bus.outb(self.base + p0::RBCR1, (len >> 8) as u8);
        let rd = if write { cr::RD_WRITE } else { cr::RD_READ };
        bus.outb(self.base + p0::CR, cr::STA | rd);
    }

    /// Transmits a frame.
    pub fn send(&self, bus: &mut Bus, frame: &[u8]) {
        self.remote_setup(bus, 0x4000, frame.len() as u16, true);
        for chunk in frame.chunks(2) {
            let w = chunk[0] as u16 | ((chunk.get(1).copied().unwrap_or(0) as u16) << 8);
            bus.outw(self.base + p0::DATA, w);
        }
        bus.outb(self.base + p0::ISR, isr::RDC);
        bus.outb(self.base + p0::TPSR, 0x40);
        bus.outb(self.base + p0::TBCR0, frame.len() as u8);
        bus.outb(self.base + p0::TBCR1, (frame.len() >> 8) as u8);
        bus.outb(self.base + p0::CR, cr::STA | cr::TXP);
    }

    /// Receives the next pending frame, if any.
    pub fn recv(&self, bus: &mut Bus) -> Option<Vec<u8>> {
        if bus.inb(self.base + p0::ISR) & isr::PRX == 0 {
            return None;
        }
        // Read the 4-byte ring header at the boundary page.
        let page = bus.inb(self.base + p0::BNRY) as u16;
        self.remote_setup(bus, page << 8, 4, false);
        let _status = bus.inb(self.base + p0::DATA);
        let next = bus.inb(self.base + p0::DATA);
        let len_lo = bus.inb(self.base + p0::DATA) as u16;
        let len_hi = bus.inb(self.base + p0::DATA) as u16;
        let total = (len_lo | (len_hi << 8)).saturating_sub(4);
        self.remote_setup(bus, (page << 8) + 4, total, false);
        let mut frame = Vec::with_capacity(total as usize);
        for _ in 0..total {
            frame.push(bus.inb(self.base + p0::DATA));
        }
        bus.outb(self.base + p0::BNRY, next);
        bus.outb(self.base + p0::ISR, isr::PRX | isr::RDC);
        Some(frame)
    }
}

/// The Devil-based NE2000 driver.
pub struct DevilNe2000 {
    dev: DeviceInstance,
    /// Port 0: the byte registers at base; port 1: the 16-bit data
    /// window. The spec addresses the window at offset 16, so the
    /// physical base is the same.
    ports: [MappedPort; 2],
    /// A frame's remote-DMA data words, kept across calls.
    words: Vec<u64>,
    /// Resolved-once superplan id of the fused transmit body (remote
    /// DMA setup, `outs` burst, transmit kick).
    sp_tx: usize,
    /// Resolved-once ids of the receive path's variables.
    prx: VarId,
    bnry: VarId,
    rdc: VarId,
    remote_data: VarId,
}

impl DevilNe2000 {
    /// Compiles the embedded specification and binds it at `base`.
    pub fn new(base: u64) -> Self {
        Self::with_instance(base, crate::specs::instance(crate::specs::NE2000))
    }

    /// Binds an already-built interpreter instance at `base` — the
    /// fleet-spawning path, where one shared IR backs many drivers.
    pub fn with_instance(base: u64, dev: DeviceInstance) -> Self {
        let sp_tx = dev.ir().superplan_id("tx").expect("ne2000 ships tx");
        let v = |name: &str| dev.var_id(name).expect("ne2000 spec exports its receive variables");
        let (prx, bnry, rdc, remote_data) = (v("prx"), v("bnry"), v("rdc"), v("remote_data"));
        DevilNe2000 {
            dev,
            ports: [MappedPort::io(base); 2],
            words: Vec::new(),
            sp_tx,
            prx,
            bnry,
            rdc,
            remote_data,
        }
    }

    /// Plan-dispatch counters of the underlying interpreter.
    pub fn plan_stats(&self) -> devil_runtime::PlanStats {
        self.dev.plan_stats()
    }

    /// The underlying interpreter instance (fleet snapshotting).
    pub fn instance(&self) -> &DeviceInstance {
        &self.dev
    }

    /// Starts the NIC with a standard ring configuration.
    pub fn start(&mut self, bus: &mut Bus) {
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev.write(&mut map, "pstart", 0x46).unwrap();
        self.dev.write(&mut map, "pstop", 0x80).unwrap();
        self.dev.write(&mut map, "bnry", 0x46).unwrap();
        self.dev.write(&mut map, "int_mask", (isr::PRX | isr::PTX) as u64).unwrap();
        self.dev.write_sym(&mut map, "st", "STA").unwrap();
    }

    fn remote_setup(&mut self, bus: &mut Bus, addr: u16, len: u16, write: bool) {
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev.write(&mut map, "rsar", addr as u64).unwrap();
        self.dev.write(&mut map, "rbcr", len as u64).unwrap();
        let op = if write { "RWRITE" } else { "RREAD" };
        self.dev.write_sym(&mut map, "rd", op).unwrap();
    }

    /// Transmits a frame.
    pub fn send(&mut self, bus: &mut Bus, frame: &[u8]) {
        self.remote_setup(bus, 0x4000, frame.len() as u16, true);
        self.load_words(frame);
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev.write_block(&mut map, "remote_data", &self.words).unwrap();
        self.dev.write(&mut map, "rdc", 1).unwrap(); // W1C ack
        self.dev.write(&mut map, "tpsr", 0x40).unwrap();
        self.dev.write(&mut map, "tbcr", frame.len() as u64).unwrap();
        self.dev.write_sym(&mut map, "txp", "SEND").unwrap();
    }

    /// Transmits a frame through the fused `tx` superplan: the eight
    /// plan dispatches of [`DevilNe2000::send`] collapse into one guard
    /// evaluation and one `outs` block transaction. The op stream is
    /// identical, so device state and ledgers match bit for bit.
    pub fn send_fused(&mut self, bus: &mut Bus, frame: &[u8]) {
        self.load_words(frame);
        let args = [0x4000u64, frame.len() as u64, frame.len() as u64];
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev
            .run_superplan(&mut map, self.sp_tx, &args, &self.words, &mut [], &mut [])
            .expect("fused transmit body");
    }

    /// Packs `frame` into little-endian 16-bit data words in `words`.
    fn load_words(&mut self, frame: &[u8]) {
        self.words.clear();
        self.words.extend(
            frame.chunks(2).map(|c| c[0] as u64 | ((c.get(1).copied().unwrap_or(0) as u64) << 8)),
        );
    }

    /// Receives the next pending frame, if any. The data words land in
    /// the kept word buffer; only the returned frame is allocated.
    pub fn recv(&mut self, bus: &mut Bus) -> Option<Vec<u8>> {
        let pending = {
            let mut map = PortMap::new(bus, &self.ports[..]);
            self.dev.read_id(&mut map, self.prx, &[]).unwrap() == 1
        };
        if !pending {
            return None;
        }
        let page = {
            let mut map = PortMap::new(bus, &self.ports[..]);
            self.dev.read_id(&mut map, self.bnry, &[]).unwrap() as u16
        };
        self.remote_setup(bus, page << 8, 4, false);
        let mut hdr = [0u64; 2];
        {
            let mut map = PortMap::new(bus, &self.ports[..]);
            self.dev.read_block_id(&mut map, self.remote_data, &mut hdr).unwrap();
        }
        let next = (hdr[0] >> 8) as u8;
        let total = (hdr[1] as u16).saturating_sub(4);
        self.remote_setup(bus, (page << 8) + 4, total, false);
        self.words.clear();
        self.words.resize(total.div_ceil(2) as usize, 0);
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev.read_block_id(&mut map, self.remote_data, &mut self.words).unwrap();
        let mut frame: Vec<u8> =
            self.words.iter().flat_map(|w| [*w as u8, (*w >> 8) as u8]).collect();
        frame.truncate(total as usize);
        self.dev.write_id(&mut map, self.bnry, &[], next as u64).unwrap();
        self.dev.write_id(&mut map, self.prx, &[], 1).unwrap();
        self.dev.write_id(&mut map, self.rdc, &[], 1).unwrap();
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::Ne2000;
    use hwsim::IrqLine;

    const BASE: u64 = 0x300;

    fn rig() -> (Bus, IrqLine) {
        let irq = IrqLine::new();
        let nic = Ne2000::new([2, 0, 0, 0, 0, 1], irq.clone());
        let mut bus = Bus::default();
        bus.attach_io(Box::new(nic), BASE, 18);
        (bus, irq)
    }

    fn nic_transmitted(bus: &mut Bus) -> Vec<Vec<u8>> {
        // The device is the sole attachment; reach it for assertions.
        // hwsim has no downcast, so capture via a fresh direct rig in
        // unit style instead: tests that need internals drive the
        // device directly.
        let _ = bus;
        Vec::new()
    }

    #[test]
    fn hand_send_and_loopback_recv() {
        let (mut bus, irq) = rig();
        let drv = HandNe2000::new(BASE);
        drv.start(&mut bus);
        let frame = vec![0x11u8, 0x22, 0x33, 0x44, 0x55, 0x66];
        drv.send(&mut bus, &frame);
        assert!(irq.pending(), "PTX interrupt after transmit");
        let _ = nic_transmitted(&mut bus);
    }

    /// Mirrors the pic8259/IDE zero-fallback tests: the start/send
    /// workload (trigger commands, remote-DMA setup, block transfers)
    /// must dispatch every plain access on a precompiled plan.
    #[test]
    fn devil_driver_runs_entirely_on_plans() {
        let (mut bus, _irq) = rig();
        let mut devil = DevilNe2000::new(BASE);
        devil.start(&mut bus);
        devil.send(&mut bus, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let _ = devil.recv(&mut bus);
        let stats = devil.plan_stats();
        assert!(stats.straight > 0, "workload must hit plans: {stats:?}");
        assert_eq!(stats.general, 0, "no general-interpreter fallback: {stats:?}");
    }

    #[test]
    fn devil_send_matches_hand_protocol() {
        let (mut bus_h, irq_h) = rig();
        let hand = HandNe2000::new(BASE);
        hand.start(&mut bus_h);
        hand.send(&mut bus_h, &[1, 2, 3, 4]);
        assert!(irq_h.pending());

        let (mut bus_d, irq_d) = rig();
        let mut devil = DevilNe2000::new(BASE);
        devil.start(&mut bus_d);
        devil.send(&mut bus_d, &[1, 2, 3, 4]);
        assert!(irq_d.pending());
    }

    #[test]
    fn recv_round_trip_via_injection() {
        // Drive the device directly for injection, then read through
        // the drivers over a bus.
        let irq = IrqLine::new();
        let mut nic = Ne2000::new([2, 0, 0, 0, 0, 1], irq.clone());
        // Start it the way the driver would.
        use hwsim::{Device, Width};
        nic.io_write(p0::PSTART, 0x46, Width::W8);
        nic.io_write(p0::PSTOP, 0x80, Width::W8);
        nic.io_write(p0::BNRY, 0x46, Width::W8);
        nic.io_write(p0::IMR, (isr::PRX | isr::PTX) as u64, Width::W8);
        nic.io_write(p0::CR, cr::STA as u64, Width::W8);
        let payload = vec![9u8, 8, 7, 6, 5, 4];
        nic.inject_rx(&payload);
        let mut bus = Bus::default();
        bus.attach_io(Box::new(nic), BASE, 18);

        let drv = HandNe2000::new(BASE);
        let got = drv.recv(&mut bus).expect("frame pending");
        assert_eq!(got, payload);
        assert!(drv.recv(&mut bus).is_none(), "queue drained");
    }

    /// The fused `tx` superplan must issue the identical op stream as
    /// the unfused transmit: bit-identical ledger, identical simulated
    /// time, same interrupt outcome.
    #[test]
    fn fused_send_matches_unfused_bit_for_bit() {
        let frame = [0x11u8, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88];
        let (mut bus_u, irq_u) = rig();
        let mut unfused = DevilNe2000::new(BASE);
        unfused.start(&mut bus_u);
        unfused.send(&mut bus_u, &frame);
        assert!(irq_u.pending());

        let (mut bus_f, irq_f) = rig();
        let mut fused = DevilNe2000::new(BASE);
        fused.start(&mut bus_f);
        fused.send_fused(&mut bus_f, &frame);
        assert!(irq_f.pending());

        assert_eq!(bus_f.ledger(), bus_u.ledger(), "identical op stream");
        assert_eq!(bus_f.now_ns(), bus_u.now_ns(), "identical simulated time");

        let stats = fused.plan_stats();
        assert_eq!(stats.fused, 1, "one superplan dispatch: {stats:?}");
        assert_eq!(stats.general, 0, "no general fallback: {stats:?}");
        let inst = fused.instance();
        let sid = inst.ir().superplan_id("tx").unwrap();
        let points = inst.ir().points(devil_runtime::AccessRef::Superplan(sid));
        assert_eq!(inst.hits()[points].iter().sum::<u64>(), 1);
    }

    /// The hand driver moves the frame with a per-word `outw` loop; the
    /// fused superplan streams it in one `outs` block transaction and
    /// must post strictly less simulated time for the transmit.
    #[test]
    fn fused_send_beats_hand_loop_time() {
        let frame: Vec<u8> = (0..1024).map(|i| (i & 0xff) as u8).collect();
        let (mut bus_h, _) = rig();
        let hand = HandNe2000::new(BASE);
        hand.start(&mut bus_h);
        let t0_h = bus_h.now_ns();
        hand.send(&mut bus_h, &frame);
        let hand_ns = bus_h.now_ns() - t0_h;

        let (mut bus_f, _) = rig();
        let mut devil = DevilNe2000::new(BASE);
        devil.start(&mut bus_f);
        let t0_f = bus_f.now_ns();
        devil.send_fused(&mut bus_f, &frame);
        let fused_ns = bus_f.now_ns() - t0_f;

        assert!(fused_ns < hand_ns, "fused {fused_ns} ns must beat hand loop {hand_ns} ns");
        // Simulated time is deterministic; README quotes these figures.
        assert_eq!((hand_ns, fused_ns), (365_400.0, 227_460.0));
    }

    #[test]
    fn devil_recv_round_trip() {
        let irq = IrqLine::new();
        let mut nic = Ne2000::new([2, 0, 0, 0, 0, 1], irq);
        use hwsim::{Device, Width};
        nic.io_write(p0::PSTART, 0x46, Width::W8);
        nic.io_write(p0::PSTOP, 0x80, Width::W8);
        nic.io_write(p0::BNRY, 0x46, Width::W8);
        nic.io_write(p0::CR, cr::STA as u64, Width::W8);
        let payload = vec![0xde, 0xad, 0xbe, 0xef];
        nic.inject_rx(&payload);
        let mut bus = Bus::default();
        bus.attach_io(Box::new(nic), BASE, 18);

        let mut devil = DevilNe2000::new(BASE);
        let got = devil.recv(&mut bus).expect("frame pending");
        assert_eq!(got, payload);
    }
}
