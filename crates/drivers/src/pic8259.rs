//! 8259A interrupt-controller drivers: the paper's control-flow-based
//! register serialization (§2.2) end to end.
//!
//! The init automaton implicitly addresses ICW2..ICW4 through port
//! offset 1 — `SNGL` skips ICW3 and `IC4` gates ICW4. The hand driver
//! transcribes the classic Linux sequence; the Devil driver sets the
//! `init` structure's fields and flushes it with one `write_struct`,
//! which the runtime executes as a **guard-split plan**: the cached
//! `sngl`/`ic4` bits select a precompiled straight-line variant of the
//! conditional serialization.

use devil_runtime::{DeviceInstance, MappedPort, PlanStats, PortMap};
use devil_sema::model::{StructId, VarId};
use hwsim::Bus;

/// One 8259A initialization configuration.
#[derive(Clone, Copy, Debug)]
pub struct PicConfig {
    /// `SNGL`: a single controller, no cascaded slaves (skips ICW3).
    pub single: bool,
    /// `IC4`: an ICW4 byte follows.
    pub with_icw4: bool,
    /// Interrupt vector base (ICW2 bits 7..3; low bits are forced 0).
    pub vector_base: u8,
    /// Cascade configuration (ICW3).
    pub cascade_map: u8,
    /// 8086/8088 mode (ICW4 bit 0).
    pub x86: bool,
    /// Automatic end of interrupt (ICW4 bit 1).
    pub auto_eoi: bool,
    /// Interrupt mask written after init (OCW1).
    pub irq_mask: u8,
}

impl PicConfig {
    /// The PC master controller's textbook setup: cascaded, 8086 mode.
    pub const fn pc_master(vector_base: u8, irq_mask: u8) -> Self {
        PicConfig {
            single: false,
            with_icw4: true,
            vector_base,
            cascade_map: 0x04,
            x86: true,
            auto_eoi: false,
            irq_mask,
        }
    }
}

/// The hand-crafted driver: raw port writes, the ICW skip logic spelled
/// out in control flow.
pub struct HandPic8259 {
    base: u64,
}

impl HandPic8259 {
    /// Creates a driver for a controller at I/O `base`.
    pub fn new(base: u64) -> Self {
        HandPic8259 { base }
    }

    /// Runs the full ICW initialization sequence, then programs the
    /// interrupt mask.
    pub fn init(&self, bus: &mut Bus, cfg: PicConfig) {
        let icw1 = 0x10 | (cfg.with_icw4 as u8) | ((cfg.single as u8) << 1);
        bus.outb(self.base, icw1);
        bus.outb(self.base + 1, cfg.vector_base & 0xf8);
        if !cfg.single {
            bus.outb(self.base + 1, cfg.cascade_map);
        }
        if cfg.with_icw4 {
            bus.outb(self.base + 1, (cfg.x86 as u8) | ((cfg.auto_eoi as u8) << 1));
        }
        bus.outb(self.base + 1, cfg.irq_mask);
    }

    /// Reads back the interrupt mask register.
    pub fn irq_mask(&self, bus: &mut Bus) -> u8 {
        bus.inb(self.base + 1)
    }
}

/// The Devil-based driver: field assignments plus one structure write.
/// Structure and field ids are resolved once at construction, so the
/// init flush runs the guard-split plan with zero name lookups.
pub struct DevilPic8259 {
    dev: DeviceInstance,
    /// The one Devil port, at I/O base.
    ports: [MappedPort; 1],
    init: StructId,
    ic4: VarId,
    sngl: VarId,
    adi: VarId,
    ltim: VarId,
    vector_base: VarId,
    cascade_map: VarId,
    sfnm: VarId,
    buffered: VarId,
    aeoi: VarId,
    microprocessor: VarId,
    irq_mask: VarId,
    /// Resolved-once superplan id of the fused ICW init (stage all
    /// eleven fields, flush the guarded serialization, one selection).
    sp_init: usize,
}

impl DevilPic8259 {
    /// Compiles the embedded specification and binds it at `base`.
    pub fn new(base: u64) -> Self {
        Self::with_instance(base, crate::specs::instance(crate::specs::PIC8259))
    }

    /// Binds an already-built interpreter instance at `base` — the
    /// fleet-spawning path, where one shared IR backs many drivers.
    pub fn with_instance(base: u64, dev: DeviceInstance) -> Self {
        let ir = dev.ir();
        let field = |name: &str| ir.var_id(name).expect("pic8259 spec exports its init fields");
        DevilPic8259 {
            ports: [MappedPort::io(base)],
            init: ir.struct_id("init").expect("spec exports init"),
            ic4: field("ic4"),
            sngl: field("sngl"),
            adi: field("adi"),
            ltim: field("ltim"),
            vector_base: field("vector_base"),
            cascade_map: field("cascade_map"),
            sfnm: field("sfnm"),
            buffered: field("buffered"),
            aeoi: field("aeoi"),
            microprocessor: field("microprocessor"),
            irq_mask: field("irq_mask"),
            sp_init: ir.superplan_id("icw_init").expect("pic8259 ships icw_init"),
            dev,
        }
    }

    /// Enables debug-mode run-time checks.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.dev.set_debug_checks(on);
    }

    /// Plan-dispatch counters of the underlying instance.
    pub fn plan_stats(&self) -> PlanStats {
        self.dev.plan_stats()
    }

    /// The underlying interpreter instance (fleet snapshotting).
    pub fn instance(&self) -> &DeviceInstance {
        &self.dev
    }

    /// Runs the full ICW initialization sequence: set every `init`
    /// field, flush once. The flush takes the plan variant selected by
    /// the cached `sngl`/`ic4` bits — ICW3/ICW4 are skipped exactly as
    /// the hand driver's control flow would.
    pub fn init(&mut self, bus: &mut Bus, cfg: PicConfig) {
        let d = &mut self.dev;
        d.set_field_id(self.ic4, cfg.with_icw4 as u64).unwrap();
        d.set_field_id(self.sngl, cfg.single as u64).unwrap();
        d.set_field_id(self.adi, 0).unwrap();
        d.set_field_id(self.ltim, 0).unwrap();
        d.set_field_id(self.vector_base, (cfg.vector_base >> 3) as u64).unwrap();
        d.set_field_id(self.cascade_map, cfg.cascade_map as u64).unwrap();
        d.set_field_id(self.sfnm, 0).unwrap();
        d.set_field_id(self.buffered, 0).unwrap();
        d.set_field_id(self.aeoi, cfg.auto_eoi as u64).unwrap();
        d.set_field_id(self.microprocessor, cfg.x86 as u64).unwrap();
        d.set_field_id(self.irq_mask, cfg.irq_mask as u64).unwrap();
        let mut map = PortMap::new(bus, &self.ports[..]);
        d.write_struct_id(&mut map, self.init).expect("init flush");
    }

    /// Runs the full ICW initialization through the fused `icw_init`
    /// superplan: the eleven field stages and the guarded flush of
    /// [`DevilPic8259::init`] collapse into one entry-time variant
    /// selection. The op stream is identical, so device state and
    /// ledgers match bit for bit.
    pub fn init_fused(&mut self, bus: &mut Bus, cfg: PicConfig) {
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev
            .run_superplan(&mut map, self.sp_init, &icw_args(cfg), &[], &mut [], &mut [])
            .expect("fused init flush");
    }

    /// Reads back the interrupt mask register (raw port read; the spec
    /// models OCW1 as write-only, matching the init automaton).
    pub fn irq_mask(&mut self, bus: &mut Bus) -> u8 {
        bus.inb(self.ports[0].base + 1)
    }
}

/// The `icw_init` superplan's operands for one configuration.
fn icw_args(cfg: PicConfig) -> [u64; 7] {
    [
        cfg.with_icw4 as u64,
        cfg.single as u64,
        (cfg.vector_base >> 3) as u64,
        cfg.cascade_map as u64,
        cfg.auto_eoi as u64,
        cfg.x86 as u64,
        cfg.irq_mask as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::I8259;
    use devil_runtime::ReferenceInstance;
    use hwsim::IrqLine;

    const BASE: u64 = 0x20;

    fn rig() -> Bus {
        let mut bus = Bus::default();
        bus.attach_io(Box::new(I8259::new(IrqLine::new())), BASE, 2);
        bus
    }

    fn configs() -> [PicConfig; 4] {
        [
            PicConfig::pc_master(0x20, 0xfb),
            PicConfig {
                single: true,
                with_icw4: true,
                vector_base: 0x40,
                cascade_map: 0,
                x86: true,
                auto_eoi: true,
                irq_mask: 0x0f,
            },
            PicConfig {
                single: false,
                with_icw4: false,
                vector_base: 0x28,
                cascade_map: 0x04,
                x86: false,
                auto_eoi: false,
                irq_mask: 0xff,
            },
            PicConfig {
                single: true,
                with_icw4: false,
                vector_base: 0x08,
                cascade_map: 0,
                x86: false,
                auto_eoi: false,
                irq_mask: 0x00,
            },
        ]
    }

    #[test]
    fn hand_driver_initializes_the_controller() {
        let mut bus = rig();
        let drv = HandPic8259::new(BASE);
        drv.init(&mut bus, PicConfig::pc_master(0x20, 0xfb));
        // OCW1 landed after init completed: the mask reads back.
        assert_eq!(drv.irq_mask(&mut bus), 0xfb);
    }

    #[test]
    fn devil_driver_matches_hand_in_every_icw_combination() {
        for (i, cfg) in configs().into_iter().enumerate() {
            let mut bus_h = rig();
            let hand = HandPic8259::new(BASE);
            hand.init(&mut bus_h, cfg);
            let ops_h = bus_h.ledger().io_ops();
            let mask_h = hand.irq_mask(&mut bus_h);

            let mut bus_d = rig();
            let mut devil = DevilPic8259::new(BASE);
            devil.init(&mut bus_d, cfg);
            let ops_d = bus_d.ledger().io_ops();
            let mask_d = devil.irq_mask(&mut bus_d);

            assert_eq!(mask_h, cfg.irq_mask, "config {i}: hand init must complete");
            assert_eq!(mask_d, mask_h, "config {i}: drivers disagree on final state");
            assert_eq!(ops_d, ops_h, "config {i}: Devil stubs must cost the same I/O ops");
            let expected = 3 + (!cfg.single as u64) + (cfg.with_icw4 as u64);
            assert_eq!(ops_h, expected, "config {i}: icw3/icw4 skips");
        }
    }

    #[test]
    fn devil_init_takes_a_guarded_plan_variant() {
        let mut bus = rig();
        let mut devil = DevilPic8259::new(BASE);
        devil.init(&mut bus, PicConfig::pc_master(0x20, 0xfb));
        let stats = devil.plan_stats();
        assert_eq!(stats.guarded, 1, "the conditional flush must take a guarded variant");
        assert_eq!(stats.general, 0, "no general-interpreter fallback in fast mode");
    }

    /// The fused `icw_init` superplan must issue the identical op
    /// stream as the stage-then-flush path in every ICW combination —
    /// the `sngl`/`ic4` guard split selects the same serialization.
    #[test]
    fn fused_init_matches_unfused_in_every_icw_combination() {
        for (i, cfg) in configs().into_iter().enumerate() {
            let mut bus_u = rig();
            let mut unfused = DevilPic8259::new(BASE);
            unfused.init(&mut bus_u, cfg);

            let mut bus_f = rig();
            let mut fused = DevilPic8259::new(BASE);
            fused.init_fused(&mut bus_f, cfg);

            assert_eq!(bus_f.ledger(), bus_u.ledger(), "config {i}: identical op stream");
            assert_eq!(bus_f.now_ns(), bus_u.now_ns(), "config {i}: identical time");
            assert_eq!(fused.irq_mask(&mut bus_f), unfused.irq_mask(&mut bus_u), "config {i}");

            let stats = fused.plan_stats();
            assert_eq!(stats.fused, 1, "config {i}: one superplan dispatch: {stats:?}");
            assert_eq!(stats.general, 0, "config {i}: no general fallback: {stats:?}");
        }
    }

    #[test]
    fn fast_and_general_modes_agree_on_the_device() {
        for cfg in configs() {
            let mut bus_f = rig();
            let mut fast = DevilPic8259::new(BASE);
            fast.init(&mut bus_f, cfg);

            // The reference interpreter runs the fused init's declared
            // op sequence: the same eleven field stages and one flush.
            let mut bus_g = rig();
            let ir = crate::specs::shared_ir(crate::specs::PIC8259);
            let sid = ir.superplan_id("icw_init").expect("pic8259 ships icw_init");
            let mut general = ReferenceInstance::new((*ir).clone());
            let mut map = PortMap::new(&mut bus_g, vec![MappedPort::io(BASE)]);
            general.run_superplan(&mut map, sid, &icw_args(cfg), &[], &mut [], &mut []).unwrap();

            assert_eq!(bus_f.ledger(), bus_g.ledger());
            assert_eq!(fast.irq_mask(&mut bus_f), bus_g.inb(BASE + 1));
        }
    }
}
