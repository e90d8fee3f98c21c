//! Bus-mouse drivers: the original hand-crafted style (paper Figure 2)
//! and the Devil-based style (paper Figure 3).

use devil_runtime::{DeviceInstance, MappedPort, PortMap};
use hwsim::Bus;

/// A decoded mouse sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MouseState {
    /// Horizontal delta.
    pub dx: i8,
    /// Vertical delta.
    pub dy: i8,
    /// Button mask (3 bits).
    pub buttons: u8,
}

/// The hand-crafted driver, transcribing the paper's Figure 2: magic
/// port macros and explicit mask/shift arithmetic.
pub struct HandBusmouse {
    base: u64,
}

// Figure 2's macro block, faithfully.
const MSE_READ_X_LOW: u8 = 0x80;
const MSE_READ_X_HIGH: u8 = 0xa0;
const MSE_READ_Y_LOW: u8 = 0xc0;
const MSE_READ_Y_HIGH: u8 = 0xe0;
const MSE_INT_ENABLE: u8 = 0x00;
const MSE_INT_DISABLE: u8 = 0x10;

impl HandBusmouse {
    /// Creates a driver for a mouse at I/O `base`.
    pub fn new(base: u64) -> Self {
        HandBusmouse { base }
    }

    /// Probes the signature register.
    pub fn signature(&self, bus: &mut Bus) -> u8 {
        bus.inb(self.base + 1)
    }

    /// Enables or disables motion interrupts.
    pub fn set_irq(&self, bus: &mut Bus, enable: bool) {
        let cmd = if enable { MSE_INT_ENABLE } else { MSE_INT_DISABLE };
        bus.outb(self.base + 2, cmd);
    }

    /// Reads a full motion sample — the Figure 2 fragment.
    pub fn read_state(&self, bus: &mut Bus) -> MouseState {
        let mse_data_port = self.base;
        let mse_control_port = self.base + 2;
        bus.outb(mse_control_port, MSE_READ_X_LOW);
        let mut dx = bus.inb(mse_data_port) & 0xf;
        bus.outb(mse_control_port, MSE_READ_X_HIGH);
        dx |= (bus.inb(mse_data_port) & 0xf) << 4;
        bus.outb(mse_control_port, MSE_READ_Y_LOW);
        let mut dy = bus.inb(mse_data_port) & 0xf;
        bus.outb(mse_control_port, MSE_READ_Y_HIGH);
        let mut buttons = bus.inb(mse_data_port);
        dy |= (buttons & 0xf) << 4;
        buttons = (buttons >> 5) & 0x07;
        MouseState { dx: dx as i8, dy: dy as i8, buttons }
    }
}

/// The Devil-based driver: all device interaction goes through the
/// generated-interface semantics (`bm_get_mouse_state()` /
/// `bm_get_dx()` of Figure 3). Structure and field ids are resolved
/// once at construction, so the sample hot loop runs the precompiled
/// struct plan with zero name lookups.
pub struct DevilBusmouse {
    dev: DeviceInstance,
    /// The one Devil port, at I/O base.
    ports: [MappedPort; 1],
    mouse_state: devil_sema::model::StructId,
    dx: devil_sema::model::VarId,
    dy: devil_sema::model::VarId,
    buttons: devil_sema::model::VarId,
}

impl DevilBusmouse {
    /// Compiles the embedded specification and binds it at `base`.
    pub fn new(base: u64) -> Self {
        Self::with_instance(base, crate::specs::instance(crate::specs::BUSMOUSE))
    }

    /// Binds an already-built interpreter instance at `base` — the
    /// fleet-spawning path, where one shared IR backs many drivers.
    pub fn with_instance(base: u64, dev: DeviceInstance) -> Self {
        let ir = dev.ir();
        let mouse_state = ir.struct_id("mouse_state").expect("spec exports mouse_state");
        let dx = ir.var_id("dx").expect("spec exports dx");
        let dy = ir.var_id("dy").expect("spec exports dy");
        let buttons = ir.var_id("buttons").expect("spec exports buttons");
        DevilBusmouse { dev, ports: [MappedPort::io(base)], mouse_state, dx, dy, buttons }
    }

    /// Enables debug-mode run-time checks.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.dev.set_debug_checks(on);
    }

    /// Plan-dispatch counters of the underlying interpreter.
    pub fn plan_stats(&self) -> devil_runtime::PlanStats {
        self.dev.plan_stats()
    }

    /// The underlying interpreter instance (fleet snapshotting).
    pub fn instance(&self) -> &DeviceInstance {
        &self.dev
    }

    /// Probes the signature register via the `signature` variable.
    pub fn signature(&mut self, bus: &mut Bus) -> u8 {
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev.read(&mut map, "signature").expect("signature is readable") as u8
    }

    /// Enables or disables motion interrupts via the `interrupt`
    /// variable's enumerated values.
    pub fn set_irq(&mut self, bus: &mut Bus, enable: bool) {
        let mut map = PortMap::new(bus, &self.ports[..]);
        let sym = if enable { "ENABLE" } else { "DISABLE" };
        self.dev.write_sym(&mut map, "interrupt", sym).expect("interrupt is writable");
    }

    /// Reads a full motion sample: one structure read, then cached
    /// field getters — Figure 3's stub usage. The struct plan performs
    /// the 4 index writes and 4 data reads as straight-line steps; the
    /// getters assemble from flat cache slots.
    pub fn read_state(&mut self, bus: &mut Bus) -> MouseState {
        let mut map = PortMap::new(bus, &self.ports[..]);
        self.dev.read_struct_id(&mut map, self.mouse_state).expect("mouse_state readable");
        let dx = self.dev.get_field_signed_id(self.dx).unwrap() as i8;
        let dy = self.dev.get_field_signed_id(self.dy).unwrap() as i8;
        let buttons = self.dev.get_field_id(self.buttons).unwrap() as u8;
        MouseState { dx, dy, buttons }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::Busmouse;
    use hwsim::IrqLine;

    const BASE: u64 = 0x23c;

    fn rig(dx: i8, dy: i8, buttons: u8) -> Bus {
        let mut bus = Bus::default();
        let irq = IrqLine::new();
        let mut dev = Busmouse::new(irq);
        dev.move_by(dx, dy);
        dev.set_buttons(buttons);
        bus.attach_io(Box::new(dev), BASE, 4);
        bus
    }

    #[test]
    fn hand_driver_reads_motion() {
        let mut bus = rig(5, -3, 0b101);
        let drv = HandBusmouse::new(BASE);
        assert_eq!(drv.signature(&mut bus), Busmouse::SIGNATURE);
        let s = drv.read_state(&mut bus);
        assert_eq!(s, MouseState { dx: 5, dy: -3, buttons: 0b101 });
    }

    #[test]
    fn devil_driver_reads_motion() {
        let mut bus = rig(5, -3, 0b101);
        let mut drv = DevilBusmouse::new(BASE);
        drv.set_debug_checks(true);
        assert_eq!(drv.signature(&mut bus), Busmouse::SIGNATURE);
        let s = drv.read_state(&mut bus);
        assert_eq!(s, MouseState { dx: 5, dy: -3, buttons: 0b101 });
    }

    #[test]
    fn both_drivers_agree_and_cost_the_same_io() {
        for (dx, dy, b) in [(0, 0, 0), (127, -128_i8, 7), (-1, 1, 2), (44, -44, 5)] {
            let mut bus_h = rig(dx, dy, b);
            let drv_h = HandBusmouse::new(BASE);
            let s_h = drv_h.read_state(&mut bus_h);
            let ops_h = bus_h.ledger().io_ops();

            let mut bus_d = rig(dx, dy, b);
            let mut drv_d = DevilBusmouse::new(BASE);
            let s_d = drv_d.read_state(&mut bus_d);
            let ops_d = bus_d.ledger().io_ops();

            assert_eq!(s_h, s_d, "drivers disagree for ({dx},{dy},{b})");
            assert_eq!(ops_h, ops_d, "Devil stubs must cost the same 8 ops");
            assert_eq!(ops_h, 8, "4 index writes + 4 data reads");
        }
    }

    /// Mirrors the pic8259/IDE zero-fallback tests: every access of the
    /// Figure 3 workload must dispatch on a precompiled plan. A future
    /// regression pushing any busmouse access off the fast path fails
    /// here loudly.
    #[test]
    fn devil_driver_runs_entirely_on_plans() {
        let mut bus = rig(9, -9, 0b010);
        let mut drv = DevilBusmouse::new(BASE);
        assert_eq!(drv.signature(&mut bus), Busmouse::SIGNATURE);
        drv.set_irq(&mut bus, true);
        for _ in 0..3 {
            drv.read_state(&mut bus);
        }
        drv.set_irq(&mut bus, false);
        let stats = drv.plan_stats();
        assert!(stats.straight > 0, "workload must hit plans: {stats:?}");
        assert_eq!(stats.general, 0, "no general-interpreter fallback: {stats:?}");
    }

    #[test]
    fn devil_irq_enable_writes_masked_command() {
        let mut bus = rig(0, 0, 0);
        let mut drv = DevilBusmouse::new(BASE);
        drv.set_irq(&mut bus, true);
        // The spec forces bits 7..5 and 3..0 of interrupt_reg to 0 and
        // bit 4 carries ENABLE='0' — the device decodes irq enabled.
        let hand = HandBusmouse::new(BASE);
        let _ = hand;
        drv.set_irq(&mut bus, false);
    }
}
