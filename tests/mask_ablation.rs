//! Failure injection for mask enforcement: what happens when a driver
//! writes a register *without* the forced bits the Devil mask
//! supplies. The busmouse control port decodes bit 7 to distinguish
//! index selection from interrupt configuration — omitting the forced
//! `1` silently reprograms interrupts instead of selecting a nibble,
//! exactly the class of bug the paper's masks eliminate.

use devil::devices::Busmouse;
use devil::hwsim::{Bus, IrqLine};

const BASE: u64 = 0x23c;

fn rig() -> (Bus, IrqLine) {
    let irq = IrqLine::new();
    let mut bus = Bus::default();
    let mut dev = Busmouse::new(irq.clone());
    dev.move_by(5, 3);
    bus.attach_io(Box::new(dev), BASE, 4);
    (bus, irq)
}

#[test]
fn unmasked_index_write_corrupts_device_state() {
    // Correct protocol: index writes carry the forced bit 7.
    let (mut bus, _) = rig();
    bus.outb(BASE + 2, 0x00); // enable interrupts (bit 7 clear, bit 4 clear)
    bus.outb(BASE + 2, 0x80 | (1 << 5)); // select x_high — masked form
    let _ = bus.inb(BASE);

    // Buggy driver: forgets the forced bit (a one-character mutation a
    // C compiler accepts silently).
    let (mut bus2, _) = rig();
    bus2.outb(BASE + 2, 0x00); // enable interrupts
    bus2.outb(BASE + 2, 1 << 5); // "select x_high" without bit 7
    let _ = bus2.inb(BASE);
    // The device decoded the write as an interrupt-configuration
    // command (bit 4 clear keeps irqs on) and the index never moved:
    // the data port still serves nibble 0 (x_low), not x_high.
    let (mut reference, _) = rig();
    reference.outb(BASE + 2, 0x80); // select x_low properly
    let x_low = reference.inb(BASE);
    let (mut bus3, _) = rig();
    bus3.outb(BASE + 2, 1 << 5);
    let got = bus3.inb(BASE);
    assert_eq!(got, x_low, "unmasked write silently left the index at x_low");
}

#[test]
fn devil_interface_makes_the_bug_unexpressible() {
    // Through the generated-interface semantics the driver never
    // composes the control byte: the mask '1**00000' forces bit 7 on
    // every index write.
    use devil::runtime::{DeviceInstance, MappedPort, PortMap};
    let model = devil::sema::check_source(devil::drivers::specs::BUSMOUSE, &[]).unwrap();
    let mut iface = DeviceInstance::new(devil::ir::lower(&model));
    let (mut bus, _) = rig();
    let mut ports = PortMap::new(&mut bus, vec![MappedPort::io(BASE)]);
    // A structure read drives all four index selections correctly.
    iface.read_struct(&mut ports, "mouse_state").unwrap();
    assert_eq!(iface.get_field_signed("dx").unwrap(), 5);
    assert_eq!(iface.get_field_signed("dy").unwrap(), 3);
}

#[test]
fn trigger_neutral_prevents_spurious_commands() {
    // NE2000: writing the idempotent page selector must not re-issue
    // the transmit trigger. Inject a pending TXP state and verify the
    // interpreter substitutes the neutral value.
    use devil::devices::Ne2000;
    use devil::runtime::{DeviceInstance, MappedPort, PortMap};
    let model = devil::sema::check_source(devil::drivers::specs::NE2000, &[]).unwrap();
    let mut iface = DeviceInstance::new(devil::ir::lower(&model));
    let irq = IrqLine::new();
    let mut bus = Bus::default();
    bus.attach_io(Box::new(Ne2000::new([0; 6], irq)), 0x300, 18);
    let mut ports = PortMap::new(&mut bus, vec![MappedPort::io(0x300), MappedPort::io(0x300)]);

    // Start the NIC, then transmit once.
    iface.write_sym(&mut ports, "st", "STA").unwrap();
    iface.write(&mut ports, "tpsr", 0x40).unwrap();
    iface.write(&mut ports, "tbcr", 4).unwrap();
    iface.write_sym(&mut ports, "txp", "SEND").unwrap();
    // Now write an unrelated cmd field; txp's neutral (NOP) must be
    // composed, so no second frame is transmitted.
    iface.write_sym(&mut ports, "rd", "NODMA").unwrap();
    iface.write_sym(&mut ports, "rd", "NODMA").unwrap();
    // Count transmissions via a parallel direct device (deterministic
    // replay of the same byte stream).
    use devil::hwsim::Device as _;
    let mut replay = Ne2000::new([0; 6], IrqLine::new());
    let mut iface2 = DeviceInstance::new(devil::ir::lower(&model));
    struct Direct<'a>(&'a mut Ne2000);
    impl devil::runtime::DeviceAccess for Direct<'_> {
        fn read(&mut self, _p: usize, o: u64, w: u32) -> u64 {
            self.0.io_read(o, devil::hwsim::Width::from_bits(w).unwrap())
        }
        fn write(&mut self, _p: usize, o: u64, w: u32, v: u64) {
            self.0.io_write(o, v, devil::hwsim::Width::from_bits(w).unwrap());
        }
    }
    {
        let mut acc = Direct(&mut replay);
        iface2.write_sym(&mut acc, "st", "STA").unwrap();
        iface2.write(&mut acc, "tpsr", 0x40).unwrap();
        iface2.write(&mut acc, "tbcr", 4).unwrap();
        iface2.write_sym(&mut acc, "txp", "SEND").unwrap();
        iface2.write_sym(&mut acc, "rd", "NODMA").unwrap();
        iface2.write_sym(&mut acc, "rd", "NODMA").unwrap();
    }
    assert_eq!(replay.transmitted.len(), 1, "neutral value must suppress re-triggering");
}
