//! Property tests on the runtime's core invariants:
//!
//! * write-then-read identity for idempotent variables,
//! * sibling preservation on shared registers,
//! * mask forcing on every written byte,
//! * concatenated variables assemble across registers correctly.

use devil_runtime::{DeviceInstance, FakeAccess, ReferenceInstance};
use proptest::prelude::*;

fn instance(src: &str) -> DeviceInstance {
    let model = devil_sema::check_source(src, &[]).expect("valid spec");
    DeviceInstance::new(devil_ir::lower(&model))
}

/// A spec with two variables packed into one register at a random
/// split point.
fn split_spec(split: u32) -> String {
    format!(
        r#"device d (base : bit[8] port @ {{0..0}}) {{
             register r = base @ 0 : bit[8];
             variable lo = r[{}..0] : int({});
             variable hi = r[7..{}] : int({});
           }}"#,
        split,
        split + 1,
        split + 1,
        7 - split
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_identity(v in 0u64..256) {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable x = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "x", v).unwrap();
        prop_assert_eq!(d.read(&mut dev, "x").unwrap(), v);
        prop_assert_eq!(dev.regs[&(0, 0)], v);
    }

    #[test]
    fn shared_register_siblings_survive(split in 0u32..7, a in 0u64..256, b in 0u64..256) {
        let mut d = instance(&split_spec(split));
        let mut dev = FakeAccess::new();
        let lo_mask = (1u64 << (split + 1)) - 1;
        let hi_mask = (1u64 << (7 - split)) - 1;
        let (a, b) = (a & lo_mask, b & hi_mask);
        d.write(&mut dev, "lo", a).unwrap();
        d.write(&mut dev, "hi", b).unwrap();
        prop_assert_eq!(d.read(&mut dev, "lo").unwrap(), a, "hi write clobbered lo");
        prop_assert_eq!(d.read(&mut dev, "hi").unwrap(), b);
        prop_assert_eq!(dev.regs[&(0, 0)], a | (b << (split + 1)));
        // Rewrite lo with a new value; hi must persist.
        let a2 = (a + 1) & lo_mask;
        d.write(&mut dev, "lo", a2).unwrap();
        prop_assert_eq!(d.read(&mut dev, "hi").unwrap(), b);
    }

    #[test]
    fn forced_mask_bits_always_written(v in 0u64..16) {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = write base @ 0, mask '10****01' : bit[8];
                 variable x = r[5..2] : int(4);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "x", v).unwrap();
        let raw = dev.regs[&(0, 0)];
        prop_assert_eq!(raw & 0b1100_0011, 0b1000_0001, "forced bits wrong: {:#010b}", raw);
        prop_assert_eq!((raw >> 2) & 0xf, v);
    }

    #[test]
    fn concatenation_assembles_msb_first(hi in 0u64..256, lo in 0u64..256) {
        let mut d = instance(
            r#"device d (a : bit[8] port @ {0..1}) {
                 register rl = a @ 0 : bit[8];
                 register rh = a @ 1 : bit[8];
                 variable w = rh # rl : int(16);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, lo);
        dev.preset(0, 1, hi);
        prop_assert_eq!(d.read(&mut dev, "w").unwrap(), (hi << 8) | lo);
        // And the inverse: writing decomposes.
        let v = ((hi << 8) | lo) ^ 0x5a5a;
        d.write(&mut dev, "w", v).unwrap();
        prop_assert_eq!(dev.regs[&(0, 1)], v >> 8);
        prop_assert_eq!(dev.regs[&(0, 0)], v & 0xff);
    }

    #[test]
    fn sign_extension_matches_reference(v in 0u64..256) {
        let got = devil_runtime::sign_extend(v, 8);
        prop_assert_eq!(got, v as u8 as i8 as i64);
    }

    #[test]
    fn plan_and_interpreter_paths_agree(split in 0u32..7, writes in proptest::collection::vec((any::<bool>(), 0u64..256), 1..12)) {
        // Replay a random read/write sequence through the precompiled
        // plans and the reference interpreter; the device must see the
        // exact same op stream.
        let lo_mask = (1u64 << (split + 1)) - 1;
        let src = split_spec(split);
        let mut fast = instance(&src);
        let mut fast_dev = FakeAccess::new();
        let model = devil_sema::check_source(&src, &[]).expect("valid spec");
        let mut slow = ReferenceInstance::new(devil_ir::lower(&model));
        let mut slow_dev = FakeAccess::new();
        let lo = slow.ir().var_id("lo").unwrap();
        for &(read, v) in &writes {
            if read {
                let a = fast.read(&mut fast_dev, "lo").unwrap();
                let b = slow.read_id(&mut slow_dev, lo, &[]).unwrap();
                prop_assert_eq!(a, b);
            } else {
                fast.write(&mut fast_dev, "lo", v & lo_mask).unwrap();
                slow.write_id(&mut slow_dev, lo, &[], v & lo_mask).unwrap();
            }
        }
        prop_assert_eq!(&fast_dev.log, &slow_dev.log);
        prop_assert_eq!(&fast_dev.regs, &slow_dev.regs);
    }

    #[test]
    fn debug_checks_accept_exactly_the_value_set(v in 0u64..64) {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '..******' : bit[8];
                 variable x = r[5..0] : int{0..17, 25};
               }"#,
        );
        d.set_debug_checks(true);
        let mut dev = FakeAccess::new();
        let ok = (0..=17).contains(&v) || v == 25;
        prop_assert_eq!(d.write(&mut dev, "x", v).is_ok(), ok, "value {}", v);
        // A rejected value never reaches the device.
        prop_assert_eq!(dev.ops(), usize::from(ok));
    }
}
