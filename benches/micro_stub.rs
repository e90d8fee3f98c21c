//! Section 4.3 micro-analysis: the cost of one Devil interface call
//! versus the hand-written equivalent, against the reference
//! interpreter's wall-clock cost (`interp_*`, which motivates the plans
//! and the generated-code back end), and the cost of the paper's debug
//! checks on the plans (`checked_*`); plus the MMR trace ledger's
//! costs.
//!
//! Driver units (against their hand-written twins) and per-stage compile
//! times are measured by devil-bench instead (`bulk_io` and
//! `spec_compile`), with spread.

use criterion::{criterion_group, criterion_main, Criterion};
use devil_runtime::{DeviceAccess, DeviceInstance, FakeAccess, ReferenceInstance};
use std::hint::black_box;

fn lowered(src: &str) -> devil_ir::DeviceIr {
    devil_ir::lower(&devil_sema::check_source(src, &[]).unwrap())
}

fn instance() -> DeviceInstance {
    DeviceInstance::new(lowered(drivers::specs::BUSMOUSE))
}

fn reference() -> ReferenceInstance {
    ReferenceInstance::new(lowered(drivers::specs::BUSMOUSE))
}

fn bench_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_stub");

    // Hand-written equivalent of the config write: mask + or.
    g.bench_function("hand_masked_write", |b| {
        let mut dev = FakeAccess::new();
        b.iter(|| {
            let v: u64 = black_box(1);
            dev.write(0, 3, 8, (v & 0x91) | 0x90);
            black_box(&dev);
        });
    });

    // The reference interpreter doing the same masked write (order
    // walk, per-register compose, hash-free but dynamic). Names resolve
    // per call, as in the by-name plan rows.
    g.bench_function("interp_masked_write", |b| {
        let mut inst = reference();
        let mut dev = FakeAccess::new();
        b.iter(|| {
            let config = inst.ir().var_id("config").unwrap();
            inst.write_id(&mut dev, config, &[], black_box(1)).unwrap();
            black_box(&dev);
        });
    });

    // The precompiled-plan fast path for the identical write: offsets,
    // masks and cache slots resolved at lowering time.
    g.bench_function("plan_masked_write", |b| {
        let mut inst = instance();
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.write(&mut dev, "config", black_box(1)).unwrap();
            black_box(&dev);
        });
    });

    // The same plan with the paper's debug checks on: the written
    // value is validated against the variable's type first.
    g.bench_function("checked_masked_write", |b| {
        let mut inst = instance();
        inst.set_debug_checks(true);
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.write(&mut dev, "config", black_box(1)).unwrap();
            black_box(&dev);
        });
    });

    // Steady-state idempotent read, reference vs precompiled plan
    // (both serve from the cache; the plan path assembles from flat
    // slots with zero hashing or cloning).
    let read_spec = r#"device demo (base : bit[8] port @ {0..0}) {
        register r = base @ 0 : bit[8];
        variable v = r : int(8);
    }"#;
    let read_instance = || DeviceInstance::new(lowered(read_spec));
    g.bench_function("interp_cached_read", |b| {
        let mut inst = ReferenceInstance::new(lowered(read_spec));
        let mut dev = FakeAccess::new();
        let v = inst.ir().var_id("v").unwrap();
        inst.write_id(&mut dev, v, &[], 0x5a).unwrap();
        b.iter(|| {
            let v = inst.ir().var_id("v").unwrap();
            black_box(inst.read_id(&mut dev, v, &[]).unwrap())
        });
    });
    g.bench_function("plan_cached_read", |b| {
        let mut inst = read_instance();
        let mut dev = FakeAccess::new();
        inst.write(&mut dev, "v", 0x5a).unwrap();
        b.iter(|| black_box(inst.read(&mut dev, "v").unwrap()));
    });
    // Checked: the assembled value is validated against the type.
    g.bench_function("checked_cached_read", |b| {
        let mut inst = read_instance();
        inst.set_debug_checks(true);
        let mut dev = FakeAccess::new();
        inst.write(&mut dev, "v", 0x5a).unwrap();
        b.iter(|| black_box(inst.read(&mut dev, "v").unwrap()));
    });

    // The Figure 3 hot loop: a full busmouse structure read (4 index
    // writes + 4 data reads) plus one field extraction, three ways.
    //
    // Hand-written baseline: the Figure 2 loop against the same fake.
    g.bench_function("hand_struct_read", |b| {
        let mut dev = FakeAccess::new();
        b.iter(|| {
            let mut raw = [0u64; 4];
            for (i, r) in raw.iter_mut().enumerate() {
                dev.write(0, 2, 8, 0x80 | ((i as u64) << 5));
                *r = dev.read(0, 0, 8);
            }
            let dx = ((raw[1] & 0xf) << 4) | (raw[0] & 0xf);
            black_box(dx as i8);
        });
    });

    // The reference interpreter walking the order, running pre-actions
    // and resolving names per field.
    g.bench_function("interp_struct_read", |b| {
        let mut inst = reference();
        let mut dev = FakeAccess::new();
        b.iter(|| {
            let sid = inst.ir().struct_id("mouse_state").unwrap();
            inst.read_struct_id(&mut dev, sid).unwrap();
            let dx = inst.ir().var_id("dx").unwrap();
            black_box(inst.get_field_id(dx).unwrap());
        });
    });

    // The precompiled struct plan: 8 straight-line steps, field
    // assembled from flat slots by id — no names, no actions, no
    // hashing.
    g.bench_function("plan_struct_read", |b| {
        let mut inst = instance();
        let sid = inst.ir().struct_id("mouse_state").unwrap();
        let dx = inst.ir().var_id("dx").unwrap();
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.read_struct_id(&mut dev, sid).unwrap();
            black_box(inst.get_field_id(dx).unwrap());
        });
    });

    // The paper's marquee conditional serialization: the full 8259A
    // ICW init flush (icw1..icw4 + ocw1, with `sngl`/`ic4` guards),
    // three ways. Fields are staged once; each iteration performs the
    // five-register flush in CASCADED + IC4 mode.
    //
    // Hand-written baseline: the raw outb sequence.
    g.bench_function("hand_pic_init", |b| {
        let mut dev = FakeAccess::new();
        b.iter(|| {
            dev.write(0, 0, 8, 0x11); // ICW1: init marker, IC4, CASCADED
            dev.write(0, 1, 8, 0x20); // ICW2: vector base
            dev.write(0, 1, 8, 0x04); // ICW3: slave on IRQ2
            dev.write(0, 1, 8, 0x01); // ICW4: 8086 mode
            dev.write(0, 1, 8, 0xfb); // OCW1: mask
            black_box(&dev);
        });
    });

    let pic_instance = || DeviceInstance::new(lowered(drivers::specs::PIC8259));
    // The staged `init` fields: (field, value) pairs for `set_field_id`.
    let init_fields = |ir: &devil_ir::DeviceIr| -> Vec<(devil_sema::model::VarId, u64)> {
        [
            ("ic4", 1),
            ("sngl", 0), // CASCADED: icw3 written
            ("adi", 0),
            ("ltim", 0),
            ("vector_base", 0x20 >> 3),
            ("cascade_map", 0x04),
            ("sfnm", 0),
            ("buffered", 0),
            ("aeoi", 0),
            ("microprocessor", 1),
            ("irq_mask", 0xfb),
        ]
        .into_iter()
        .map(|(n, v)| (ir.var_id(n).unwrap(), v))
        .collect()
    };

    // The reference interpreter: condition evaluation over the cached
    // fields, per-register compose, dynamic order walk.
    g.bench_function("interp_pic_init", |b| {
        let mut inst = ReferenceInstance::new(lowered(drivers::specs::PIC8259));
        let sid = inst.ir().struct_id("init").unwrap();
        for (fid, v) in init_fields(inst.ir()) {
            inst.set_field_id(fid, v).unwrap();
        }
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.write_struct_id(&mut dev, sid).unwrap();
            black_box(&dev);
        });
    });

    // The guard-split plan: two slot guards select the straight-line
    // variant, then five arena steps execute.
    g.bench_function("plan_pic_init", |b| {
        let mut inst = pic_instance();
        let sid = inst.ir().struct_id("init").unwrap();
        for (fid, v) in init_fields(inst.ir()) {
            inst.set_field_id(fid, v).unwrap();
        }
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.write_struct_id(&mut dev, sid).unwrap();
            black_box(&dev);
        });
    });

    // A formerly-fallback shape: a data read whose pre-action flushes
    // a struct with a *nested conditional* serialization. The reference
    // interpreter runs the whole action machinery per read; the plan
    // inlines the folded condition into three straight-line steps.
    let nested_instance = || DeviceInstance::new(lowered(devil_fuzz::synthetic::NESTED_ACTION));
    g.bench_function("interp_nested_cond_read", |b| {
        let mut inst = ReferenceInstance::new(lowered(devil_fuzz::synthetic::NESTED_ACTION));
        let payload = inst.ir().var_id("payload").unwrap();
        let mut dev = FakeAccess::new();
        dev.preset(0, 2, 0x99);
        b.iter(|| black_box(inst.read_id(&mut dev, payload, &[]).unwrap()));
    });
    g.bench_function("plan_nested_cond_read", |b| {
        let mut inst = nested_instance();
        let payload = inst.ir().var_id("payload").unwrap();
        let mut dev = FakeAccess::new();
        dev.preset(0, 2, 0x99);
        b.iter(|| black_box(inst.read_id(&mut dev, payload, &[]).unwrap()));
    });

    // A write whose condition tests the variable being written — the
    // plan selects its variant from the caller's value (input-sourced
    // guard).
    let selfw_instance = || DeviceInstance::new(lowered(devil_fuzz::synthetic::SELF_TESTED));
    g.bench_function("interp_self_tested_write", |b| {
        let mut inst = ReferenceInstance::new(lowered(devil_fuzz::synthetic::SELF_TESTED));
        let w = inst.ir().var_id("w").unwrap();
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.write_id(&mut dev, w, &[], black_box(1)).unwrap();
            black_box(&dev);
        });
    });
    g.bench_function("plan_self_tested_write", |b| {
        let mut inst = selfw_instance();
        let w = inst.ir().var_id("w").unwrap();
        let mut dev = FakeAccess::new();
        b.iter(|| {
            inst.write_id(&mut dev, w, &[], black_box(1)).unwrap();
            black_box(&dev);
        });
    });

    g.finish();
}

/// The MMR-authenticated trace ledger: hot-path append cost, batched
/// leaf-hash throughput, and the rooted equivalence compare at growing
/// replay horizons.
fn bench_mmr(c: &mut Criterion) {
    use devil_fuzz::rooted::OpStream;
    use devil_fuzz::InProcess;
    use hwsim::mmr::{MmrForest, MmrLog};
    use hwsim::{Bus, Width};

    let mut g = c.benchmark_group("mmr");

    // Hot-path bus append: one outb through an untraced vs traced bus.
    // The traced append is a bump-copy into the pending arena; all
    // hashing defers to watermark folds, so the two must sit within
    // tens of nanoseconds of each other.
    g.bench_function("outb_untraced", |b| {
        let mut bus = Bus::default();
        b.iter(|| bus.io_write(black_box(0x300), black_box(0x5a), Width::W8));
    });
    g.bench_function("outb_traced", |b| {
        let mut bus = Bus::default();
        bus.enable_trace(false);
        b.iter(|| bus.io_write(black_box(0x300), black_box(0x5a), Width::W8));
    });

    // One deferred append including its amortized share of the
    // watermark fold, isolated from bus dispatch.
    g.bench_function("log_append_26b", |b| {
        let mut log = MmrLog::new(false);
        let entry = [0xa5u8; 26];
        b.iter(|| log.push(black_box(&entry)));
    });
    g.finish();

    // The two halves of the deferred design, separated: the pure
    // bump-append (what the traced bus pays synchronously when the
    // watermark is far away) and the batched fold that turns pending
    // bytes into leaves (entries/s, what `log_append_26b` amortizes
    // in).
    let batch = 262_144usize;
    let entry = [0x3cu8; 26];
    let pending = || {
        let mut log = MmrLog::new(false).with_watermark(usize::MAX, usize::MAX);
        let t = std::time::Instant::now();
        for _ in 0..batch {
            log.push(&entry);
        }
        (log, t.elapsed())
    };
    criterion::record_samples("mmr/log_append_deferred_ns", || {
        pending().1.as_nanos() as f64 / batch as f64
    });
    criterion::record_samples("mmr/leaf_hash_entries_per_s", || {
        let mut log = pending().0;
        let t = std::time::Instant::now();
        log.fold();
        batch as f64 / t.elapsed().as_secs_f64()
    });

    // The fleet's checkpoint shape: 14-entry segments drained from a
    // traced (retained) log and appended into a streaming forest, per
    // leaf — the leaf hash plus its share of the forest tree's parents.
    let (segments, per_segment) = (20_000usize, 14usize);
    criterion::record_samples("mmr/drain_append_ns_per_leaf", || {
        let mut log = MmrLog::new(true);
        let mut forest = MmrForest::new(false);
        let t = std::time::Instant::now();
        for s in 0..segments {
            for i in 0..per_segment {
                log.push(&[(s + i) as u8; 26]);
            }
            forest.append_segment((s % 8) as u64, &log.take_segment());
        }
        black_box(forest.root());
        t.elapsed().as_nanos() as f64 / (segments * per_segment) as f64
    });

    // Root compare over the plans-vs-reference harness: both rigs
    // stream into O(peaks) memory and the verdict is one 32-byte
    // compare. 10k/100k always; the 1M tier is the nightly
    // `diff-longrun` configuration, gated behind MMR_BENCH_FULL=1.
    let model = devil_sema::check_source(drivers::specs::BUSMOUSE, &[]).unwrap();
    let ir = devil_ir::lower(&model);
    let (plans, reference) = (InProcess::plans(&ir), InProcess::reference(&ir));
    let full = std::env::var("MMR_BENCH_FULL").is_ok_and(|v| v == "1");
    let tiers: &[(u64, &str)] = if full {
        &[(10_000, "10k"), (100_000, "100k"), (1_000_000, "1m")]
    } else {
        &[(10_000, "10k"), (100_000, "100k")]
    };
    for &(n, label) in tiers {
        let mut retained = 0;
        criterion::record_samples(&format!("mmr/rooted_compare_ms_{label}"), || {
            let t = std::time::Instant::now();
            let out = devil_fuzz::compare(&plans, &reference, || OpStream::new(&ir, 0xBE, n))
                .expect("plans and reference agree");
            assert_eq!(out.ops, n);
            retained = out.retained_bytes;
            t.elapsed().as_secs_f64() * 1e3
        });
        criterion::record_value(&format!("mmr/rooted_retained_bytes_{label}"), retained as f64);
    }
}

criterion_group!(benches, bench_micro, bench_mmr);
criterion_main!(benches);
