//! `control_plane`: single thread, closed loop, 64 instances on
//! untraced buses. Units are issued straight through `DeviceInstance`
//! over a `PortMap`, as devil-fleet's raw-instance rigs do, so the
//! traced run can wrap the `DeviceAccess` and time the port and bus
//! layer apart from runtime dispatch.
//!
//! A round runs one unit of each kind in a fixed order:
//! pic8259 ICW init fused, then per-plan (the four `sngl`/`ic4` guard
//! combinations cycle across rounds), the busmouse Figure 3 struct read,
//! dma8237 channel programming, and cs4236b indexed and extended
//! accesses. The seed picks the instance and the values.

use crate::costs::{self, CostAcc, Snap};
use crate::report::Report;
use crate::trace::{self, shim, span, Layer, TracedAccess};
use crate::{Config, RoundTimes, Rounds};
use devices::{Busmouse, Cs4236b, I8237, I8259};
use devil_fleet::Rng;
use devil_ir::DeviceIr;
use devil_runtime::{DeviceAccess, DeviceInstance, MappedPort, PortMap, RtResult};
use devil_sema::model::{StructId, VarId};
use drivers::{specs, HandBusmouse, HandPic8259, PicConfig};
use hwsim::{Bus, IrqLine, SharedMem};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const PIC_BASE: u64 = 0x20;
const MOUSE_BASE: u64 = 0x23c;
const DMA_BASE: u64 = 0x0;
const CODEC_BASE: u64 = 0x534;
/// Instances per device kind: four kinds, 64 instances.
const PER_KIND: usize = 16;

/// Unit kinds, in round order (the cost table's rows).
const KINDS: &[&str] = &[
    "pic8259_init_fused",
    "pic8259_init",
    "busmouse_read",
    "dma8237_program",
    "cs4236b_indexed",
    "cs4236b_extended",
];

/// Rounds in the deterministic cost pass.
const COST_ROUNDS: u64 = 256;

struct Rig<T> {
    bus: Bus,
    inst: DeviceInstance,
    dev: Rc<RefCell<T>>,
}

/// A hand-driver twin rig: same device model, no Devil instance.
struct Twin<T> {
    bus: Bus,
    dev: Rc<RefCell<T>>,
}

fn rig<T: hwsim::Device + 'static>(dev: T, base: u64, len: u64, ir: &Arc<DeviceIr>) -> Rig<T> {
    let (boxed, dev) = shim(dev);
    let mut bus = Bus::default();
    bus.attach_io(boxed, base, len);
    Rig { bus, inst: DeviceInstance::with_shared_ir(ir.clone()), dev }
}

fn twin<T: hwsim::Device + 'static>(dev: T, base: u64, len: u64) -> Twin<T> {
    let (boxed, dev) = shim(dev);
    let mut bus = Bus::default();
    bus.attach_io(boxed, base, len);
    Twin { bus, dev }
}

struct PicIds {
    init: StructId,
    /// `ic4 sngl adi ltim vector_base cascade_map sfnm buffered aeoi
    /// microprocessor irq_mask`, the order `DevilPic8259::init` stages.
    fields: [VarId; 11],
    sp_init: usize,
}

struct MouseIds {
    state: StructId,
    dx: VarId,
    dy: VarId,
    buttons: VarId,
}

struct DmaIds {
    addr: [VarId; 4],
    count: [VarId; 4],
    mode: VarId,
    single_mask: VarId,
    tc_status: VarId,
}

struct CodecIds {
    id: VarId,
    xd: VarId,
}

/// One round's inputs, drawn from the seed stream before the round runs.
struct Input {
    pic_fused: (usize, PicConfig),
    pic_plan: (usize, PicConfig),
    mouse: (usize, i8, i8, u8),
    dma: (usize, usize, u64, u64, u64),
    codec_indexed: (usize, u64, u64),
    codec_extended: (usize, u64, u64),
}

pub(crate) struct ControlPlane {
    pic: Vec<Rig<I8259>>,
    mouse: Vec<Rig<Busmouse>>,
    dma: Vec<Rig<I8237>>,
    codec: Vec<Rig<Cs4236b>>,
    pic_twin: Vec<Twin<I8259>>,
    mouse_twin: Vec<Twin<Busmouse>>,
    pic_ids: PicIds,
    mouse_ids: MouseIds,
    dma_ids: DmaIds,
    codec_ids: CodecIds,
    hand_pic: HandPic8259,
    hand_mouse: HandBusmouse,
    rng: Rng,
    plant_fault: bool,
}

fn var(ir: &DeviceIr, name: &str) -> VarId {
    ir.var_id(name).unwrap_or_else(|| panic!("spec exports {name}"))
}

impl ControlPlane {
    /// Compiles the four specs and spawns the rigs; returns the seconds
    /// spent compiling.
    fn build(seed: u64, plant_fault: bool) -> (ControlPlane, f64) {
        let t0 = Instant::now();
        let pic_ir = specs::shared_ir(specs::PIC8259);
        let mouse_ir = specs::shared_ir(specs::BUSMOUSE);
        let dma_ir = specs::shared_ir(specs::DMA8237);
        let codec_ir = specs::shared_ir(specs::CS4236B);
        let compile_s = t0.elapsed().as_secs_f64();

        let f = |n: &str| var(&pic_ir, n);
        let pic_ids = PicIds {
            init: pic_ir.struct_id("init").expect("pic8259 exports init"),
            fields: [
                f("ic4"),
                f("sngl"),
                f("adi"),
                f("ltim"),
                f("vector_base"),
                f("cascade_map"),
                f("sfnm"),
                f("buffered"),
                f("aeoi"),
                f("microprocessor"),
                f("irq_mask"),
            ],
            sp_init: pic_ir.superplan_id("icw_init").expect("pic8259 ships icw_init"),
        };
        let mouse_ids = MouseIds {
            state: mouse_ir.struct_id("mouse_state").expect("busmouse exports mouse_state"),
            dx: var(&mouse_ir, "dx"),
            dy: var(&mouse_ir, "dy"),
            buttons: var(&mouse_ir, "buttons"),
        };
        let d = |n: &str| var(&dma_ir, n);
        let dma_ids = DmaIds {
            addr: [d("addr0"), d("addr1"), d("addr2"), d("addr3")],
            count: [d("count0"), d("count1"), d("count2"), d("count3")],
            mode: d("mode"),
            single_mask: d("single_mask"),
            tc_status: d("tc_status"),
        };
        let codec_ids = CodecIds { id: var(&codec_ir, "ID"), xd: var(&codec_ir, "XD") };

        let cp = ControlPlane {
            pic: (0..PER_KIND)
                .map(|_| rig(I8259::new(IrqLine::new()), PIC_BASE, 2, &pic_ir))
                .collect(),
            mouse: (0..PER_KIND)
                .map(|_| rig(Busmouse::new(IrqLine::new()), MOUSE_BASE, 4, &mouse_ir))
                .collect(),
            dma: (0..PER_KIND)
                .map(|_| rig(I8237::new(SharedMem::new(1024)), DMA_BASE, 16, &dma_ir))
                .collect(),
            codec: (0..PER_KIND).map(|_| rig(Cs4236b::new(), CODEC_BASE, 2, &codec_ir)).collect(),
            pic_twin: (0..PER_KIND)
                .map(|_| twin(I8259::new(IrqLine::new()), PIC_BASE, 2))
                .collect(),
            mouse_twin: (0..PER_KIND)
                .map(|_| twin(Busmouse::new(IrqLine::new()), MOUSE_BASE, 4))
                .collect(),
            pic_ids,
            mouse_ids,
            dma_ids,
            codec_ids,
            hand_pic: HandPic8259::new(PIC_BASE),
            hand_mouse: HandBusmouse::new(MOUSE_BASE),
            rng: Rng::new(seed),
            plant_fault,
        };
        (cp, compile_s)
    }

    fn input(&mut self, r: u64) -> Input {
        let rng = &mut self.rng;
        let pic = |rng: &mut Rng, combo: u64| PicConfig {
            single: combo & 1 != 0,
            with_icw4: combo & 2 != 0,
            vector_base: (rng.below(32) << 3) as u8,
            cascade_map: rng.next_u64() as u8,
            x86: rng.chance(1, 2),
            auto_eoi: rng.chance(1, 4),
            irq_mask: rng.next_u64() as u8,
        };
        let half = PER_KIND as u64 / 2;
        // Traced runs trace every other round, so the combination
        // advances every two rounds to reach all four in both halves.
        let combo = r / 2;
        let pic_fused = (rng.below(half) as usize, pic(rng, combo % 4));
        let pic_plan = ((half + rng.below(half)) as usize, pic(rng, (combo + 2) % 4));
        let mouse = (
            rng.below(PER_KIND as u64) as usize,
            rng.next_u64() as i8,
            rng.next_u64() as i8,
            rng.below(8) as u8,
        );
        let ch = rng.below(4) as usize;
        let dma = (
            rng.below(PER_KIND as u64) as usize,
            ch,
            (rng.next_u64() & 0xfc) | ch as u64,
            rng.below(1 << 16),
            rng.below(1 << 16),
        );
        // I23 is the extended-register gateway; the other 31 are plain.
        let plain = rng.below(31);
        let plain = if plain >= 23 { plain + 1 } else { plain };
        let codec_indexed = (rng.below(half) as usize, plain, rng.below(256));
        let x = rng.below(19);
        let x = if x == 18 { 25 } else { x };
        let codec_extended = ((half + rng.below(half)) as usize, x, rng.below(256));
        Input { pic_fused, pic_plan, mouse, dma, codec_indexed, codec_extended }
    }

    /// Runs unit `kind` of `inp`, returning its output word.
    fn unit(&mut self, kind: usize, inp: &Input, traced: bool) -> RtResult<u64> {
        match kind {
            0 => {
                let (i, cfg) = inp.pic_fused;
                pic_fused(&mut self.pic[i], &self.pic_ids, &cfg, traced).map(|()| 0)
            }
            1 => {
                let (i, cfg) = inp.pic_plan;
                pic_plan(&mut self.pic[i], &self.pic_ids, &cfg, traced).map(|()| 0)
            }
            2 => mouse_read(&mut self.mouse[inp.mouse.0], &self.mouse_ids, traced),
            3 => {
                let (i, ch, mode, addr, count) = inp.dma;
                dma_program(&mut self.dma[i], &self.dma_ids, ch, mode, addr, count, traced)
            }
            4 => {
                let (i, reg, v) = inp.codec_indexed;
                codec_access(&mut self.codec[i], self.codec_ids.id, reg, v, traced)
            }
            _ => {
                let (i, reg, v) = inp.codec_extended;
                codec_access(&mut self.codec[i], self.codec_ids.xd, reg, v, traced)
            }
        }
    }

    /// Sets the device-side inputs of a round (mouse motion) on the Devil
    /// rig and its twin.
    fn prepare(&mut self, inp: &Input) {
        let (i, dx, dy, b) = inp.mouse;
        for dev in [&self.mouse[i].dev, &self.mouse_twin[i].dev] {
            let mut m = dev.borrow_mut();
            m.move_by(dx, dy);
            m.set_buttons(b);
        }
    }

    /// Runs the hand-written twins of the first three units (pic init
    /// twice, mouse read), returning the mouse output word.
    fn hand(&mut self, inp: &Input) -> u64 {
        for (i, cfg) in [inp.pic_fused, inp.pic_plan] {
            self.hand_pic.init(&mut self.pic_twin[i].bus, cfg);
        }
        let s = self.hand_mouse.read_state(&mut self.mouse_twin[inp.mouse.0].bus);
        mouse_word(s.dx, s.dy, s.buttons)
    }

    /// Checks every output of a round against the device models and a
    /// read-back through the bus. Returns the number of failed units.
    fn check(&mut self, inp: &Input, out: &[RtResult<u64>; 6], hand_mouse: u64) -> u32 {
        let mut failed = 0;
        let mut fail = |bad: bool| failed += u32::from(bad);
        for (k, (i, cfg)) in [inp.pic_fused, inp.pic_plan].into_iter().enumerate() {
            let rig = &mut self.pic[i];
            let model_ok = {
                let pic = rig.dev.borrow();
                pic.initialized() && pic.single() == cfg.single && pic.needs_icw4() == cfg.with_icw4
            };
            let imr = rig.bus.inb(PIC_BASE + 1);
            let hand_imr = self.pic_twin[i].bus.inb(PIC_BASE + 1);
            fail(out[k].is_err() || !model_ok || imr != cfg.irq_mask || hand_imr != imr);
        }
        let (_, dx, dy, b) = inp.mouse;
        let dx = if self.plant_fault { dx.wrapping_add(1) } else { dx };
        let want = mouse_word(dx, dy, b);
        fail(out[2].as_ref().ok() != Some(&want) || hand_mouse != want);
        let (i, ch, mode, addr, count) = inp.dma;
        let c = self.dma[i].dev.borrow().channels[ch];
        fail(
            out[3].is_err()
                || u64::from(c.base_addr) != addr
                || u64::from(c.base_count) != count
                || u64::from(c.mode) != mode
                || c.masked,
        );
        let (i, reg, v) = inp.codec_indexed;
        let model = u64::from(self.codec[i].dev.borrow().i_regs[reg as usize]);
        fail(out[4].as_ref().ok() != Some(&v) || model != v);
        let (i, reg, v) = inp.codec_extended;
        let model = u64::from(self.codec[i].dev.borrow().x_regs[reg as usize]);
        fail(out[5].as_ref().ok() != Some(&v) || model != v);
        failed
    }

    /// The deterministic cost pass: `COST_ROUNDS` rounds with per-unit
    /// counter deltas.
    fn cost_pass(&mut self) -> CostAcc {
        let mut acc = CostAcc::new(KINDS);
        for r in 0..COST_ROUNDS {
            let inp = self.input(r);
            self.prepare(&inp);
            for kind in 0..KINDS.len() {
                let (bus, inst) = self.unit_rig(kind, &inp);
                let before = Snap::take(bus, &[inst]);
                let _ = self.unit(kind, &inp, false);
                let (bus, inst) = self.unit_rig(kind, &inp);
                acc.add(kind, &before, &Snap::take(bus, &[inst]));
            }
        }
        acc
    }

    fn unit_rig(&self, kind: usize, inp: &Input) -> (&Bus, &DeviceInstance) {
        fn parts<T>(r: &Rig<T>) -> (&Bus, &DeviceInstance) {
            (&r.bus, &r.inst)
        }
        match kind {
            0 => parts(&self.pic[inp.pic_fused.0]),
            1 => parts(&self.pic[inp.pic_plan.0]),
            2 => parts(&self.mouse[inp.mouse.0]),
            3 => parts(&self.dma[inp.dma.0]),
            4 => parts(&self.codec[inp.codec_indexed.0]),
            _ => parts(&self.codec[inp.codec_extended.0]),
        }
    }
}

impl Rounds for ControlPlane {
    // The pic8259 guard combination cycles every 8 rounds and the
    // hand twins alternate first and last.
    const ROUNDS_PER_SAMPLE: u32 = 8;

    fn round(&mut self, r: u64, traced: bool) -> RoundTimes {
        let inp = self.input(r);
        self.prepare(&inp);
        let hand_first = r % 2 == 1;
        let mut hand_ns = 0;
        let mut hand_mouse = 0;
        let mut run_hand = |cp: &mut ControlPlane| {
            let t = Instant::now();
            hand_mouse = cp.hand(&inp);
            hand_ns = t.elapsed().as_nanos() as u64;
        };
        if hand_first {
            run_hand(self);
        }
        let mut out: [RtResult<u64>; 6] = [Ok(0), Ok(0), Ok(0), Ok(0), Ok(0), Ok(0)];
        let mut marks = [Instant::now(); 7];
        for (kind, slot) in out.iter_mut().enumerate() {
            *slot = if traced {
                trace::unit(|| self.unit(kind, &inp, true))
            } else {
                self.unit(kind, &inp, false)
            };
            marks[kind + 1] = Instant::now();
        }
        if !hand_first {
            run_hand(self);
        }
        let ns = |a: usize, b: usize| marks[b].duration_since(marks[a]).as_nanos() as u64;
        RoundTimes {
            units: KINDS.len() as u32,
            devil_ns: ns(0, 6),
            twin_units: 3,
            twin_devil_ns: ns(0, 3),
            hand_ns,
            fused_units: 1,
            fused_ns: ns(0, 1),
            unfused_units: 1,
            unfused_ns: ns(1, 2),
            failed: self.check(&inp, &out, hand_mouse),
        }
    }
}

/// Runs `f` over the rig's `PortMap`, wrapped for tracing when `traced`.
fn with_map<R>(
    bus: &mut Bus,
    base: u64,
    traced: bool,
    f: impl FnOnce(&mut dyn DeviceAccess) -> R,
) -> R {
    let mut map = span(Layer::Port, || PortMap::new(bus, vec![MappedPort::io(base)]));
    let r = if traced { f(&mut TracedAccess(&mut map)) } else { f(&mut map) };
    span(Layer::Port, move || drop(map));
    r
}

fn pic_fused(rig: &mut Rig<I8259>, ids: &PicIds, cfg: &PicConfig, traced: bool) -> RtResult<()> {
    let args = [
        u64::from(cfg.with_icw4),
        u64::from(cfg.single),
        u64::from(cfg.vector_base >> 3),
        u64::from(cfg.cascade_map),
        u64::from(cfg.auto_eoi),
        u64::from(cfg.x86),
        u64::from(cfg.irq_mask),
    ];
    let inst = &mut rig.inst;
    with_map(&mut rig.bus, PIC_BASE, traced, |acc| {
        span(Layer::Runtime, || inst.run_superplan(acc, ids.sp_init, &args, &[], &mut [], &mut []))
    })
}

fn pic_plan(rig: &mut Rig<I8259>, ids: &PicIds, cfg: &PicConfig, traced: bool) -> RtResult<()> {
    let values = [
        u64::from(cfg.with_icw4),
        u64::from(cfg.single),
        0,
        0,
        u64::from(cfg.vector_base >> 3),
        u64::from(cfg.cascade_map),
        0,
        0,
        u64::from(cfg.auto_eoi),
        u64::from(cfg.x86),
        u64::from(cfg.irq_mask),
    ];
    let inst = &mut rig.inst;
    for (&v, x) in ids.fields.iter().zip(values) {
        span(Layer::Runtime, || inst.set_field_id(v, x))?;
    }
    with_map(&mut rig.bus, PIC_BASE, traced, |acc| {
        span(Layer::Runtime, || inst.write_struct_id(acc, ids.init))
    })
}

fn mouse_word(dx: i8, dy: i8, buttons: u8) -> u64 {
    u64::from(dx as u8) | u64::from(dy as u8) << 8 | u64::from(buttons) << 16
}

fn mouse_read(rig: &mut Rig<Busmouse>, ids: &MouseIds, traced: bool) -> RtResult<u64> {
    let inst = &mut rig.inst;
    with_map(&mut rig.bus, MOUSE_BASE, traced, |acc| {
        span(Layer::Runtime, || inst.read_struct_id(acc, ids.state))
    })?;
    let dx = span(Layer::Runtime, || inst.get_field_signed_id(ids.dx))? as i8;
    let dy = span(Layer::Runtime, || inst.get_field_signed_id(ids.dy))? as i8;
    let b = span(Layer::Runtime, || inst.get_field_id(ids.buttons))? as u8;
    Ok(mouse_word(dx, dy, b))
}

fn dma_program(
    rig: &mut Rig<I8237>,
    ids: &DmaIds,
    ch: usize,
    mode: u64,
    addr: u64,
    count: u64,
    traced: bool,
) -> RtResult<u64> {
    let inst = &mut rig.inst;
    with_map(&mut rig.bus, DMA_BASE, traced, |acc| {
        // Mask the channel, program the 16-bit pairs (the flip-flop
        // pre-action serializes low;high), unmask, read the status.
        span(Layer::Runtime, || inst.write_id(acc, ids.mode, &[], mode))?;
        span(Layer::Runtime, || inst.write_id(acc, ids.single_mask, &[], 0b100 | ch as u64))?;
        span(Layer::Runtime, || inst.write_id(acc, ids.addr[ch], &[], addr))?;
        span(Layer::Runtime, || inst.write_id(acc, ids.count[ch], &[], count))?;
        span(Layer::Runtime, || inst.write_id(acc, ids.single_mask, &[], ch as u64))?;
        span(Layer::Runtime, || inst.read_id(acc, ids.tc_status, &[]))
    })
}

fn codec_access(
    rig: &mut Rig<Cs4236b>,
    var: VarId,
    reg: u64,
    v: u64,
    traced: bool,
) -> RtResult<u64> {
    let inst = &mut rig.inst;
    with_map(&mut rig.bus, CODEC_BASE, traced, |acc| {
        span(Layer::Runtime, || inst.write_id(acc, var, &[reg], v))?;
        span(Layer::Runtime, || inst.read_id(acc, var, &[reg]))
    })
}

pub(crate) fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let timed = crate::Timed::new(cfg);
    let (mut cp, _) = ControlPlane::build(cfg.seed, cfg.plant_fault);

    // Deterministic counters, twice on fresh rigs from the same seed.
    let first = ControlPlane::build(cfg.seed, false).0.cost_pass().table();
    let second = ControlPlane::build(cfg.seed, false).0.cost_pass().table();
    report.counters_repeat = first == second;
    costs::record(&mut report, first, COST_ROUNDS * KINDS.len() as u64);

    let setup = || crate::timed_setup(|| ControlPlane::build(cfg.seed, cfg.plant_fault));
    crate::drive_rounds(cfg, &mut report, timed, &mut cp, setup);
    report.notes.push(format!(
        "{} instances ({PER_KIND} each of pic8259, busmouse, dma8237, cs4236b) plus hand twins",
        4 * PER_KIND
    ));
    report
}
