//! In-memory span tracing around the public calls into each layer.
//!
//! A span is opened by the benchmark's own code around a call into a
//! layer's public API ([`span`]), by the [`TracedAccess`] wrapper
//! around every `DeviceAccess` call, and by the [`Shim`] around every
//! `hwsim::Device` call. Each closed span adds its duration minus its
//! children's (its self time) to its layer, and its allocations minus
//! its children's to the layer's allocation count. The first spans of a
//! run are also kept raw and written out when the run ends.
//!
//! Tracing is per thread and off unless [`set_enabled`] turned it on;
//! an off span is one thread-local load and a branch.

use devil_runtime::DeviceAccess;
use hwsim::{Device, Width};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// The layers a span can belong to, named after the crates and public
/// calls they wrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One workload unit: the root span; its self time is the residual.
    Unit,
    /// A `DeviceInstance` call (devil-runtime dispatch).
    Runtime,
    /// A `DeviceAccess` call on a `PortMap` (port layer plus `hwsim::Bus`).
    Bus,
    /// Building and dropping a `PortMap` (the port layer's per-call set-up).
    Port,
    /// A `hwsim::Device` call (the device models).
    Device,
    /// A `drivers` call (driver, runtime, port and bus lumped).
    Driver,
    /// `devil_syntax::lexer::lex`.
    Lex,
    /// `devil_syntax::parse` (includes its own lexing).
    Parse,
    /// `devil_sema::resolve::resolve`.
    Resolve,
    /// `devil_sema::checks::check`.
    Check,
    /// `devil_ir::lower`.
    Lower,
    /// Superplan fusion (`drivers::superplans::install`).
    Fuse,
    /// `devil_codegen::emit_c`.
    EmitC,
    /// `devil_codegen::emit_rust`.
    EmitRust,
    /// `FleetInstance::run_unit`.
    FleetUnit,
    /// `FleetInstance::drain_checkpoint` plus the shard `Ledger::merge`.
    LedgerDrain,
    /// `FleetInstance::drain_trace_segment` (MMR fold of the bus trace).
    MmrDrain,
    /// `MmrForest::append_segment`.
    ForestAppend,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 18;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Unit,
        Layer::Runtime,
        Layer::Bus,
        Layer::Port,
        Layer::Device,
        Layer::Driver,
        Layer::Lex,
        Layer::Parse,
        Layer::Resolve,
        Layer::Check,
        Layer::Lower,
        Layer::Fuse,
        Layer::EmitC,
        Layer::EmitRust,
        Layer::FleetUnit,
        Layer::LedgerDrain,
        Layer::MmrDrain,
        Layer::ForestAppend,
    ];

    /// The layer's name in reports and span files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "unit",
            Layer::Runtime => "runtime",
            Layer::Bus => "bus",
            Layer::Port => "port",
            Layer::Device => "device",
            Layer::Driver => "driver_stack",
            Layer::Lex => "syntax.lex",
            Layer::Parse => "syntax.parse",
            Layer::Resolve => "sema.resolve",
            Layer::Check => "sema.check",
            Layer::Lower => "ir.lower",
            Layer::Fuse => "ir.fuse",
            Layer::EmitC => "codegen.emit_c",
            Layer::EmitRust => "codegen.emit_rust",
            Layer::FleetUnit => "fleet.run_unit",
            Layer::LedgerDrain => "ledger.drain_checkpoint",
            Layer::MmrDrain => "mmr.drain_segment",
            Layer::ForestAppend => "mmr.forest_append",
        }
    }

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer sums over every closed span, in nanoseconds, as measured.
/// The self times of all layers sum to the root spans' duration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Span durations minus child spans.
    pub self_ns: [f64; LAYERS],
    /// Span durations.
    pub total_ns: [f64; LAYERS],
    /// Spans closed.
    pub calls: [u64; LAYERS],
    /// Allocations inside the span minus those inside child spans.
    pub self_allocs: [u64; LAYERS],
}

impl Totals {
    /// Self time of `layer`, nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()]
    }

    /// Total time of `layer`, nanoseconds.
    pub fn total_ns(&self, layer: Layer) -> f64 {
        self.total_ns[layer.index()]
    }

    /// Spans of `layer`.
    pub fn calls(&self, layer: Layer) -> f64 {
        self.calls[layer.index()] as f64
    }

    /// Self allocations of `layer`.
    pub fn allocs(&self, layer: Layer) -> f64 {
        self.self_allocs[layer.index()] as f64
    }
}

/// A cycle-counter timestamp: `rdtsc` on x86_64 (about half the cost of
/// `Instant::now` on the hosts this runs on), nanoseconds elsewhere.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions and exists on every
        // x86_64 CPU; it only reads the time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// One raw span, as written to the span file (ticks since the epoch).
#[derive(Clone, Copy, Debug)]
struct Raw {
    layer: Layer,
    depth: u8,
    start: u64,
    dur: u64,
    self_ticks: u64,
}

struct Frame {
    layer: Layer,
    start: u64,
    allocs0: u64,
    child_ticks: u64,
    child_allocs: u64,
}

/// Per-layer sums in ticks.
#[derive(Clone, Default)]
struct Sums {
    self_ticks: [u64; LAYERS],
    total_ticks: [u64; LAYERS],
    calls: [u64; LAYERS],
    self_allocs: [u64; LAYERS],
}

struct Tracer {
    epoch: u64,
    ns_per_tick: f64,
    stack: Vec<Frame>,
    sums: Sums,
    raw: Vec<Raw>,
}

/// Raw spans kept per run for the span file.
const RAW_CAP: usize = 1 << 16;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts a fresh trace on this thread (tracing stays off until
/// [`set_enabled`]). Buffers are reserved here, so spans allocate
/// nothing while they record. Also calibrates the clock against
/// `Instant`.
pub fn reset() {
    let (t0, k0) = (Instant::now(), ticks());
    while t0.elapsed().as_millis() < 10 {
        std::hint::spin_loop();
    }
    let ns_per_tick = t0.elapsed().as_nanos() as f64 / (ticks() - k0).max(1) as f64;
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: ticks(),
            ns_per_tick,
            stack: Vec::with_capacity(16),
            sums: Sums::default(),
            raw: Vec::with_capacity(RAW_CAP),
        });
    });
}

/// Drops this thread's trace and its buffers; spans record nothing
/// until the next [`reset`].
pub fn stop() {
    set_enabled(false);
    TRACER.with(|t| *t.borrow_mut() = None);
}

fn with_tracer<R: Default>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| t.borrow_mut().as_mut().map(f).unwrap_or_default())
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether spans are recording on this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// The totals recorded since [`reset`].
pub fn totals() -> Totals {
    with_tracer(|t| {
        let s = &t.sums;
        let mut out = Totals { calls: s.calls, self_allocs: s.self_allocs, ..Totals::default() };
        for i in 0..LAYERS {
            out.self_ns[i] = s.self_ticks[i] as f64 * t.ns_per_tick;
            out.total_ns[i] = s.total_ticks[i] as f64 * t.ns_per_tick;
        }
        out
    })
}

fn enter(layer: Layer) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.stack.push(Frame {
                layer,
                start: ticks(),
                allocs0: crate::alloc::allocs(),
                child_ticks: 0,
                child_allocs: 0,
            });
        }
    });
}

fn exit() {
    let end = ticks();
    let allocs = crate::alloc::allocs();
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else { return };
        let Some(f) = t.stack.pop() else { return };
        let dur = end.saturating_sub(f.start);
        let alloc = allocs - f.allocs0;
        let self_ticks = dur.saturating_sub(f.child_ticks);
        let i = f.layer.index();
        t.sums.self_ticks[i] += self_ticks;
        t.sums.total_ticks[i] += dur;
        t.sums.calls[i] += 1;
        t.sums.self_allocs[i] += alloc.saturating_sub(f.child_allocs);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ticks += dur;
            parent.child_allocs += alloc;
        }
        if t.raw.len() < RAW_CAP {
            t.raw.push(Raw {
                layer: f.layer,
                depth: t.stack.len() as u8,
                start: f.start.saturating_sub(t.epoch),
                dur,
                self_ticks,
            });
        }
    });
}

/// Runs `f` inside a span of `layer` when tracing is on.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    enter(layer);
    let r = f();
    exit();
    r
}

/// Runs `f` as one traced unit: recording on, inside a root
/// [`Layer::Unit`] span. Work around the unit (hand-written twins,
/// output checks) stays untraced.
pub fn unit<R>(f: impl FnOnce() -> R) -> R {
    set_enabled(true);
    let r = span(Layer::Unit, f);
    set_enabled(false);
    r
}

/// Writes the raw spans of this thread's trace as tab-separated lines
/// (`start_ns layer depth dur_ns self_ns`, as measured), returning how
/// many.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    let (raw, ns) = TRACER.with(|t| {
        t.borrow().as_ref().map_or((Vec::new(), 1.0), |t| (t.raw.clone(), t.ns_per_tick))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "start_ns\tlayer\tdepth\tdur_ns\tself_ns")?;
    let f = |t: u64| (t as f64 * ns).round() as u64;
    for r in &raw {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            f(r.start),
            r.layer.name(),
            r.depth,
            f(r.dur),
            f(r.self_ticks)
        )?;
    }
    out.flush()?;
    Ok(raw.len())
}

/// Wraps a `DeviceAccess` (a `PortMap`) so that every call is a
/// [`Layer::Bus`] span.
pub struct TracedAccess<'a>(pub &'a mut dyn DeviceAccess);

impl DeviceAccess for TracedAccess<'_> {
    fn read(&mut self, port: usize, offset: u64, width_bits: u32) -> u64 {
        span(Layer::Bus, || self.0.read(port, offset, width_bits))
    }

    fn write(&mut self, port: usize, offset: u64, width_bits: u32, value: u64) {
        span(Layer::Bus, || self.0.write(port, offset, width_bits, value));
    }

    fn read_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &mut [u64]) {
        span(Layer::Bus, || self.0.read_block(port, offset, width_bits, buf));
    }

    fn write_block(&mut self, port: usize, offset: u64, width_bits: u32, buf: &[u64]) {
        span(Layer::Bus, || self.0.write_block(port, offset, width_bits, buf));
    }
}

/// A timing shim around a device model. The bus owns the shim; the
/// benchmark keeps the returned handle to inspect the model's state
/// when it checks a unit's outputs.
pub struct Shim<T> {
    name: String,
    inner: Rc<RefCell<T>>,
}

/// Wraps `dev` for attaching to a bus, returning the boxed shim and a
/// handle to the model.
pub fn shim<T: Device + 'static>(dev: T) -> (Box<dyn Device>, Rc<RefCell<T>>) {
    let name = dev.name().to_string();
    let inner = Rc::new(RefCell::new(dev));
    (Box::new(Shim { name, inner: inner.clone() }), inner)
}

impl<T: Device> Device for Shim<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn io_read(&mut self, offset: u64, width: Width) -> u64 {
        span(Layer::Device, || self.inner.borrow_mut().io_read(offset, width))
    }

    fn io_write(&mut self, offset: u64, value: u64, width: Width) {
        span(Layer::Device, || self.inner.borrow_mut().io_write(offset, value, width));
    }

    fn mem_read(&mut self, offset: u64, width: Width) -> u64 {
        span(Layer::Device, || self.inner.borrow_mut().mem_read(offset, width))
    }

    fn mem_write(&mut self, offset: u64, value: u64, width: Width) {
        span(Layer::Device, || self.inner.borrow_mut().mem_write(offset, value, width));
    }

    fn tick(&mut self, now_ns: f64) {
        span(Layer::Device, || self.inner.borrow_mut().tick(now_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root_span() {
        reset();
        set_enabled(true);
        for _ in 0..100 {
            span(Layer::Unit, || {
                span(Layer::Runtime, || {
                    span(Layer::Bus, || std::hint::black_box(3));
                });
            });
        }
        set_enabled(false);
        let t = totals();
        assert_eq!(t.calls(Layer::Unit), 100.0);
        assert_eq!(t.calls(Layer::Bus), 100.0);
        let root = t.total_ns(Layer::Unit);
        let sum: f64 = t.self_ns.iter().sum();
        assert!((sum - root).abs() < 1e-6 * root.max(1.0), "{sum} vs {root}");
        // Off: no span is recorded.
        span(Layer::Unit, || ());
        assert_eq!(totals().calls(Layer::Unit), 100.0);
        // Stopped: nothing is recorded even when on.
        stop();
        set_enabled(true);
        span(Layer::Unit, || ());
        set_enabled(false);
        assert_eq!(totals(), Totals::default());
    }
}
