//! devil-bench: end-to-end and per-layer benchmark for devil-rs.
//!
//! One run takes a workload name and a seed, builds its inputs from the
//! seed, measures for a fixed number of host seconds, checks every
//! unit's outputs against an independent reference, and reports every
//! metric by name with its unit and sample count. A traced run of the
//! same workload records spans around the public calls into each layer
//! and reports per-layer self times. See `README.md` in this directory.

pub mod alloc;
mod bulk_io;
mod control_plane;
mod costs;
mod fleet;
pub mod report;
mod spec_compile;
pub mod stats;
pub mod trace;

use report::Report;
use stats::Reservoir;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small register accesses through `DeviceInstance` on 64 instances.
    ControlPlane,
    /// Driver-issued block transfers (IDE, NE2000, Permedia2).
    BulkIo,
    /// The compiler pipeline over every spec plus checker mutants.
    SpecCompile,
    /// A sharded fleet with bus traces, ledger merges and MMR forests.
    FleetTraced,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::ControlPlane, Workload::BulkIo, Workload::SpecCompile, Workload::FleetTraced];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ControlPlane => "control_plane",
            Workload::BulkIo => "bulk_io",
            Workload::SpecCompile => "spec_compile",
            Workload::FleetTraced => "fleet_traced",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Host seconds of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Smaller inputs, for the benchmark's own tests.
    pub short: bool,
    /// Corrupt one expected output, so every check of that kind fails
    /// (proves the checks can fail).
    pub plant_fault: bool,
}

impl Config {
    /// A full-size untraced run.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Config { workload, seed, seconds, trace: false, short: false, plant_fault: false }
    }

    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Runs one workload and returns its report.
pub fn run(cfg: &Config) -> Report {
    trace::stop();
    let mut report = match cfg.workload {
        Workload::ControlPlane => control_plane::run(cfg),
        Workload::BulkIo => bulk_io::run(cfg),
        Workload::SpecCompile => spec_compile::run(cfg),
        Workload::FleetTraced => fleet::run(cfg),
    };
    trace::set_enabled(false);
    report.workload = cfg.workload.name();
    report.seed = cfg.seed;
    report.traced = cfg.trace;
    let fail_ratio = stats::ratio(report.failed as f64, report.attempted as f64);
    report.set("fail_ratio", fail_ratio, report.attempted);
    if cfg.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "{}-seed{}.spans.tsv",
            cfg.workload.name(),
            cfg.seed
        ));
        match trace::write_spans(&path) {
            Ok(n) => report.notes.push(format!("{n} raw spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("span file not written: {e}")),
        }
    }
    report
}

/// Host time of one round of a round-based workload, split the ways the
/// metrics need it.
#[derive(Clone, Copy, Debug, Default)]
struct RoundTimes {
    /// Devil units run and their host time.
    units: u32,
    devil_ns: u64,
    /// The subset of units that has a hand-written twin, and the twins.
    twin_units: u32,
    twin_devil_ns: u64,
    hand_ns: u64,
    /// Fused (superplan) units and their per-plan counterparts.
    fused_units: u32,
    fused_ns: u64,
    unfused_units: u32,
    unfused_ns: u64,
    /// Units whose output check failed.
    failed: u32,
}

impl std::ops::AddAssign for RoundTimes {
    fn add_assign(&mut self, o: RoundTimes) {
        self.units += o.units;
        self.devil_ns += o.devil_ns;
        self.twin_units += o.twin_units;
        self.twin_devil_ns += o.twin_devil_ns;
        self.hand_ns += o.hand_ns;
        self.fused_units += o.fused_units;
        self.fused_ns += o.fused_ns;
        self.unfused_units += o.unfused_units;
        self.unfused_ns += o.unfused_ns;
        self.failed += o.failed;
    }
}

/// A workload made of rounds of driver or runtime units.
trait Rounds {
    /// Rounds per timing sample: a whole cycle of the ways rounds differ
    /// (guard combinations, which twin runs first), so that every sample
    /// is the same mix of work and the samples' median is stable.
    const ROUNDS_PER_SAMPLE: u32;

    /// Runs round `r`: prepares inputs, runs and times the Devil units
    /// (each inside [`trace::unit`] when `traced`), runs their
    /// hand-written twins, and checks every output.
    fn round(&mut self, r: u64, traced: bool) -> RoundTimes;
}

/// Length of the timed phase's segments.
const SEGMENT: Duration = Duration::from_millis(250);

/// The band of segments, ranked by mean time per unit, the end-to-end
/// figures of a single-threaded workload come from: the quietest
/// twentieth. The host's slow stretches last seconds to minutes, so the
/// lower the band, the more runs it finds outside them.
const QUIET_BAND: (f64, f64) = (0.0, 0.05);

/// The benchmark's own sample storage for a timed phase. It is
/// allocated before the workload builds its rigs, and the live heap
/// measured right after it is the baseline `peak_heap_bytes` is taken
/// from, so the figure counts the program's heap and not the
/// benchmark's buffers, whatever the run's length.
struct Timed {
    segments: stats::Segments,
    allocs: Reservoir,
    hand: Reservoir,
    twin_ratio: Reservoir,
    fused: Reservoir,
    unfused: Reservoir,
    base: usize,
}

impl Timed {
    fn new(cfg: &Config) -> Self {
        let mut t = Timed {
            segments: stats::Segments::new(SEGMENT, cfg.seconds),
            allocs: Reservoir::new(),
            hand: Reservoir::new(),
            twin_ratio: Reservoir::new(),
            fused: Reservoir::new(),
            unfused: Reservoir::new(),
            base: 0,
        };
        t.base = alloc::live_bytes();
        t
    }

    /// Starts peak tracking for the timed phase.
    fn start(&self) {
        alloc::reset_peak();
    }

    /// Peak live heap since [`Timed::start`], above the baseline.
    fn peak_heap_bytes(&self) -> f64 {
        alloc::peak_bytes().saturating_sub(self.base) as f64
    }
}

/// Builds and drops a fresh copy of a workload's rigs, returning
/// `(total, compile)` seconds; the timed phase calls it once per
/// segment, and the peak-heap figure leaves it out.
fn timed_setup<T>(build: impl FnOnce() -> (T, f64)) -> (f64, f64) {
    let peak = alloc::peak_bytes();
    let t0 = Instant::now();
    let (built, compile_s) = build();
    let total = t0.elapsed().as_secs_f64();
    drop(built);
    alloc::restore_peak(peak);
    (total, compile_s)
}

/// Records the end-to-end figures of a timed phase from the segments
/// in `band` (see [`stats::Segments::band`]), and returns their mean
/// host time per unit.
fn record_band(report: &mut Report, segments: &stats::Segments, band: (f64, f64)) -> f64 {
    let q = segments.band(band);
    report.set_median("unit_host_ns_p50", &q.unit);
    report.set("unit_host_ns_p99", q.unit.p99, q.unit.n);
    let mean_ns = stats::ratio(q.ns as f64, q.units as f64);
    report.set("units_per_s", stats::ratio(1e9, mean_ns), q.units);
    if let Some([total, compile, spawn]) = q.setup {
        report.set_median("setup_s", &total);
        report.set_median("setup.compile_s", &compile);
        report.set_median("setup.spawn_s", &spawn);
    }
    let means: Vec<String> = segments.means().iter().map(|v| format!("{v:.0}")).collect();
    report.notes.push(format!(
        "end-to-end figures from {} of {} {:.2} s segments (ranks {:.0}%..{:.0}% by time); \
         mean ns per unit by segment: {}",
        q.chosen,
        q.of,
        SEGMENT.as_secs_f64(),
        band.0 * 100.0,
        band.1 * 100.0,
        means.join(" ")
    ));
    mean_ns
}

/// The timed phase of a round-based workload: warm-up, then rounds
/// until the deadline, with `setup` rebuilt once per segment. A traced
/// run alternates traced and untraced rounds, so the tracing overhead
/// is measured on interleaved rounds.
fn drive_rounds<R: Rounds>(
    cfg: &Config,
    report: &mut Report,
    mut timed: Timed,
    bench: &mut R,
    mut setup: impl FnMut() -> (f64, f64),
) {
    let warm_until = Instant::now() + Duration::from_secs_f64((cfg.seconds * 0.05).min(0.5));
    let mut r = 0u64;
    while Instant::now() < warm_until {
        bench.round(r, false);
        r += 1;
    }

    let (mut devil_ns, mut units) = (0u64, 0u64);
    let (mut block, mut block_rounds) = (RoundTimes::default(), 0);
    if cfg.trace {
        trace::reset();
    }
    timed.start();
    let deadline = cfg.deadline();
    while Instant::now() < deadline {
        timed.segments.tick(&mut setup);
        r += 1;
        let traced = cfg.trace && r % 2 == 1;
        let t = bench.round(r, traced);
        report.attempted += u64::from(t.units);
        report.failed += u64::from(t.failed);
        if traced {
            continue;
        }
        devil_ns += t.devil_ns;
        units += u64::from(t.units);
        block += t;
        block_rounds += 1;
        if block_rounds < R::ROUNDS_PER_SAMPLE {
            continue;
        }
        let t = std::mem::take(&mut block);
        block_rounds = 0;
        timed.segments.push(t.devil_ns, u64::from(t.units));
        if t.twin_units > 0 {
            timed.hand.push(t.hand_ns as f64 / f64::from(t.twin_units));
            timed.twin_ratio.push(stats::ratio(t.twin_devil_ns as f64, t.hand_ns as f64));
        }
        if t.fused_units > 0 {
            timed.fused.push(t.fused_ns as f64 / f64::from(t.fused_units));
            timed.unfused.push(t.unfused_ns as f64 / f64::from(t.unfused_units));
        }
    }
    report.set("peak_heap_bytes", timed.peak_heap_bytes(), 1);
    record_band(report, &timed.segments, QUIET_BAND);
    report.set_median("control.hand_unit_ns_p50", &timed.hand.summary());
    report.set_median("control.devil_over_hand", &timed.twin_ratio.summary());
    report.set_median("bulk.fused_unit_ns_p50", &timed.fused.summary());
    report.set_median("bulk.unfused_unit_ns_p50", &timed.unfused.summary());
    report.notes.push(format!("timed phase: {units} untraced units in {r} rounds"));
    if cfg.trace {
        let untraced_mean_ns = stats::ratio(devil_ns as f64, units as f64);
        layer_report(report, &trace::totals(), untraced_mean_ns);
    }
}

/// Per-layer figures of a round-based traced run, from the span totals.
fn layer_report(report: &mut Report, t: &trace::Totals, untraced_mean_ns: f64) {
    use trace::Layer;
    let units = t.calls(Layer::Unit);
    layer_sum(report, t, units, untraced_mean_ns, &[]);
    let self_ns = |l: Layer| t.self_ns(l);
    let per_unit = |v: f64| stats::ratio(v, units);
    let n = units as u64;
    let accesses = t.calls(Layer::Runtime);
    let per_access = |v: f64| stats::ratio(v, accesses);
    report.set("runtime.self_ns_per_access", per_access(self_ns(Layer::Runtime)), accesses as u64);
    report.set("runtime.allocs_per_access", per_access(t.allocs(Layer::Runtime)), accesses as u64);
    report.set("runtime.accesses_per_unit", per_unit(accesses), n);
    // Port and bus: the `DeviceAccess` calls plus building the `PortMap`.
    let txns = t.calls(Layer::Bus);
    let port_bus = self_ns(Layer::Bus) + self_ns(Layer::Port);
    report.set("bus.self_ns_per_txn", stats::ratio(port_bus, txns), txns as u64);
    report.set("bus.txns_per_access", per_access(txns), accesses as u64);
    let calls = t.calls(Layer::Device);
    report.set(
        "device.self_ns_per_call",
        stats::ratio(self_ns(Layer::Device), calls),
        calls as u64,
    );
    report.set("device.calls_per_unit", per_unit(calls), n);
    report.set("driver_stack.self_ns_per_unit", per_unit(self_ns(Layer::Driver)), n);
}

/// The layer-sum report over `units` traced units, from the self times
/// as measured: the traced unit time is Σ layer self times + the
/// residual (the root span's own self time), and the tracing overhead
/// is the traced unit time over `untraced_mean_ns`, the mean unit time
/// of the untraced rounds interleaved with the traced ones. Spans of
/// `probes` are measurement, not work, and are left out of both sides.
/// Flags a residual above [`report::RESIDUAL_BOUND`].
fn layer_sum(
    report: &mut Report,
    t: &trace::Totals,
    units: f64,
    untraced_mean_ns: f64,
    probes: &[trace::Layer],
) {
    use trace::Layer;
    let n = units as u64;
    let probe_ns: f64 = probes.iter().map(|&l| t.total_ns(l)).sum();
    let unit_ns = stats::ratio(t.total_ns(Layer::Unit) - probe_ns, units);
    let residual_ns = stats::ratio(t.self_ns(Layer::Unit), units);
    let layers = Layer::ALL.into_iter().skip(1).filter(|l| !probes.contains(l));
    let layer_ns = stats::ratio(layers.map(|l| t.self_ns(l)).sum(), units);
    let overhead = stats::ratio(unit_ns, untraced_mean_ns);
    report.set("trace.unit_ns", unit_ns, n);
    report.set("trace.layer_sum_ns", layer_ns, n);
    report.set("trace.residual_ns", residual_ns, n);
    report.set("trace.overhead", overhead, n);
    let mut line = String::from("layer self ns per traced unit:");
    for l in Layer::ALL.into_iter().skip(1) {
        if t.calls(l) > 0.0 {
            line.push_str(&format!(" {}={:.1}", l.name(), stats::ratio(t.self_ns(l), units)));
        }
    }
    report.notes.push(line);
    let share = stats::ratio(residual_ns, unit_ns);
    let flag = if share > report::RESIDUAL_BOUND { "  RESIDUAL ABOVE BOUND" } else { "" };
    report.notes.push(format!(
        "layer sum: traced unit {unit_ns:.1} ns = layers {layer_ns:.1} + residual \
         {residual_ns:.1} ({:.1}% of unit, bound {:.0}%){flag}",
        share * 100.0,
        report::RESIDUAL_BOUND * 100.0
    ));
    report.notes.push(format!(
        "tracing overhead: traced unit {unit_ns:.1} ns = {overhead:.3}x the untraced \
         {untraced_mean_ns:.1} ns; the layer self times include it"
    ));
}
