//! `fleet_traced`: `devil_fleet::run_fleet_with` on the `all_specs`
//! mix, 1000 instances on 2 shards (no more than the host's cores),
//! with bus traces, checkpoint ledger merges and the MMR forest on.
//! Arrivals are open-loop in simulated time; on the host each shard
//! drains its queue as fast as it can. One unit is one fleet unit; one
//! timed sample is one whole fleet run.
//!
//! A single-threaded replay drives `FleetInstance` directly, running
//! each shard's loop in turn exactly as its worker would: untraced, it
//! is the independent reference the timed runs are checked against
//! (trace root, merged ledger); traced, it times `run_unit`, the
//! checkpoint ledger drain, the MMR segment drain and the forest append.

use crate::costs::{self, CostAcc};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, span, Layer};
use crate::Config;
use devil_fleet::{run_fleet_with, FleetConfig, FleetInstance, Mix, Rng, SharedIrs, WorkloadKind};
use devil_runtime::PlanStats;
use hwsim::{Hash, Ledger, MmrForest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// The band of segments the end-to-end figures come from: the middle
/// half. A sample here is a whole run on two threads and a segment holds
/// one or two of them, so the quietest few would be an extreme-value
/// pick; the middle half repeats far better across runs.
const TYPICAL_BAND: (f64, f64) = (0.25, 0.75);

const INSTANCES: usize = 1000;
const UNITS_PER_INSTANCE: u64 = 16;
const SHORT_INSTANCES: usize = 48;
const SHORT_UNITS_PER_INSTANCE: u64 = 8;

/// Cost-table rows: the fleet's workload kinds, in `WorkloadKind::ALL`
/// order.
const KINDS: &[&str] = &[
    "figure3",
    "icw_storm",
    "pio_read",
    "net_burst",
    "fifo_rect",
    "dma_program",
    "codec_index",
    "busmaster_dma",
];

fn fleet_config(cfg: &Config) -> FleetConfig {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut fc = FleetConfig::new(Mix::all_specs());
    fc.shards = cores.min(2);
    fc.seed = cfg.seed;
    if cfg.short {
        fc.instances = SHORT_INSTANCES;
        fc.units_per_instance = SHORT_UNITS_PER_INSTANCE;
    } else {
        fc.instances = INSTANCES;
        fc.units_per_instance = UNITS_PER_INSTANCE;
    }
    fc
}

/// Spawns every instance of the fleet on this thread, each from its own
/// `(seed, id)` stream as a shard worker would.
fn spawn_all(fc: &FleetConfig, irs: &SharedIrs) -> Vec<FleetInstance> {
    (0..fc.instances)
        .map(|id| {
            let mut rng = Rng::for_instance(fc.seed, id as u64);
            let kind = fc.mix.pick(&mut rng);
            FleetInstance::spawn(id as u32, kind, irs, rng)
        })
        .collect()
}

/// Set-up: compile the spec library once, spawn every instance.
fn build(fc: &FleetConfig) -> ((SharedIrs, Vec<FleetInstance>), f64) {
    let t0 = Instant::now();
    let irs = SharedIrs::compile();
    let compile_s = t0.elapsed().as_secs_f64();
    let insts = spawn_all(fc, &irs);
    ((irs, insts), compile_s)
}

/// What a replay computed.
struct Replay {
    units: u64,
    ledger: Ledger,
    root: Hash,
    general: u64,
    checkpoints: u64,
    leaves: u64,
    host_ns: u64,
    costs: CostAcc,
}

/// Replays the fleet on this thread, shard after shard: each shard's
/// instances (`id % shards`) run the same discrete-event loop,
/// checkpoint cadence and forest appends as its shard worker would, so
/// the replay does the same work as the threaded run, in one loop.
fn replay(fc: &FleetConfig, insts: Vec<FleetInstance>) -> Replay {
    let t0 = Instant::now();
    let mut shards: Vec<Vec<FleetInstance>> = (0..fc.shards).map(|_| Vec::new()).collect();
    for (id, inst) in insts.into_iter().enumerate() {
        shards[id % fc.shards].push(inst);
    }
    let mut r = Replay {
        units: 0,
        ledger: Ledger::default(),
        root: Hash::default(),
        general: 0,
        checkpoints: 0,
        leaves: 0,
        host_ns: 0,
        costs: CostAcc::new(KINDS),
    };
    let mut forest = MmrForest::new(false);
    for insts in &mut shards {
        replay_shard(fc, insts, &mut r, &mut forest);
    }
    let stats = shards.iter().flatten().map(FleetInstance::plan_stats);
    r.general = stats.fold(PlanStats::default(), |a, b| a + b).general;
    r.root = forest.root();
    r.host_ns = t0.elapsed().as_nanos() as u64;
    r
}

/// One shard's loop of [`replay`].
fn replay_shard(
    fc: &FleetConfig,
    insts: &mut [FleetInstance],
    r: &mut Replay,
    forest: &mut MmrForest,
) {
    let mut heap = BinaryHeap::with_capacity(insts.len());
    for (idx, inst) in insts.iter_mut().enumerate() {
        heap.push(Reverse((inst.next_gap_ns(fc.arrival_mean_ns), idx)));
    }
    let drain = |insts: &mut [FleetInstance], r: &mut Replay, forest: &mut MmrForest| {
        for inst in insts {
            span(Layer::LedgerDrain, || r.ledger.merge(&inst.drain_checkpoint()));
            let seg = span(Layer::MmrDrain, || inst.drain_trace_segment());
            r.leaves += seg.leaves();
            span(Layer::ForestAppend, || forest.append_segment(u64::from(inst.id()), &seg));
        }
        r.checkpoints += 1;
    };
    let mut units = 0u64;
    while let Some(Reverse((arrival, idx))) = heap.pop() {
        let inst = &mut insts[idx];
        let (l0, s0, a0) = (inst.ledger(), inst.plan_stats(), crate::alloc::allocs());
        let service = span(Layer::FleetUnit, || inst.run_unit());
        let mut row = costs::delta(&l0, &inst.ledger(), s0, inst.plan_stats());
        row[0] = service as f64;
        row[10] = (crate::alloc::allocs() - a0) as f64;
        let kind = WorkloadKind::ALL.iter().position(|&k| k == inst.kind()).expect("known kind");
        r.costs.add_row(kind, row);
        units += 1;
        if inst.units() < fc.units_per_instance {
            let gap = inst.next_gap_ns(fc.arrival_mean_ns);
            heap.push(Reverse((arrival + gap, idx)));
        }
        if fc.checkpoint_every_units > 0 && units.is_multiple_of(fc.checkpoint_every_units) {
            drain(insts, r, forest);
        }
    }
    drain(insts, r, forest);
    r.units += units;
}

pub(crate) fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let fc = fleet_config(cfg);
    let mut timed = crate::Timed::new(cfg);
    let ((irs, insts), _) = build(&fc);

    // The independent reference, outside the timed phase.
    let mut reference = replay(&fc, insts);
    let per_unit = |v: f64| stats::ratio(v, reference.units as f64);
    costs::record(&mut report, reference.costs.table(), reference.units);
    report.set("mmr.leaves_per_unit", per_unit(reference.leaves as f64), reference.units);
    report.set("fleet.checkpoints", reference.checkpoints as f64, 1);
    report.notes.push(format!(
        "{} instances x {} units on {} shards (nproc {}), checkpoint every {} units; \
         reference replay root {}",
        fc.instances,
        fc.units_per_instance,
        fc.shards,
        std::thread::available_parallelism().map_or(1, usize::from),
        fc.checkpoint_every_units,
        reference.root
    ));
    if cfg.plant_fault {
        reference.root.0[0] ^= 1;
    }

    // Traced run: untraced and traced replays alternate for half the
    // run (the overhead is their difference), then the timed phase
    // takes the other half.
    let mut phase = cfg.clone();
    if cfg.trace {
        phase.seconds = cfg.seconds / 2.0;
        let until = Instant::now() + Duration::from_secs_f64(phase.seconds);
        trace::reset();
        let (mut plain_ns, mut plain_units) = (0u64, 0u64);
        let (mut units, mut checkpoints, mut leaves) = (0u64, 0u64, 0u64);
        while units == 0 || Instant::now() < until {
            let plain = replay(&fc, spawn_all(&fc, &irs));
            plain_ns += plain.host_ns;
            plain_units += plain.units;
            let insts = spawn_all(&fc, &irs);
            let traced = trace::unit(|| replay(&fc, insts));
            units += traced.units;
            checkpoints += traced.checkpoints;
            leaves += traced.leaves;
            for r in [&plain, &traced] {
                report.attempted += r.units;
                if r.root != reference.root || r.ledger != reference.ledger || r.general != 0 {
                    report.failed += r.units;
                }
            }
        }
        let t = trace::totals();
        let n = units as f64;
        let untraced_ns = stats::ratio(plain_ns as f64, plain_units as f64);
        crate::layer_sum(&mut report, &t, n, untraced_ns, &[]);
        let self_ns = |l: Layer| t.self_ns(l);
        report.set("fleet.run_unit_ns", stats::ratio(self_ns(Layer::FleetUnit), n), units);
        let per_cp = |l: Layer| stats::ratio(self_ns(l), checkpoints as f64);
        report.set("ledger.drain_checkpoint_ns", per_cp(Layer::LedgerDrain), checkpoints);
        report.set("mmr.drain_segment_ns", per_cp(Layer::MmrDrain), checkpoints);
        report.set("mmr.forest_append_ns", per_cp(Layer::ForestAppend), checkpoints);
        let mmr_ns = self_ns(Layer::MmrDrain) + self_ns(Layer::ForestAppend);
        report.set("mmr.ns_per_leaf", stats::ratio(mmr_ns, leaves as f64), leaves);
        report.set("fleet.residual_ns", stats::ratio(self_ns(Layer::Unit), n), units);
    }

    // Timed phase: whole fleet runs until the deadline.
    let check = |r: &devil_fleet::FleetReport| {
        r.trace_root == reference.root
            && r.ledger == reference.ledger
            && r.stats.general == 0
            && reference.general == 0
            && r.units == reference.units
    };
    let mut first: Option<(Ledger, PlanStats, u64, Hash)> = None;
    let mut repeat = true;
    let (mut runs, mut units) = (0u64, 0u64);
    run_fleet_with(&fc, &irs); // warm-up
    timed.start();
    let deadline = phase.deadline();
    while runs == 0 || Instant::now() < deadline {
        timed.segments.tick(|| crate::timed_setup(|| build(&fc)));
        // The shard threads allocate too, so count the whole process.
        let a0 = crate::alloc::process_allocs();
        let r = run_fleet_with(&fc, &irs);
        let a = crate::alloc::process_allocs() - a0;
        let ns = r.wall.as_nanos() as u64;
        report.attempted += r.units;
        if !check(&r) {
            report.failed += r.units;
        }
        let key = (r.ledger, r.stats, r.p99_ns, r.trace_root);
        repeat &= *first.get_or_insert(key) == key;
        timed.segments.push(ns, r.units);
        timed.allocs.push(a as f64 / r.units as f64);
        runs += 1;
        units += r.units;
    }
    if let Some((_, _, p99_ns, _)) = first {
        report.set("sim_latency_ns_p99", p99_ns as f64, units);
    }
    report.counters_repeat = repeat;
    report.set("peak_heap_bytes", timed.peak_heap_bytes(), 1);
    crate::record_band(&mut report, &timed.segments, TYPICAL_BAND);
    report.set_median("allocs_per_unit", &timed.allocs.summary());
    report.notes.push(format!(
        "timed phase: {runs} fleet runs, {units} units; a sample is one run's wall time / units"
    ));
    report
}
