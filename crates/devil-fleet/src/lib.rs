//! Fleet-scale sharded simulation of Devil-driven devices.
//!
//! The per-driver crates prove one device at a time; this crate proves
//! the *fleet* story: hundreds to thousands of [`DeviceInstance`]s with
//! mixed specifications running concurrently, sharded across worker
//! threads, with per-shard [`hwsim`] ledgers merged deterministically
//! at checkpoints.
//!
//! # Model
//!
//! Each instance owns a private [`hwsim::Bus`], device model, and Devil
//! driver, and runs a stream of *units* (one driver hot-loop iteration
//! each: a Figure-3 mouse sample, an ICW storm, a PIO sector, …). Unit
//! parameters and open-loop arrival times come from a per-instance
//! SplitMix64 stream seeded with `(fleet seed, instance id)`, so an
//! instance's history is identical no matter how the fleet is sharded.
//!
//! Each shard worker runs a discrete-event loop over its instances:
//! arrivals are exponential in integer simulated nanoseconds, service
//! times come from the instance's own bus clock (the hwsim cost
//! model), and a unit's latency is completion minus arrival — real
//! queueing, so p99/p999 respond to load the way a driver stack's tail
//! latencies do. Device models use `Rc` internally and are not `Send`,
//! so workers *build* their shard's instances locally from shared
//! [`Arc`]-backed IRs; only plain-data results cross threads.
//!
//! # Determinism gate
//!
//! [`FleetReport::assert_replay_equivalent`] checks that merged
//! N-shard results — fleet ledger totals, per-instance final ledgers
//! and interpreter snapshots, plan-dispatch counters, unit counts —
//! are exactly equal to a single-threaded replay. Latency percentiles
//! are *excluded*: they measure queueing, which legitimately depends
//! on the shard count.

#![forbid(unsafe_code)]

mod rng;
mod workload;

pub use rng::Rng;
pub use workload::{FleetInstance, Mix, SharedIrs, WorkloadKind};

use devil_runtime::{DeviceInstance, InstanceSnapshot, PlanStats};
use hwsim::{Hash, Ledger, MmrForest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fleet run configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Worker threads; instances are dealt round-robin (`id % shards`).
    pub shards: usize,
    /// Total device instances across all shards.
    pub instances: usize,
    /// Workload units each instance runs.
    pub units_per_instance: u64,
    /// Fleet seed; all per-instance streams derive from it.
    pub seed: u64,
    /// Mean of the exponential interarrival gap per instance.
    pub arrival_mean_ns: u64,
    /// Shard-local units between ledger-checkpoint merges (0 = only
    /// the final merge).
    pub checkpoint_every_units: u64,
    /// The workload blend.
    pub mix: Mix,
}

impl FleetConfig {
    /// A small default fleet of the given mix: single shard, 100
    /// instances, 100 units each.
    pub fn new(mix: Mix) -> Self {
        FleetConfig {
            shards: 1,
            instances: 100,
            units_per_instance: 100,
            seed: 0xf1ee7,
            arrival_mean_ns: 50_000,
            checkpoint_every_units: 64,
            mix,
        }
    }
}

/// The final, shard-independent state of one instance.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceFinal {
    /// Instance id (0-based, fleet-wide).
    pub id: u32,
    /// The workload it ran.
    pub kind: WorkloadKind,
    /// Units it completed.
    pub units: u64,
    /// Its private bus ledger at the end of the run.
    pub ledger: Ledger,
    /// Snapshots of its interpreter instances (two for IDE rigs).
    pub snapshots: Vec<InstanceSnapshot>,
}

/// What one shard worker sends back to the merge step.
struct ShardResult {
    ledger: Ledger,
    forest: MmrForest,
    stats: PlanStats,
    latencies_ns: Vec<u64>,
    clock_ns: u64,
    units: u64,
    checkpoints: u64,
    finals: Vec<InstanceFinal>,
}

/// The merged result of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Shards the run used.
    pub shards: usize,
    /// Instances the run spawned.
    pub instances: usize,
    /// Total units completed.
    pub units: u64,
    /// Fleet ledger: every shard's checkpoint deltas merged in shard
    /// order.
    pub ledger: Ledger,
    /// Authenticated trace forest: one MMR per instance, fed from the
    /// per-instance bus traces at every checkpoint drain. An instance
    /// lives on exactly one shard, so the fleet merge is a disjoint
    /// union — commutative and cadence-independent.
    pub forest: MmrForest,
    /// The forest root: one 32-byte digest authenticating every bus
    /// operation of every instance in the fleet.
    pub trace_root: Hash,
    /// Summed plan-dispatch counters across every interpreter in the
    /// fleet.
    pub stats: PlanStats,
    /// Checkpoint merges performed across all shards.
    pub checkpoints: u64,
    /// Simulated makespan: the latest shard clock, in nanoseconds.
    pub sim_makespan_ns: u64,
    /// Aggregate simulated throughput: units per simulated second.
    pub sim_ops_per_s: f64,
    /// Wall-clock duration of the run (spawn + simulate + merge).
    pub wall: Duration,
    /// Unit latency percentiles (completion − arrival), nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// 99.9th percentile latency.
    pub p999_ns: u64,
    /// Final per-instance state, ordered by instance id.
    pub finals: Vec<InstanceFinal>,
}

impl FleetReport {
    /// Asserts that `self` and `other` agree on every shard-count
    /// independent quantity: the determinism gate. Panics with the
    /// first disagreement.
    pub fn assert_replay_equivalent(&self, other: &FleetReport) {
        assert_eq!(self.instances, other.instances, "instance counts differ");
        assert_eq!(self.units, other.units, "total unit counts differ");
        assert_eq!(self.ledger, other.ledger, "merged fleet ledgers differ");
        if self.trace_root != other.trace_root {
            // One 32-byte compare said the fleets diverged somewhere;
            // the per-instance roots name the culprit.
            for ((ida, la, ra), (idb, lb, rb)) in self.forest.roots().zip(other.forest.roots()) {
                assert_eq!(ida, idb, "trace forests cover different instance sets");
                assert!(
                    la == lb && ra == rb,
                    "instance {ida} bus trace diverges between {} and {} shards: \
                     {la} ops root {ra} vs {lb} ops root {rb}",
                    self.shards,
                    other.shards
                );
            }
            panic!(
                "fleet trace roots differ ({} vs {}) but every per-instance root agrees",
                self.trace_root, other.trace_root
            );
        }
        assert_eq!(self.stats, other.stats, "plan-dispatch counters differ");
        assert_eq!(self.finals.len(), other.finals.len(), "per-instance result counts differ");
        for (a, b) in self.finals.iter().zip(&other.finals) {
            assert_eq!(a.id, b.id, "instance order diverged");
            assert_eq!(
                a,
                b,
                "instance {} ({}) final state differs between {} and {} shards",
                a.id,
                a.kind.name(),
                self.shards,
                other.shards
            );
        }
    }
}

/// Runs one shard: build its instances locally, then drain the
/// discrete-event loop.
fn run_shard(cfg: &FleetConfig, irs: &SharedIrs, shard: usize) -> ShardResult {
    let mut insts: Vec<FleetInstance> = (shard..cfg.instances)
        .step_by(cfg.shards)
        .map(|id| {
            let mut rng = Rng::for_instance(cfg.seed, id as u64);
            let kind = cfg.mix.pick(&mut rng);
            FleetInstance::spawn(id as u32, kind, irs, rng)
        })
        .collect();

    // (arrival_ns, local index); Reverse for a min-heap, index as the
    // deterministic tie-breaker.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(insts.len());
    for (idx, inst) in insts.iter_mut().enumerate() {
        let gap = inst.next_gap_ns(cfg.arrival_mean_ns);
        heap.push(Reverse((gap, idx)));
    }

    let mut ledger = Ledger::default();
    // Streaming trees: the gate only needs roots, so a shard holds
    // O(instances · log ops) hashes no matter how long the run is.
    let mut forest = MmrForest::new(false);
    let mut latencies_ns = Vec::with_capacity(insts.len() * cfg.units_per_instance as usize);
    let mut clock_ns = 0u64;
    let mut units = 0u64;
    let mut checkpoints = 0u64;
    // The instances that ran a unit since the last checkpoint: only
    // they have ledger deltas and trace entries to drain, so a
    // checkpoint costs what changed, not the shard's size.
    let mut ran: Vec<usize> = Vec::new();
    let mut dirty = vec![false; insts.len()];

    while let Some(Reverse((arrival, idx))) = heap.pop() {
        let inst = &mut insts[idx];
        let service = inst.run_unit();
        let start = clock_ns.max(arrival);
        clock_ns = start + service;
        latencies_ns.push(clock_ns - arrival);
        units += 1;
        if inst.units() < cfg.units_per_instance {
            let gap = inst.next_gap_ns(cfg.arrival_mean_ns);
            heap.push(Reverse((arrival + gap, idx)));
        }
        if !dirty[idx] {
            dirty[idx] = true;
            ran.push(idx);
        }
        if cfg.checkpoint_every_units > 0 && units.is_multiple_of(cfg.checkpoint_every_units) {
            for idx in ran.drain(..) {
                dirty[idx] = false;
                ledger.merge(&insts[idx].drain_checkpoint());
                insts[idx].drain_trace_into(&mut forest);
            }
            checkpoints += 1;
        }
    }
    // Final checkpoint: every instance, so each gets a tree, and the
    // traffic of any that never ran (spawn-time setup) is drained too.
    for inst in &mut insts {
        ledger.merge(&inst.drain_checkpoint());
        inst.drain_trace_into(&mut forest);
    }
    checkpoints += 1;

    let mut stats = PlanStats::default();
    let finals = insts
        .iter()
        .map(|inst| {
            stats = stats + inst.plan_stats();
            InstanceFinal {
                id: inst.id(),
                kind: inst.kind(),
                units: inst.units(),
                ledger: inst.ledger(),
                snapshots: inst.snapshots(),
            }
        })
        .collect();

    ShardResult { ledger, forest, stats, latencies_ns, clock_ns, units, checkpoints, finals }
}

/// Nearest-rank percentile: the smallest value such that at least
/// `q·len` samples are ≤ it, i.e. `sorted[ceil(q·len) - 1]` clamped to
/// the valid range. The previous linear-index rounding deviated at
/// small sample counts (p50 of 4 samples picked index 2; nearest-rank
/// is index 1).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs a fleet against already-compiled shared IRs.
pub fn run_fleet_with(cfg: &FleetConfig, irs: &SharedIrs) -> FleetReport {
    assert!(cfg.shards >= 1, "a fleet needs at least one shard");
    assert!(cfg.instances >= 1, "a fleet needs at least one instance");

    let start = Instant::now();
    let results: Vec<ShardResult> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..cfg.shards).map(|shard| s.spawn(move || run_shard(cfg, irs, shard))).collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });
    let wall = start.elapsed();

    // Merge in shard order — deterministic, and `Ledger::merge` is
    // commutative besides (the property test in hwsim proves it).
    let mut ledger = Ledger::default();
    let mut forest = MmrForest::new(false);
    let mut stats = PlanStats::default();
    let mut units = 0u64;
    let mut checkpoints = 0u64;
    let mut sim_makespan_ns = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut finals: Vec<InstanceFinal> = Vec::with_capacity(cfg.instances);
    for r in results {
        ledger.merge(&r.ledger);
        forest.merge(r.forest);
        stats = stats + r.stats;
        units += r.units;
        checkpoints += r.checkpoints;
        sim_makespan_ns = sim_makespan_ns.max(r.clock_ns);
        latencies.extend(r.latencies_ns);
        finals.extend(r.finals);
    }
    finals.sort_by_key(|f| f.id);
    latencies.sort_unstable();

    let sim_ops_per_s =
        if sim_makespan_ns > 0 { units as f64 / (sim_makespan_ns as f64 / 1e9) } else { 0.0 };

    let trace_root = forest.root();
    FleetReport {
        shards: cfg.shards,
        instances: cfg.instances,
        units,
        ledger,
        forest,
        trace_root,
        stats,
        checkpoints,
        sim_makespan_ns,
        sim_ops_per_s,
        wall,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        p999_ns: percentile(&latencies, 0.999),
        finals,
    }
}

// The fleet hands instances to worker threads by construction recipe
// rather than by value (hwsim devices are intentionally `!Send`), but
// the interpreter state that crosses threads must stay `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<devil_ir::DeviceIr>>();
    assert_send_sync::<DeviceInstance>();
    assert_send_sync::<InstanceSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        let s = [7];
        assert_eq!(percentile(&s, 0.50), 7);
        assert_eq!(percentile(&s, 0.99), 7);
        assert_eq!(percentile(&s, 0.999), 7);
    }

    #[test]
    fn percentile_of_two_samples() {
        let s = [10, 20];
        // Nearest-rank p50 of 2 samples is the first: ceil(0.5·2) = 1.
        assert_eq!(percentile(&s, 0.50), 10);
        assert_eq!(percentile(&s, 0.99), 20);
    }

    #[test]
    fn percentile_of_four_samples() {
        let s = [1, 2, 3, 4];
        // ceil(0.5·4) = 2 → second sample, not the old round()'s third.
        assert_eq!(percentile(&s, 0.50), 2);
        assert_eq!(percentile(&s, 0.75), 3);
        assert_eq!(percentile(&s, 0.99), 4);
    }

    #[test]
    fn percentile_of_ten_samples() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 0.50), 5);
        assert_eq!(percentile(&s, 0.90), 9);
        assert_eq!(percentile(&s, 0.99), 10);
    }

    #[test]
    fn percentile_of_hundred_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 0.999), 100);
    }

    #[test]
    fn percentile_extremes_are_clamped() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 1.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
