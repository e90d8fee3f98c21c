//! Deterministic per-unit costs of driver and runtime units: simulated
//! time, bus transactions by kind, plan dispatches, superplan hits and
//! allocations, from `hwsim::Ledger`, `PlanStats` and the counting
//! allocator.

use crate::report::{CostTable, Report};
use devil_runtime::{DeviceInstance, PlanStats};
use hwsim::{Bus, Ledger};

/// Columns of a driver cost table.
pub const COLUMNS: [&str; 11] = [
    "sim_ns",
    "bus_txns",
    "single_ops",
    "block_ops",
    "block_words",
    "straight",
    "guarded",
    "fused",
    "general",
    "sp_hits",
    "allocs",
];

/// Counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snap {
    ledger: Ledger,
    sim_ns: f64,
    stats: PlanStats,
    sp_hits: u64,
    allocs: u64,
}

impl Snap {
    /// Reads `bus` and the dispatch counters of `insts`.
    pub fn take(bus: &Bus, insts: &[&DeviceInstance]) -> Snap {
        let mut stats = PlanStats::default();
        let mut sp_hits = 0;
        for i in insts {
            stats = stats + i.plan_stats();
            sp_hits += i.superplan_hits().iter().sum::<u64>();
        }
        Snap {
            ledger: bus.ledger(),
            sim_ns: bus.now_ns(),
            stats,
            sp_hits,
            allocs: crate::alloc::allocs(),
        }
    }

    fn since(&self, before: &Snap) -> [f64; 11] {
        let mut d = delta(&before.ledger, &self.ledger, before.stats, self.stats);
        d[0] = self.sim_ns - before.sim_ns;
        d[9] = (self.sp_hits - before.sp_hits) as f64;
        d[10] = (self.allocs - before.allocs) as f64;
        d
    }
}

/// The ledger and dispatch columns of a cost row; simulated time,
/// superplan hits and allocations are left 0 for the caller.
pub fn delta(l0: &Ledger, l1: &Ledger, s0: PlanStats, s1: PlanStats) -> [f64; 11] {
    let l = l1.since(l0);
    let s = s1 - s0;
    [
        0.0,
        l.len() as f64,
        l.io_ops() as f64 + l.mmio_ops() as f64,
        l.block_ops as f64,
        (l.block_in_words + l.block_out_words) as f64,
        s.straight as f64,
        s.guarded as f64,
        s.fused as f64,
        s.general as f64,
        0.0,
        0.0,
    ]
}

/// Sums of per-unit counter deltas by unit kind.
pub struct CostAcc {
    names: &'static [&'static str],
    sums: Vec<[f64; 11]>,
    units: Vec<u64>,
}

impl CostAcc {
    /// An accumulator with one row per unit kind.
    pub fn new(names: &'static [&'static str]) -> Self {
        CostAcc { names, sums: vec![[0.0; 11]; names.len()], units: vec![0; names.len()] }
    }

    /// Adds one unit of kind `kind` that ran between `before` and `after`.
    pub fn add(&mut self, kind: usize, before: &Snap, after: &Snap) {
        self.add_row(kind, after.since(before));
    }

    /// Adds one unit of kind `kind` with the given column values.
    pub fn add_row(&mut self, kind: usize, d: [f64; 11]) {
        for (s, v) in self.sums[kind].iter_mut().zip(d) {
            *s += v;
        }
        self.units[kind] += 1;
    }

    /// The per-unit table, with an `all units` row last.
    pub fn table(&self) -> CostTable {
        let mut t = CostTable::new(&COLUMNS);
        let mut all = [0.0; 11];
        for ((name, sums), &n) in self.names.iter().zip(&self.sums).zip(&self.units) {
            if n == 0 {
                continue;
            }
            for (a, s) in all.iter_mut().zip(sums) {
                *a += s;
            }
            t.rows.push((name.to_string(), sums.iter().map(|s| s / n as f64).collect()));
        }
        let n: u64 = self.units.iter().sum();
        t.rows.push((ALL_UNITS.to_string(), all.iter().map(|s| s / n.max(1) as f64).collect()));
        t
    }
}

/// Name of the cost table's all-units row.
pub const ALL_UNITS: &str = "all units";

/// Records the cost table and the per-unit metrics read from its
/// all-units row.
pub fn record(report: &mut Report, table: CostTable, units: u64) {
    let get = |c: &str| table.get(ALL_UNITS, c).unwrap_or(0.0);
    report.set("sim_ns_per_unit", get("sim_ns"), units);
    report.set("bus_txns_per_unit", get("bus_txns"), units);
    report.set("allocs_per_unit", get("allocs"), units);
    report.set("bus.single_ops_per_unit", get("single_ops"), units);
    report.set("bus.block_ops_per_unit", get("block_ops"), units);
    report.set("bus.block_words_per_unit", get("block_words"), units);
    report.set("runtime.dispatch.straight", get("straight"), units);
    report.set("runtime.dispatch.guarded", get("guarded"), units);
    report.set("runtime.dispatch.fused", get("fused"), units);
    report.set("runtime.dispatch.general", get("general"), units);
    report.set("runtime.superplan_hits_per_unit", get("sp_hits"), units);
    report.costs = table;
}
