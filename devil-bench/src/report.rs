//! Metric catalog, the run report, and its human and JSON renderings.

use crate::stats::Summary;
use std::fmt::Write as _;

/// The end-to-end metrics every workload prints on an untraced run, with
/// their units: the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("unit_host_ns_p50", "ns"),
    ("units_per_s", "1/s"),
    ("peak_heap_bytes", "bytes"),
    ("allocs_per_unit", "count"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload prints on a traced run: the
/// `per_layer` list of `BENCHMARK.json`. A metric of a layer the
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Deterministic per-unit costs and the other end-to-end figures.
    ("unit_host_ns_p99", "ns"),
    ("sim_ns_per_unit", "sim_ns"),
    ("sim_latency_ns_p99", "sim_ns"),
    ("bus_txns_per_unit", "count"),
    ("fail_ratio", "ratio"),
    // spec_compile stage self times and counts.
    ("syntax.lex_us", "us"),
    ("syntax.parse_us", "us"),
    ("sema.resolve_us", "us"),
    ("sema.check_us", "us"),
    ("ir.lower_us", "us"),
    ("ir.fuse_us", "us"),
    ("codegen.emit_c_us", "us"),
    ("codegen.emit_rust_us", "us"),
    ("compile.residual_us", "us"),
    ("syntax.tokens", "count"),
    ("ir.plan_steps", "count"),
    ("ir.plan_variants", "count"),
    ("ir.superplans", "count"),
    ("ir.plan_fallbacks", "count"),
    ("sema.rejected_mutants", "count"),
    ("codegen.out_bytes", "bytes"),
    ("syntax.allocs", "count"),
    ("sema.allocs", "count"),
    ("ir.allocs", "count"),
    ("codegen.allocs", "count"),
    // control_plane dispatch, port and bus.
    ("runtime.self_ns_per_access", "ns"),
    ("bus.self_ns_per_txn", "ns"),
    ("runtime.allocs_per_access", "count"),
    ("runtime.accesses_per_unit", "count"),
    ("runtime.dispatch.straight", "count"),
    ("runtime.dispatch.guarded", "count"),
    ("runtime.dispatch.fused", "count"),
    ("runtime.dispatch.general", "count"),
    ("runtime.superplan_hits_per_unit", "count"),
    ("bus.txns_per_access", "count"),
    // control_plane and bulk_io: device models, drivers, bus traffic.
    ("device.self_ns_per_call", "ns"),
    ("device.calls_per_unit", "count"),
    ("bulk.fused_unit_ns_p50", "ns"),
    ("bulk.unfused_unit_ns_p50", "ns"),
    ("driver_stack.self_ns_per_unit", "ns"),
    ("bus.single_ops_per_unit", "count"),
    ("bus.block_ops_per_unit", "count"),
    ("bus.block_words_per_unit", "count"),
    // fleet_traced: the traced single-loop replay.
    ("fleet.run_unit_ns", "ns"),
    ("ledger.drain_checkpoint_ns", "ns"),
    ("mmr.drain_segment_ns", "ns"),
    ("mmr.forest_append_ns", "ns"),
    ("mmr.ns_per_leaf", "ns"),
    ("mmr.leaves_per_unit", "count"),
    ("fleet.checkpoints", "count"),
    ("fleet.residual_ns", "ns"),
    // Set-up, hand-written controls, and the layer-sum report.
    ("setup.compile_s", "s"),
    ("setup.spawn_s", "s"),
    ("control.hand_unit_ns_p50", "ns"),
    ("control.devil_over_hand", "ratio"),
    ("trace.unit_ns", "ns"),
    ("trace.layer_sum_ns", "ns"),
    ("trace.residual_ns", "ns"),
    ("trace.overhead", "ratio"),
];

/// Share of the traced unit time above which the residual (time in no
/// layer span) is flagged.
pub const RESIDUAL_BOUND: f64 = 0.25;

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Unit, as in the catalog.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: u64,
    /// First and third quartile of the samples, where the value is a
    /// median.
    pub spread: Option<(f64, f64)>,
}

/// A per-unit cost table: one row per unit kind, exact counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostTable {
    /// Column names.
    pub columns: Vec<&'static str>,
    /// `(row name, per-unit values)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl CostTable {
    /// An empty table with the given columns.
    pub fn new(columns: &[&'static str]) -> Self {
        CostTable { columns: columns.to_vec(), rows: Vec::new() }
    }

    /// The value of `column` in row `row`, if both exist.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|&n| n == column)?;
        self.rows.iter().find(|(n, _)| n == row).map(|(_, v)| v[c])
    }
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The seed the inputs came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Units attempted in the timed phase.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Whether the deterministic counters repeated exactly.
    pub counters_repeat: bool,
    /// Measured metrics (end-to-end and per-layer).
    pub metrics: Vec<Metric>,
    /// The deterministic per-unit cost table.
    pub costs: CostTable,
    /// Free-form lines for the human report.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a plain value.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.push(name, value, samples, None);
    }

    /// Records the median of a summary, with its quartiles.
    pub fn set_median(&mut self, name: &'static str, s: &Summary) {
        self.push(name, s.p50, s.n, Some((s.p25, s.p75)));
    }

    fn push(&mut self, name: &'static str, value: f64, samples: u64, spread: Option<(f64, f64)>) {
        let unit = catalog_unit(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, unit, value, samples, spread });
    }

    /// The recorded metric `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every output check passed and every counter repeated.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.counters_repeat && self.attempted > 0
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mode = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "# devil-bench {} seed={} ({mode})", self.workload, self.seed);
        let _ = writeln!(
            out,
            "# attempted={} failed={} counters_repeat={}",
            self.attempted, self.failed, self.counters_repeat
        );
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        if !self.costs.rows.is_empty() {
            let _ = writeln!(out, "## deterministic cost table (per unit)");
            let _ = write!(out, "{:<28}", "unit");
            for c in &self.costs.columns {
                let _ = write!(out, " {c:>14}");
            }
            let _ = writeln!(out);
            for (name, vals) in &self.costs.rows {
                let _ = write!(out, "{name:<28}");
                for v in vals {
                    let _ = write!(out, " {v:>14.2}");
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(out, "## metrics");
        for m in &self.metrics {
            let spread = match m.spread {
                Some((lo, hi)) => format!("  [p25 {lo:.4}, p75 {hi:.4}]"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{:<34} {:>18.4} {:<7} n={}{spread}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The one-line JSON result: end-to-end metrics on an untraced run,
    /// per-layer metrics on a traced one.
    pub fn render_json(&self) -> String {
        let list = if self.traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.metric(name).map_or(0.0, |m| m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

fn catalog_unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (n, u)) in all.iter().enumerate() {
            assert!(n.len() <= 64 && u.len() <= 16, "{n}");
            assert!(all[i + 1..].iter().all(|(m, _)| m != n), "{n} listed twice");
        }
    }

    #[test]
    fn json_lists_every_metric_of_the_mode() {
        let mut r =
            Report { workload: "x", attempted: 3, counters_repeat: true, ..Report::default() };
        r.set("units_per_s", 2.5, 3);
        let j = r.render_json();
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (n, u) in END_TO_END {
            assert!(j.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
            assert!(j.contains(&format!("\"unit\": \"{u}\"")), "{u}");
        }
        assert!(j.contains("\"units_per_s\": {\"value\": 2.5,"));
    }
}
