//! The benchmark's own tests: short runs of every workload print every
//! named metric with its unit, deterministic counters repeat, and a
//! planted wrong expectation raises `fail_ratio` above 0.
//!
//! Run with `cargo test --release` from this directory.

use devil_bench::report::{END_TO_END, PER_LAYER};
use devil_bench::{run, Config, Workload};
use std::sync::{Mutex, MutexGuard};

/// The peak heap is process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn short(workload: Workload, trace: bool) -> Config {
    Config { trace, short: true, ..Config::new(workload, 7, 0.3) }
}

/// `(name, unit)` pairs of one list in `BENCHMARK.json`.
fn listed(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..json[start..].find(']').map(|e| start + e).expect("list closes")];
    let field = |obj: &str, key: &str| {
        let k = obj.find(&format!("\"{key}\"")).map(|i| i + key.len() + 2)?;
        let rest = &obj[k..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let pairs = |l: &[(&str, &str)]| {
        l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(listed(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), pairs(PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let _g = serial();
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(&short(w, trace));
            assert!(
                r.correct(),
                "{} trace={trace} failed its checks:\n{}",
                w.name(),
                r.render_text()
            );
            let json = r.render_json();
            let text = r.render_text();
            let list = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in list {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(json.contains(&entry), "{} JSON lacks {name}", w.name());
                let at = json.find(&entry).expect("entry") + entry.len();
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                assert!(json[at..].starts_with(|c: char| c.is_ascii_digit() || c == '-'));
                assert!(json[at..].contains(&unit_field), "{} {name} lacks unit {unit}", w.name());
            }
            for (name, _) in END_TO_END {
                let m = r.metric(name).unwrap_or_else(|| panic!("{} lacks {name}", w.name()));
                assert!(m.value > 0.0, "{} {name} reads {}", w.name(), m.value);
                assert!(m.samples > 0, "{} {name} has no samples", w.name());
                assert!(text.contains(name), "{} report lacks {name}", w.name());
            }
            if trace {
                let v = |n: &str| r.metric(n).map_or(f64::NAN, |m| m.value);
                let (unit, layers, residual) =
                    (v("trace.unit_ns"), v("trace.layer_sum_ns"), v("trace.residual_ns"));
                assert!(unit > 0.0 && v("trace.overhead") > 0.0, "{} traced unit", w.name());
                assert!(
                    (layers + residual - unit).abs() <= 1e-9 * unit,
                    "{}: layers {layers} + residual {residual} != traced unit {unit}",
                    w.name()
                );
            }
            assert!(json.ends_with("}}"), "one JSON object");
        }
    }
}

#[test]
fn deterministic_counters_repeat_at_the_same_seed() {
    let _g = serial();
    for w in Workload::ALL {
        let a = run(&short(w, false));
        let b = run(&short(w, false));
        assert!(
            a.counters_repeat && b.counters_repeat,
            "{} counters differ within a run",
            w.name()
        );
        assert!(!a.costs.rows.is_empty(), "{} prints a cost table", w.name());
        assert_eq!(a.costs, b.costs, "{} cost table differs between runs", w.name());
        for name in ["sim_ns_per_unit", "bus_txns_per_unit", "runtime.dispatch.general"] {
            let (x, y) = (a.metric(name).map(|m| m.value), b.metric(name).map(|m| m.value));
            assert_eq!(x, y, "{} {name}", w.name());
        }
        let general = a.metric("runtime.dispatch.general").map_or(0.0, |m| m.value);
        assert_eq!(general, 0.0, "{} fell back to the general interpreter", w.name());
    }
}

/// Runs the command-line binary (a process of its own, so no other
/// thread allocates) and returns the value of `metric` from its JSON.
fn cli_metric(workload: &str, seconds: &str, metric: &str) -> f64 {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_devil-bench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let json = stdout.lines().last().expect("a result line");
    let key = format!("\"{metric}\": {{\"value\": ");
    let at = json.find(&key).expect("metric in the result") + key.len();
    let end = at + json[at..].find(',').expect("value ends");
    json[at..end].parse().expect("a number")
}

#[test]
fn peak_heap_does_not_change_with_the_run_length() {
    for w in Workload::ALL {
        let (a, b) = (
            cli_metric(w.name(), "0.5", "peak_heap_bytes"),
            cli_metric(w.name(), "2", "peak_heap_bytes"),
        );
        assert!(a > 0.0, "{} peak heap reads {a}", w.name());
        // The fleet's two shard threads interleave their allocations
        // differently from run to run; the other workloads run on one
        // thread and must repeat to the byte.
        let tolerance = if w == Workload::FleetTraced { 0.002 * a } else { 0.0 };
        assert!(
            (a - b).abs() <= tolerance,
            "{} peak heap {a} after 0.5 s, {b} after 2 s",
            w.name()
        );
    }
}

#[test]
fn named_cost_rows_exist() {
    let _g = serial();
    let cp = run(&short(Workload::ControlPlane, false));
    let bulk = run(&short(Workload::BulkIo, false));
    assert!(cp.costs.get("pic8259_init_fused", "bus_txns").is_some_and(|v| v > 0.0));
    assert!(bulk.costs.get("ide_pio_read4_16_fused", "block_words").is_some_and(|v| v == 1024.0));
    assert!(bulk.costs.get("ne2000_tx_mtu_fused", "block_ops").is_some_and(|v| v == 1.0));
}

#[test]
fn a_planted_wrong_expectation_raises_fail_ratio() {
    let _g = serial();
    for w in Workload::ALL {
        let r = run(&Config { plant_fault: true, ..short(w, false) });
        let ratio = r.metric("fail_ratio").map_or(0.0, |m| m.value);
        assert!(ratio > 0.0, "{}: fail_ratio {ratio} with a corrupted expectation", w.name());
        assert!(!r.correct());
        assert!(r.render_json().starts_with("{\"correct\": false"));
    }
}
