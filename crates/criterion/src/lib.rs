//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the small slice of criterion's API the workspace benches use:
//! [`Criterion`], [`Criterion::benchmark_group`], `bench_function`,
//! [`Bencher::iter`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Measurement is a warmup followed by five
//! timed samples that share the measurement budget; each row prints as
//! `name  time: [q1 median q3]` in criterion's style, the quartiles of
//! the samples' mean time per iteration, so every figure carries its
//! spread.
//!
//! Swapping the real criterion back in is a one-line change in the
//! workspace manifest; no bench source needs to change.
//!
//! Two environment variables make runs machine-consumable:
//!
//! * `BENCH_JSON=<path>` — after all groups run, write every result's
//!   median as nested JSON (`{"group": {"bench": median}}`). The
//!   committed `BENCH_micro.json` snapshot is regenerated with
//!   `MMR_BENCH_FULL=1 BENCH_JSON=BENCH_micro.json cargo bench --bench
//!   micro_stub`.
//! * `BENCH_MEASURE_MS=<ms>` — per-benchmark measurement budget
//!   (default 200 ms; CI's smoke step uses a small value).

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How long to measure each benchmark for (after warmup), unless
/// `BENCH_MEASURE_MS` overrides it.
const MEASURE_FOR: Duration = Duration::from_millis(200);
/// Warmup period before measuring.
const WARMUP_FOR: Duration = Duration::from_millis(50);
/// Samples per row: a timed row splits its budget into this many
/// samples, and [`record_samples`] repeats its measurement this often.
const SAMPLES: usize = 5;

/// Every `(full bench id, median)` measured by this process, in run
/// order — the source for [`write_json_results`].
static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

fn measure_for() -> Duration {
    std::env::var("BENCH_MEASURE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(MEASURE_FOR)
}

/// Writes the collected results as `group → bench → median` JSON to
/// the path named by `BENCH_JSON`, if set. Called by
/// [`criterion_main!`] after every group has run.
pub fn write_json_results() {
    let Ok(path) = std::env::var("BENCH_JSON") else { return };
    let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    // Group by id prefix, preserving first-seen order and merging
    // non-adjacent results of one group so no key appears twice (a
    // duplicate JSON key would silently shadow the earlier benches).
    let mut groups: Vec<(&str, Vec<(&str, f64)>)> = Vec::new();
    for (id, ns) in results.iter() {
        let (group, bench) = id.split_once('/').unwrap_or(("", id.as_str()));
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, benches)) => benches.push((bench, *ns)),
            None => groups.push((group, vec![(bench, *ns)])),
        }
    }
    let mut out = String::from("{\n");
    for (gi, (group, benches)) in groups.iter().enumerate() {
        out.push_str(&format!("  \"{group}\": {{\n"));
        for (bi, (bench, ns)) in benches.iter().enumerate() {
            let sep = if bi + 1 == benches.len() { "\n" } else { ",\n" };
            out.push_str(&format!("    \"{bench}\": {ns:.1}{sep}"));
        }
        out.push_str(if gi + 1 == groups.len() { "  }\n" } else { "  },\n" });
    }
    out.push_str("}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: cannot write BENCH_JSON to {path}: {e}");
    }
}

/// Records an already-measured scalar under a `group/bench` id — for
/// metrics that do not vary from run to run (simulated throughput and
/// latency, byte counts). The value lands in the same `BENCH_JSON`
/// output as timed results, under the id's group.
pub fn record_value(id: &str, value: f64) {
    println!("{id:<40} value: {value:.1}");
    push_result(id, value);
}

/// Runs `measure` five times (once in `--test` mode) and records
/// the median of what it returns under a `group/bench` id, printing
/// `value: [q1 median q3]` — for wall-clock metrics that are not time
/// per iteration (throughput, one-shot durations).
pub fn record_samples(id: &str, mut measure: impl FnMut() -> f64) {
    let runs = if test_mode() { 1 } else { SAMPLES };
    let mut xs: Vec<f64> = (0..runs).map(|_| measure()).collect();
    let [q1, median, q3] = quartiles(&mut xs);
    println!("{id:<40} value: [{q1:.1} {median:.1} {q3:.1}]");
    push_result(id, median);
}

fn push_result(id: &str, value: f64) {
    RESULTS.lock().unwrap_or_else(|e| e.into_inner()).push((id.to_string(), value));
}

/// Whether the bench binary runs as a `--test` smoke: every routine
/// once, nothing measured.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// The first quartile, median and third quartile of `xs`, interpolating
/// linearly between order statistics.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Top-level harness handle, mirroring `criterion::Criterion`.
pub struct Criterion {
    /// When true (``--test`` mode under `cargo test`), run each
    /// benchmark exactly once and skip measurement.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { test_mode: test_mode() }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup { c: self, group: name.to_string() }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(self.test_mode, id, f);
        self
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks one function within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.group, id);
        run_bench(self.c.test_mode, &full, f);
        self
    }

    /// Ends the group (formatting parity with real criterion).
    pub fn finish(self) {}
}

/// Passed to the closure given to `bench_function`; `iter` runs the
/// measured routine.
pub struct Bencher {
    /// Mean ns per iteration of each sample the most recent `iter`
    /// call timed (none in test mode).
    samples: Vec<f64>,
    test_mode: bool,
}

impl Bencher {
    /// Measures `routine` by running it repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warmup, and discover a batch size large enough that the clock
        // overhead disappears.
        let mut batch = 1u64;
        let warm_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t.elapsed();
            if warm_start.elapsed() >= WARMUP_FOR && dt >= Duration::from_micros(50) {
                break;
            }
            if dt < Duration::from_micros(50) {
                batch = batch.saturating_mul(2);
            }
        }
        // Measure: each sample runs whole batches until it has used
        // its share of the budget.
        let share = measure_for() / SAMPLES as u32;
        self.samples.clear();
        for _ in 0..SAMPLES {
            let (mut iters, mut elapsed) = (0u64, Duration::ZERO);
            loop {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(routine());
                }
                elapsed += t.elapsed();
                iters += batch;
                if elapsed >= share {
                    break;
                }
            }
            self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }
}

fn run_bench<F>(test_mode: bool, id: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher { samples: Vec::new(), test_mode };
    f(&mut b);
    if test_mode || b.samples.is_empty() {
        println!("{id}: ok (test mode)");
        return;
    }
    let [q1, median, q3] = quartiles(&mut b.samples);
    println!("{id:<40} time: [{} {} {}]", fmt_ns(q1), fmt_ns(median), fmt_ns(q3));
    push_result(id, median);
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{:.4} ns", ns)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, mirroring criterion's macro. After every
/// group runs, results are flushed as JSON when `BENCH_JSON` is set.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_results();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher { samples: Vec::new(), test_mode: true };
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            n
        });
        assert_eq!(n, 1);
        assert!(b.samples.is_empty());
    }

    #[test]
    fn bencher_times_every_sample() {
        let mut b = Bencher { samples: Vec::new(), test_mode: false };
        b.iter(|| black_box(1u64) + 1);
        assert_eq!(b.samples.len(), SAMPLES);
        assert!(b.samples.iter().all(|&ns| ns > 0.0), "{:?}", b.samples);
    }

    #[test]
    fn quartiles_of_five_samples_are_order_statistics() {
        assert_eq!(quartiles(&mut [5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&mut [7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(quartiles(&mut [1.0, 2.0]), [1.25, 1.5, 1.75]);
    }

    #[test]
    fn json_results_render_nested_groups() {
        {
            let mut r = RESULTS.lock().unwrap();
            r.clear();
            r.extend([
                ("g1/a".to_string(), 12.34),
                ("g1/b".to_string(), 5.0),
                ("g2/c".to_string(), 1000.5),
            ]);
        }
        let path = std::env::temp_dir().join("criterion_stand_in_json_test.json");
        std::env::set_var("BENCH_JSON", &path);
        write_json_results();
        std::env::remove_var("BENCH_JSON");
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got,
            "{\n  \"g1\": {\n    \"a\": 12.3,\n    \"b\": 5.0\n  },\n  \"g2\": {\n    \"c\": 1000.5\n  }\n}\n"
        );
        RESULTS.lock().unwrap().clear();
    }

    #[test]
    fn format_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(1.2e4).ends_with("µs"));
        assert!(fmt_ns(3.0e6).ends_with("ms"));
        assert!(fmt_ns(2.0e9).ends_with("s"));
    }
}
