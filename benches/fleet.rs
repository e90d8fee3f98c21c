//! Fleet-scale simulation benchmark: ops/sec and latency percentiles
//! for mixed-spec device fleets at 1/4/8 shards × 100/1000 instances.
//!
//! Every figure is simulated, so it is the same on any host and from
//! run to run. `sim_ops_per_s` is aggregate simulated throughput: total
//! units divided by the *simulated* makespan (the latest shard clock).
//! This is the sharding win: N shards drain the same unit stream in
//! ~1/N the simulated time. Host wall-clock of a fleet is measured by
//! devil-bench's `fleet_traced` workload instead, with spread.
//!
//! Latency percentiles are completion − arrival under open-loop
//! exponential arrivals, so they include real queueing delay and
//! respond to shard count the way tail latencies respond to load.
//!
//! Regenerate the committed snapshot with:
//! `BENCH_JSON=BENCH_fleet.json cargo bench --bench fleet`

use devil_fleet::{run_fleet_with, FleetConfig, Mix, SharedIrs};

fn main() {
    // `cargo test`-style smoke invocation: one tiny configuration.
    let test_mode = std::env::args().any(|a| a == "--test");
    let irs = SharedIrs::compile();

    let mixes = [Mix::interactive(), Mix::storage(), Mix::comms(), Mix::all_specs()];
    let shard_counts: &[usize] = if test_mode { &[2] } else { &[1, 4, 8] };
    let sizes: &[usize] = if test_mode { &[16] } else { &[100, 1000] };
    let units = if test_mode { 4 } else { 50 };

    for mix in mixes {
        for &instances in sizes {
            for &shards in shard_counts {
                let mut cfg = FleetConfig::new(mix);
                cfg.shards = shards;
                cfg.instances = instances;
                cfg.units_per_instance = units;
                let r = run_fleet_with(&cfg, &irs);
                assert_eq!(r.stats.general, 0, "fleet drivers must stay on compiled plans");
                let g = format!("fleet_{}_{}", mix.name, instances);
                criterion::record_value(&format!("{g}/s{shards}_sim_ops_per_s"), r.sim_ops_per_s);
                criterion::record_value(&format!("{g}/s{shards}_p50_ns"), r.p50_ns as f64);
                criterion::record_value(&format!("{g}/s{shards}_p99_ns"), r.p99_ns as f64);
                criterion::record_value(&format!("{g}/s{shards}_p999_ns"), r.p999_ns as f64);
            }
        }
    }
    criterion::write_json_results();
}
