//! The fleet determinism gate.
//!
//! A sharded fleet must be a pure reorganization of work: merged
//! ledger totals, per-instance final ledgers and interpreter
//! snapshots, plan-dispatch counters, and unit counts are exactly
//! equal to a single-threaded replay, for any shard count. Latency
//! percentiles are excluded — they measure queueing, which depends on
//! sharding by design.

use devil_fleet::{run_fleet_with, FleetConfig, Mix, SharedIrs, WorkloadKind};
use hwsim::mmr::leaf_hash;
use hwsim::Segment;
use std::collections::HashSet;

fn cfg(mix: Mix, shards: usize, instances: usize) -> FleetConfig {
    let mut c = FleetConfig::new(mix);
    c.shards = shards;
    c.instances = instances;
    c.units_per_instance = 12;
    c
}

#[test]
fn sharded_fleet_replays_single_threaded_exactly() {
    let irs = SharedIrs::compile();
    let single = run_fleet_with(&cfg(Mix::all_specs(), 1, 32), &irs);
    for shards in [2, 4, 7] {
        let sharded = run_fleet_with(&cfg(Mix::all_specs(), shards, 32), &irs);
        sharded.assert_replay_equivalent(&single);
    }
}

#[test]
fn every_mix_is_shard_count_independent() {
    let irs = SharedIrs::compile();
    for mix in [Mix::interactive(), Mix::storage(), Mix::comms()] {
        let single = run_fleet_with(&cfg(mix, 1, 24), &irs);
        let sharded = run_fleet_with(&cfg(mix, 3, 24), &irs);
        sharded.assert_replay_equivalent(&single);
    }
}

#[test]
fn same_config_is_bit_identical_including_latencies() {
    let irs = SharedIrs::compile();
    let a = run_fleet_with(&cfg(Mix::all_specs(), 2, 24), &irs);
    let b = run_fleet_with(&cfg(Mix::all_specs(), 2, 24), &irs);
    a.assert_replay_equivalent(&b);
    // Same shard count: even the queueing-dependent numbers replay.
    assert_eq!(a.sim_makespan_ns, b.sim_makespan_ns);
    assert_eq!((a.p50_ns, a.p99_ns, a.p999_ns), (b.p50_ns, b.p99_ns, b.p999_ns));
}

#[test]
fn fleet_wide_general_interpreter_count_is_zero() {
    let irs = SharedIrs::compile();
    let r = run_fleet_with(&cfg(Mix::all_specs(), 2, 64), &irs);
    // The coverage mix must actually exercise all eight specs.
    let kinds: HashSet<WorkloadKind> = r.finals.iter().map(|f| f.kind).collect();
    assert_eq!(kinds.len(), WorkloadKind::ALL.len(), "all workload kinds spawned: {kinds:?}");
    assert!(r.stats.straight > 0, "fleet must dispatch on straight-line plans");
    assert!(r.stats.guarded > 0, "fleet must dispatch on guard-split variants");
    assert!(r.stats.fused > 0, "fleet must dispatch on fused superplans");
    assert_eq!(r.stats.general, 0, "no general-interpreter fallback anywhere: {:?}", r.stats);
    assert_eq!(r.units, 64 * 12);
    assert!(r.ledger.io_ops() > 0, "merged ledger saw the fleet's I/O");
}

#[test]
fn sharding_scales_simulated_throughput() {
    let irs = SharedIrs::compile();
    let one = run_fleet_with(&cfg(Mix::all_specs(), 1, 32), &irs);
    let four = run_fleet_with(&cfg(Mix::all_specs(), 4, 32), &irs);
    assert!(
        four.sim_ops_per_s > 2.0 * one.sim_ops_per_s,
        "4 shards must beat 1 shard well past 2×: {} vs {}",
        four.sim_ops_per_s,
        one.sim_ops_per_s
    );
    assert!(four.sim_makespan_ns < one.sim_makespan_ns);
}

/// The authenticated half of the gate: every instance grows a trace
/// tree, the forest root is one 32-byte digest over the whole fleet's
/// bus history, and it is identical for any shard count — the
/// checkpoint drains that feed it are a pure reorganization too.
#[test]
fn trace_forest_covers_every_instance_shard_independently() {
    let irs = SharedIrs::compile();
    let single = run_fleet_with(&cfg(Mix::all_specs(), 1, 32), &irs);
    assert_eq!(single.forest.len(), 32, "one trace tree per instance");
    for (id, ops, _) in single.forest.roots() {
        assert!(ops > 0, "instance {id} traced no bus operations");
    }
    let sharded = run_fleet_with(&cfg(Mix::all_specs(), 4, 32), &irs);
    assert_eq!(single.trace_root, sharded.trace_root, "forest roots must be shard-independent");
}

/// The fleet trace root is pinned: shard-count independence and the
/// replay gates compare roots the same code computed on both sides, so
/// only a known answer catches a change to what a drained segment
/// authenticates or how it is appended.
#[test]
fn fleet_trace_root_is_pinned() {
    let irs = SharedIrs::compile();
    let r = run_fleet_with(&cfg(Mix::all_specs(), 2, 8), &irs);
    assert_eq!(
        r.trace_root.to_hex(),
        "e54607c241b60772d4bb468e186af055a0e5ad80f0d8b5da8f7fd09b6fb3dde8"
    );
}

/// Sensitivity: skew one instance's trace tree and the gate must fail
/// naming exactly that instance, not just "roots differ".
#[test]
fn gate_names_the_instance_whose_trace_diverges() {
    let irs = SharedIrs::compile();
    let clean = run_fleet_with(&cfg(Mix::all_specs(), 2, 8), &irs);
    let mut skewed = clean.clone();
    let extra = Segment(vec![leaf_hash(b"phantom bus op")]);
    skewed.forest.append_segment(3, &extra);
    skewed.trace_root = skewed.forest.root();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        clean.assert_replay_equivalent(&skewed);
    }))
    .expect_err("skewed trace must fail the gate");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(std::string::ToString::to_string))
        .unwrap_or_default();
    assert!(msg.contains("instance 3 bus trace diverges"), "gate must name instance 3: {msg}");
}

/// A checkpoint drains only the instances that ran since the last one,
/// so at these cadences most instances have nothing to drain at most
/// checkpoints; the final checkpoint drains them all. Totals, traces and
/// final states must not depend on the cadence.
#[test]
fn checkpoint_cadence_does_not_change_totals() {
    let irs = SharedIrs::compile();
    let runs: Vec<_> = [1, 5, 64, 0]
        .into_iter()
        .map(|every| {
            let mut c = cfg(Mix::all_specs(), 2, 48);
            c.checkpoint_every_units = every;
            run_fleet_with(&c, &irs)
        })
        .collect();
    for (i, a) in runs.iter().enumerate() {
        assert_eq!(a.forest.len(), 48, "one trace tree per instance");
        for b in &runs[i + 1..] {
            a.assert_replay_equivalent(b);
            assert!(a.checkpoints > b.checkpoints, "a longer cadence checkpoints less often");
        }
    }
}
