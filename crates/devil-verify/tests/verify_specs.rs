//! The PR-gating verification sweep: every embedded spec (8 shipped
//! drivers + 5 synthetic specs) must verify clean — zero diagnostics,
//! every installed superplan proven fused ≡ unfused — and its committed
//! plan-surface manifest must match byte for byte.
//!
//! The totals are pinned: 166 dispatch points over the library, each
//! numbered once in `devil-ir` and counted in one runtime hit table
//! that the manifests, the verifier and the coverage fuzzer all index.

use devil_fuzz::coverage::shipped_corpus;
use devil_fuzz::superfuzz::decode_super;
use devil_fuzz::{decode, run_op, Engine};
use devil_ir::{AccessRef, GuardSource};
use devil_runtime::{DeviceInstance, FakeAccess};
use devil_verify::manifest;

/// Installed superplans per spec; everything not listed has none.
const SUPERPLANS: &[(&str, usize)] = &[
    ("ide", 2),
    ("permedia2", 3),
    ("ne2000", 1),
    ("pic8259", 1),
    ("selfw", 1),
    ("memw", 1),
    ("nestedc", 1),
    ("nestede", 1),
    ("selfact", 1),
];

#[test]
fn every_embedded_spec_verifies_clean() {
    let mut specs = 0usize;
    let mut proven = 0usize;
    let mut total = 0usize;
    for (name, ir) in devil_verify::spec_library() {
        specs += 1;
        let report = devil_verify::verify(&ir);
        assert!(
            report.diagnostics.is_empty(),
            "{name}: expected zero diagnostics, got:\n{}",
            report.diagnostics.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
        );
        let expected = SUPERPLANS.iter().find(|(n, _)| *n == name).map_or(0, |&(_, c)| c);
        assert_eq!(
            report.superplans_total, expected,
            "{name}: unexpected installed superplan count"
        );
        assert_eq!(
            report.superplans_proven, report.superplans_total,
            "{name}: unproven superplan(s)"
        );
        assert!(report.clean(), "{name}: report not clean");
        proven += report.superplans_proven;
        total += report.superplans_total;
    }
    assert_eq!(specs, 13, "spec library changed size — update the sweep");
    assert_eq!((proven, total), (12, 12), "superplan proof totals drifted");
}

/// Selection and the derived guards describe the same partition: for
/// every variant `k` of every plan and superplan, a state built to
/// satisfy `guards(k)` (slot bits made valid, cells and input set,
/// everything else zero or uncached) selects `k`, and every other
/// variant has a guard that fails in it.
#[test]
fn selection_and_guards_agree_on_every_variant() {
    let mut variants = 0usize;
    for (name, ir) in devil_verify::spec_library() {
        for (access, plan) in ir.accesses() {
            for k in 0..plan.variants.len() {
                let mut slots = vec![0u64; ir.cache_slots];
                let mut valid = vec![false; ir.cache_slots];
                let mut mem = vec![0u64; ir.mem_cells];
                let mut input = 0u64;
                for g in plan.guards(k) {
                    match g.source {
                        GuardSource::Slot(s) => {
                            slots[s] = (slots[s] & !g.mask) | g.expected;
                            valid[s] = true;
                        }
                        GuardSource::Cell(c) => mem[c] = (mem[c] & !g.mask) | g.expected,
                        GuardSource::Input => input = (input & !g.mask) | g.expected,
                    }
                }
                let holds = |j: usize| plan.guards(j).all(|g| g.holds(&slots, &valid, &mem, input));
                assert!(holds(k), "{name} {access:?}: the witness of variant {k} fails its guards");
                let selected = plan.select_variant(&slots, &valid, &mem, input).map(|(i, _)| i);
                assert_eq!(selected, Some(k), "{name} {access:?}: witness of variant {k}");
                for j in (0..plan.variants.len()).filter(|&j| j != k) {
                    assert!(
                        !holds(j),
                        "{name} {access:?}: variant {j} also holds at {k}'s witness"
                    );
                }
                variants += 1;
            }
        }
    }
    assert_eq!(variants, 166, "every dispatch point checked");
}

#[test]
fn committed_manifests_match() {
    for (name, ir) in devil_verify::spec_library() {
        manifest::check_manifest(&name, &ir).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The dispatch-point numbering: per spec, the points of the accesses
/// tile `0..dispatch_points()` in `accesses()` order; installing
/// superplans only appends points; and after the shipped corpus replays,
/// the hit table, `plan_stats` and `superplan_hits` agree and survive a
/// snapshot round trip.
#[test]
fn dispatch_points_are_numbered_once_and_counted_in_one_table() {
    let sources = drivers::specs::ALL.iter().chain(devil_fuzz::synthetic::ALL);
    let mut points = 0usize;
    for ((name, ir), (src_name, src)) in devil_verify::spec_library().into_iter().zip(sources) {
        assert_eq!(name, *src_name);
        let mut next = 0;
        for (access, plan) in ir.accesses() {
            assert_eq!(ir.points(access), next..next + plan.variants.len(), "{name}: {access:?}");
            next = plan.points().end;
        }
        assert_eq!(next, ir.dispatch_points(), "{name}: points do not tile the table");

        let bare = devil_ir::lower(&devil_sema::check_source(src, &[]).expect("spec checks"));
        let unfused: Vec<_> = bare.accesses().map(|(a, p)| (a, p.first_point)).collect();
        let fused: Vec<_> = ir
            .accesses()
            .filter(|(a, _)| !matches!(a, AccessRef::Superplan(_)))
            .map(|(a, p)| (a, p.first_point))
            .collect();
        assert_eq!(unfused, fused, "{name}: installing superplans renumbered a point");

        let mut inst = DeviceInstance::new(ir.clone());
        let mut dev = FakeAccess::new();
        let mut obs = Vec::new();
        for words in shipped_corpus(&name) {
            for op in decode(&ir, &words).iter().chain(&decode_super(&ir, &words)) {
                run_op(&mut Engine::Plans(&mut inst), &mut dev, op, &mut obs);
            }
        }
        let stats = inst.plan_stats();
        assert_eq!(stats.total(), inst.hits().iter().sum::<u64>(), "{name}");
        assert_eq!(inst.superplan_hits().iter().sum::<u64>(), stats.fused, "{name}");
        assert!(inst.hits().iter().all(|&n| n > 0), "{name}: the corpus saturates every point");
        let snap = inst.snapshot();
        let hits = inst.hits().to_vec();
        let cold = DeviceInstance::new(ir.clone()).snapshot();
        inst.restore(&cold);
        assert!(inst.hits().iter().all(|&n| n == 0), "{name}: restore rewinds the table");
        inst.restore(&snap);
        assert_eq!(inst.hits(), hits, "{name}: snapshot round trip");
        points += ir.dispatch_points();
    }
    assert_eq!(points, 166, "whole-library surface-point total drifted");
}
