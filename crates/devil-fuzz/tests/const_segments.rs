//! `WriteSeg` values are `Input` or `Arg`: constants fold into
//! `Compose::const_or`. This holds for every step of every library
//! spec's plan arena, the fused superplan steps included, where a
//! superplan's constant operand replaces a step's `Input`.

use devil_ir::{Compose, PlanStep, PlanValue};

fn composes(step: &PlanStep) -> Option<&Compose> {
    match step {
        PlanStep::Write { compose, .. } | PlanStep::Store(_, compose) => Some(compose),
        _ => None,
    }
}

#[test]
fn no_write_segment_of_any_library_spec_holds_a_constant() {
    let mut fused_steps = 0usize;
    for (name, ir) in devil_fuzz::spec_library() {
        for (i, step) in ir.plan_arena.iter().enumerate() {
            let Some(c) = composes(step) else { continue };
            for ws in &c.segs {
                assert!(
                    !matches!(ws.value, PlanValue::Const(_)),
                    "{name}: arena step {i} keeps a constant segment: {step:?}"
                );
            }
        }
        for sp in ir.superplans() {
            let variants = sp.plan.variants.iter().chain(std::iter::once(&sp.stage));
            fused_steps += variants.map(|v| ir.variant_steps(v).len()).sum::<usize>();
        }
    }
    assert!(fused_steps > 0, "the library fuses no superplan step");
}
