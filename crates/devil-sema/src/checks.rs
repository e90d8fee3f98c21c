//! The paper's Section 3.1 verifications over the resolved model.
//!
//! Strong-typing checks run during resolution (`resolve.rs`); this module
//! implements the remaining three groups plus the direction checks that
//! need the whole model:
//!
//! * **no omission** — every declared entity is used: ports (and every
//!   offset of their ranges), registers, relevant register bits, named
//!   types, read-mapping exhaustiveness;
//! * **no double definition** — handled during resolution (name tables);
//!   this module re-checks cross-entity invariants that resolution cannot
//!   see locally;
//! * **no overlapping definitions** — port/register overlap (modulo
//!   disjoint pre-actions, disjoint masks, or a shared serialization
//!   order) and register-bit overlap between variables;
//! * **behaviour** — trigger variables sharing a register must declare
//!   neutral values; direction consistency between variables, their
//!   registers and their enum mappings.

use crate::model::*;
use devil_syntax::diag::{DiagSink, ErrorCode};

/// Runs all model-level verifications, reporting into `diags`.
pub fn check(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    check_directions(model, diags);
    check_enum_mappings(model, diags);
    check_omission(model, diags);
    check_register_overlap(model, diags);
    check_bit_overlap(model, diags);
    check_trigger_conflicts(model, diags);
}

/// Direction consistency: a variable is readable iff every backing
/// register is readable (likewise writable); it must be at least one of
/// the two. Returns `(readable, writable)`.
pub fn var_directions(model: &CheckedDevice<'_>, v: &VarDef) -> (bool, bool) {
    match &v.bits {
        None => (true, true), // memory cells are always accessible
        Some(chunks) => {
            let readable = chunks.iter().all(|c| model.reg(c.reg).readable());
            let writable = chunks.iter().all(|c| model.reg(c.reg).writable());
            (readable, writable)
        }
    }
}

fn check_directions(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    for v in &model.variables {
        let (r, w) = var_directions(model, v);
        if !r && !w {
            diags.error(
                ErrorCode::TDirection,
                format!(
                    "variable `{}` is neither readable nor writable (its registers mix read-only and write-only)",
                    v.name
                ),
                v.span,
            );
        }
    }
}

fn check_enum_mappings(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    for v in &model.variables {
        let TypeSem::Enum(en) = &v.ty else { continue };
        let (readable, writable) = var_directions(model, v);
        let has_read = en.arms.iter().any(|a| a.readable);
        let has_write = en.arms.iter().any(|a| a.writable);
        if readable && !has_read {
            diags.error(
                ErrorCode::ONoReadMapping,
                format!(
                    "variable `{}` is readable but its enumerated type has no read (`<=`/`<=>`) mapping",
                    v.name
                ),
                v.span,
            );
        }
        if writable && !has_write {
            diags.error(
                ErrorCode::ONoWriteMapping,
                format!(
                    "variable `{}` is writable but its enumerated type has no write (`=>`/`<=>`) mapping",
                    v.name
                ),
                v.span,
            );
        }
        if !readable && has_read {
            diags.error(
                ErrorCode::TDirection,
                format!(
                    "type of variable `{}` has read mappings but the variable is not readable",
                    v.name
                ),
                v.span,
            );
        }
        if !writable && has_write {
            diags.error(
                ErrorCode::TDirection,
                format!(
                    "type of variable `{}` has write mappings but the variable is not writable",
                    v.name
                ),
                v.span,
            );
        }
        // Read mappings must be exhaustive over the pattern space.
        if readable && has_read && en.width <= 16 {
            let covered = en.arms.iter().filter(|a| a.readable).count() as u64;
            let space = 1u64 << en.width;
            if covered < space {
                diags.error(
                    ErrorCode::OEnumNotExhaustive,
                    format!(
                        "read mapping of variable `{}` covers {covered} of {space} possible {}-bit patterns",
                        v.name, en.width
                    ),
                    v.span,
                );
            }
        }
    }
}

fn check_omission(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    // Ports: every port referenced; every offset of its range used.
    for (pi, port) in model.ports.iter().enumerate() {
        let pid = PortId(pi as u32);
        let mut used: Vec<u64> = Vec::new();
        for reg in &model.registers {
            for b in [&reg.read, &reg.write].into_iter().flatten() {
                if b.port != pid {
                    continue;
                }
                match b.offset {
                    Offset::Const(c) => used.push(c),
                    Offset::Param(i) => used.extend(reg.params[i].iter()),
                }
            }
        }
        if used.is_empty() {
            diags.error(
                ErrorCode::OUnusedPort,
                format!("port `{}` is never used by any register", port.name),
                port.span,
            );
            continue;
        }
        let missing: Vec<u64> = port.iter_offsets().filter(|o| !used.contains(o)).collect();
        if !missing.is_empty() {
            diags.error(
                ErrorCode::OUnusedPort,
                format!("offsets {missing:?} of port `{}` are declared but never used", port.name),
                port.span,
            );
        }
    }

    // Registers: every register used by at least one variable (families
    // count through instances or parameterized variables; instances are
    // separate registers here and need their own use).
    let mut reg_used = vec![false; model.registers.len()];
    // Which registers are families someone instantiated? Instances were
    // inlined, so track families referenced by instance declarations via
    // name: an instance has no params and shares the family's ports. We
    // conservatively mark a family used when an instance uses the same
    // port bindings. Simplest robust rule: a family register is used when
    // any variable references it directly.
    for v in &model.variables {
        if let Some(chunks) = &v.bits {
            for c in chunks {
                reg_used[c.reg.0 as usize] = true;
            }
        }
    }
    // Registers named in serialization plans also count as used.
    let mark_plan = |plan: &SerPlan, used: &mut Vec<bool>| {
        fn walk(steps: &[SerStep], used: &mut Vec<bool>) {
            for s in steps {
                match s {
                    SerStep::Reg(r) => used[r.0 as usize] = true,
                    SerStep::If { then, els, .. } => {
                        walk(then, used);
                        walk(els, used);
                    }
                }
            }
        }
        walk(&plan.steps, used);
    };
    for v in &model.variables {
        if let Some(p) = &v.serialized {
            mark_plan(p, &mut reg_used);
        }
    }
    for s in &model.structures {
        if let Some(p) = &s.serialized {
            mark_plan(p, &mut reg_used);
        }
    }
    for (ri, reg) in model.registers.iter().enumerate() {
        if !reg_used[ri] {
            diags.error(
                ErrorCode::OUnusedRegister,
                format!("register `{}` is never used by any variable", reg.name),
                reg.span,
            );
        }
    }

    // Relevant register bits must be covered by variables.
    for (ri, reg) in model.registers.iter().enumerate() {
        if !reg_used[ri] {
            continue; // already reported
        }
        let rid = RegId(ri as u32);
        let mut covered = 0u64;
        for v in &model.variables {
            if let Some(chunks) = &v.bits {
                for c in chunks.iter().filter(|c| c.reg == rid) {
                    for &(hi, lo) in &c.ranges {
                        for b in lo..=hi.min(63) {
                            covered |= 1 << b;
                        }
                    }
                }
            }
        }
        let relevant = reg.relevant_bits();
        let uncovered = relevant & !covered;
        if uncovered != 0 {
            let bits: Vec<u32> = (0..reg.size).filter(|b| uncovered & (1 << b) != 0).collect();
            diags.error(
                ErrorCode::OUncoveredBits,
                format!(
                    "relevant bit(s) {bits:?} of register `{}` are not used by any variable (mark them irrelevant in the mask or define a variable)",
                    reg.name
                ),
                reg.span,
            );
        }
    }

    // Named types must be used.
    for td in &model.typedefs {
        let used = model.variables.iter().any(|v| match (&v.ty, &td.ty) {
            (TypeSem::Enum(a), TypeSem::Enum(b)) => a.name.as_deref() == b.name.as_deref(),
            (a, b) => a == b,
        });
        if !used {
            diags.error(
                ErrorCode::OUnusedType,
                format!("type `{}` is never used", td.name),
                td.span,
            );
        }
    }

    // Private memory variables must participate in some action.
    for (vi, v) in model.variables.iter().enumerate() {
        if !v.is_memory() {
            continue;
        }
        let vid = VarId(vi as u32);
        let mut used = false;
        let mut scan_actions = |actions: &[Action]| {
            for a in actions {
                if a.target == ActionTarget::Var(vid) {
                    used = true;
                }
                match &a.value {
                    ActionValue::Var(v2) if *v2 == vid => used = true,
                    ActionValue::Struct(fields) => {
                        for (fv, val) in fields {
                            if *fv == vid || matches!(val, ActionValue::Var(v3) if *v3 == vid) {
                                used = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        };
        for reg in &model.registers {
            scan_actions(&reg.pre);
            scan_actions(&reg.post);
            scan_actions(&reg.set);
        }
        for v2 in &model.variables {
            scan_actions(&v2.set);
        }
        if !used {
            diags.warning(
                ErrorCode::OUnusedPrivate,
                format!("private memory variable `{}` is never read or assigned", v.name),
                v.span,
            );
        }
    }
}

/// The constant offsets a binding can take, as inclusive ranges.
fn offset_ranges<'r>(reg: &'r RegDef, b: &PortBinding) -> impl Iterator<Item = (u64, u64)> + 'r {
    let (one, family) = match b.offset {
        Offset::Const(c) => (Some((c, c)), &[][..]),
        Offset::Param(i) => (None, reg.params[i].values.as_slice()),
    };
    one.into_iter().chain(family.iter().copied())
}

/// Whether binding `ba` of `a` and binding `bb` of `b` can take a common
/// offset.
fn offsets_overlap(a: &RegDef, ba: &PortBinding, b: &RegDef, bb: &PortBinding) -> bool {
    offset_ranges(a, ba)
        .any(|(alo, ahi)| offset_ranges(b, bb).any(|(blo, bhi)| alo <= bhi && blo <= ahi))
}

/// Whether two registers have disjoint pre-action contexts.
///
/// Pre-actions establish the addressing context for a shared port
/// (index registers, bank selects, automata state). Two registers are
/// considered disjoint when their pre-action lists differ — equal lists
/// (including two empty lists) establish the *same* context and
/// therefore genuinely collide. Parameterized pre-actions (`pre {IA =
/// i}`) make a family self-disjoint across its instances.
fn disjoint_pre(a: &RegDef, b: &RegDef) -> bool {
    if a.pre.is_empty() && b.pre.is_empty() {
        return false;
    }
    if a.pre != b.pre {
        return true;
    }
    // Identical parameterized pre-actions on the *same* family register
    // address different contexts per argument; between two distinct
    // declarations they do not.
    false
}

/// Whether two masks are disjoint: no bit is *relevant* in both.
///
/// Forced (`0`/`1`) bits do not count as ownership — in the busmouse,
/// `interrupt_reg` (mask `'000*0000'`) and `index_reg` (mask
/// `'1**00000'`) share the write port at `base@2` and are disambiguated
/// by their disjoint relevant bits; the forced bits encode the command
/// pattern that selects which function the controller performs.
fn disjoint_masks(a: &RegDef, b: &RegDef) -> bool {
    if a.size != b.size {
        return true;
    }
    // At least one register must constrain some bits (a default
    // all-relevant mask on both sides is a genuine conflict).
    a.relevant_bits() & b.relevant_bits() == 0
}

/// Collects, for each register, the ids of serialization plans it appears
/// in (plans provide an implicit addressing context, exempting their
/// registers from the overlap check — the 8259A `icw2`/`icw3`/`icw4`
/// case).
fn serialization_groups(model: &CheckedDevice<'_>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); model.registers.len()];
    let mut plan_id = 0usize;
    let visit = |plan: &SerPlan, groups: &mut Vec<Vec<usize>>, plan_id: usize| {
        fn walk(steps: &[SerStep], groups: &mut Vec<Vec<usize>>, plan_id: usize) {
            for s in steps {
                match s {
                    SerStep::Reg(r) => groups[r.0 as usize].push(plan_id),
                    SerStep::If { then, els, .. } => {
                        walk(then, groups, plan_id);
                        walk(els, groups, plan_id);
                    }
                }
            }
        }
        walk(&plan.steps, groups, plan_id);
    };
    for v in &model.variables {
        if let Some(p) = &v.serialized {
            visit(p, &mut groups, plan_id);
            plan_id += 1;
        }
    }
    for s in &model.structures {
        if let Some(p) = &s.serialized {
            visit(p, &mut groups, plan_id);
            plan_id += 1;
        }
    }
    groups
}

fn check_register_overlap(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    let groups = serialization_groups(model);
    let n = model.registers.len();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (&model.registers[i], &model.registers[j]);
            for (dir, ba, bb) in [("read", &a.read, &b.read), ("write", &a.write, &b.write)] {
                let (Some(ba), Some(bb)) = (ba, bb) else { continue };
                if ba.port != bb.port {
                    continue;
                }
                if !offsets_overlap(a, ba, b, bb) {
                    continue;
                }
                // Exemptions.
                if disjoint_pre(a, b) || disjoint_masks(a, b) {
                    continue;
                }
                if groups[i].iter().any(|g| groups[j].contains(g)) {
                    continue;
                }
                diags.push(
                    devil_syntax::Diagnostic::error(
                        ErrorCode::VRegisterOverlap,
                        format!(
                            "registers `{}` and `{}` overlap for {dir} access on the same port without disjoint pre-actions, masks, or a common serialization order",
                            a.name, b.name
                        ),
                        b.span,
                    )
                    .with_note(format!("`{}` declared here", a.name), Some(a.span)),
                );
            }
        }
    }
}

fn check_bit_overlap(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    // For each register, record which variable claims each bit.
    let n = model.registers.len();
    let mut owner: Vec<Vec<Option<VarId>>> =
        model.registers.iter().map(|r| vec![None; r.size as usize]).collect();
    let _ = n;
    for (vi, v) in model.variables.iter().enumerate() {
        let vid = VarId(vi as u32);
        let Some(chunks) = &v.bits else { continue };
        for c in chunks {
            // Chunks into the same family register with different
            // constant arguments address different physical registers.
            // Group by (reg, const-args); symbolic args are conservative.
            for &(hi, lo) in &c.ranges {
                let size = model.reg(c.reg).size;
                for bit in lo..=hi.min(size.saturating_sub(1)) {
                    let slot = &mut owner[c.reg.0 as usize][bit as usize];
                    match slot {
                        Some(prev) if *prev != vid => {
                            // Distinct constant args → distinct registers.
                            if distinct_const_args(model, *prev, vid, c.reg) {
                                continue;
                            }
                            let prev_name = model.var(*prev).name;
                            diags.push(
                                devil_syntax::Diagnostic::error(
                                    ErrorCode::VBitOverlap,
                                    format!(
                                        "bit {bit} of register `{}` is used by both `{prev_name}` and `{}`",
                                        model.reg(c.reg).name,
                                        v.name
                                    ),
                                    v.span,
                                )
                                .with_note(
                                    format!("`{prev_name}` declared here"),
                                    Some(model.var(*prev).span),
                                ),
                            );
                        }
                        _ => *slot = Some(vid),
                    }
                }
            }
        }
    }
}

/// Whether two variables reference family register `reg` with constant
/// arguments that are provably different.
fn distinct_const_args(model: &CheckedDevice<'_>, a: VarId, b: VarId, reg: RegId) -> bool {
    let args_of = |vid: VarId| -> Option<Vec<u64>> {
        let v = model.var(vid);
        let chunks = v.bits.as_ref()?;
        let c = chunks.iter().find(|c| c.reg == reg)?;
        c.args
            .iter()
            .map(|a| match a {
                ChunkArg::Const(v) => Some(*v),
                ChunkArg::Param(_) => None,
            })
            .collect()
    };
    match (args_of(a), args_of(b)) {
        (Some(aa), Some(bb)) => !aa.is_empty() && aa != bb,
        _ => false,
    }
}

fn check_trigger_conflicts(model: &CheckedDevice<'_>, diags: &mut DiagSink) {
    for (ri, reg) in model.registers.iter().enumerate() {
        let rid = RegId(ri as u32);
        // Writable variables on this register.
        let writers: Vec<(VarId, &VarDef)> = model
            .variables
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                v.bits.as_ref().is_some_and(|cs| cs.iter().any(|c| c.reg == rid))
                    && var_directions(model, v).1
            })
            .map(|(i, v)| (VarId(i as u32), v))
            .collect();
        if writers.len() < 2 {
            continue;
        }
        for (_, v) in &writers {
            if v.behavior.write_trigger && v.neutral.is_none() {
                diags.error(
                    ErrorCode::VTriggerConflict,
                    format!(
                        "trigger variable `{}` shares register `{}` with other writable variables but declares no neutral value (`except`/`for`)",
                        v.name, reg.name
                    ),
                    v.span,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_syntax::parse;

    fn check_src(src: &str) -> DiagSink {
        let (dev, mut diags) = parse(src);
        let dev = dev.expect("no device");
        assert!(!diags.has_errors(), "parse errors: {:#?}", diags.all());
        let model = crate::resolve::resolve(&dev, &[], &mut diags);
        if !diags.has_errors() {
            check(&model, &mut diags);
        }
        diags
    }

    fn check_ok(src: &str) {
        let diags = check_src(src);
        assert!(!diags.has_errors(), "unexpected errors: {:#?}", diags.all());
    }

    #[test]
    fn clean_device_passes_all_checks() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register a = base @ 0 : bit[8];
                 register b = base @ 1 : bit[8];
                 variable va = a : int(8);
                 variable vb = b : int(8);
               }"#,
        );
    }

    #[test]
    fn error_unused_port() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}, ghost : bit[8] port @ {0..0}) {
                 register a = base @ 0 : bit[8];
                 variable va = a : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OUnusedPort));
    }

    #[test]
    fn error_unused_port_offsets() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register a = base @ 0 : bit[8];
                 variable va = a : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OUnusedPort));
    }

    #[test]
    fn family_covers_port_offsets() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable v(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
    }

    #[test]
    fn error_unused_register() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register a = base @ 0 : bit[8];
                 register dead = base @ 1 : bit[8];
                 variable va = a : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OUnusedRegister));
    }

    #[test]
    fn error_uncovered_relevant_bits() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0 : bit[8];
                 variable lo = a[3..0] : int(4);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OUncoveredBits));
    }

    #[test]
    fn masked_bits_need_no_coverage() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0, mask '....****' : bit[8];
                 variable lo = a[3..0] : int(4);
               }"#,
        );
    }

    #[test]
    fn error_unused_type() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 type unused = { A <=> '1', B <=> '0' };
                 register a = base @ 0 : bit[8];
                 variable va = a : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OUnusedType));
    }

    #[test]
    fn error_register_overlap_same_port() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0 : bit[8];
                 register b = base @ 0 : bit[8];
                 variable va = a : int(8);
                 variable vb = b : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::VRegisterOverlap));
        // A bit-overlap report may or may not accompany the register
        // overlap depending on variable layout; only the register
        // overlap is guaranteed here.
    }

    #[test]
    fn overlap_exempt_by_disjoint_pre_actions() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..2}) {
                 register idx = write base @ 2, mask '0000000*' : bit[8];
                 private variable sel = idx[0] : bool;
                 register x0 = read base @ 0, pre {sel = false} : bit[8];
                 register x1 = read base @ 0, pre {sel = true} : bit[8];
                 register fill = base @ 1 : bit[8];
                 variable v0 = x0, volatile : int(8);
                 variable v1 = x1, volatile : int(8);
                 variable vf = fill : int(8);
               }"#,
        );
    }

    #[test]
    fn overlap_exempt_by_common_serialization() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register icw1 = write base @ 0 : bit[8];
                 register icw2 = write base @ 1 : bit[8];
                 register icw3 = write base @ 1 : bit[8];
                 structure init = {
                   variable a = icw1 : int(8);
                   variable b = icw2 : int(8);
                   variable c = icw3 : int(8);
                 } serialized as { icw1; icw2; icw3; };
               }"#,
        );
    }

    #[test]
    fn read_write_same_port_is_fine() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register rd = read base @ 0 : bit[8];
                 register wr = write base @ 0 : bit[8];
                 variable vr = rd, volatile : int(8);
                 variable vw = wr : int(8);
               }"#,
        );
    }

    #[test]
    fn error_bit_overlap_between_variables() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0 : bit[8];
                 variable lo = a[4..0] : int(5);
                 variable hi = a[7..4] : int(4);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::VBitOverlap));
    }

    #[test]
    fn family_instances_with_distinct_args_do_not_overlap() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0, mask '000*****' : bit[8];
                 variable IA = control[4..0] : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 variable d0 = I(0), volatile : int(8);
                 variable d1 = I(1), volatile : int(8);
               }"#,
        );
    }

    #[test]
    fn error_trigger_without_neutral_on_shared_register() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger : int(2);
                 variable page = cmd[7..2] : int(6);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::VTriggerConflict));
    }

    #[test]
    fn trigger_with_neutral_on_shared_register_ok() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL <=> '00', START <=> '01', STOP <=> '10', RSVD <=> '11' };
                 variable page = cmd[7..2] : int(6);
               }"#,
        );
    }

    #[test]
    fn lone_trigger_variable_needs_no_neutral() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register sig = base @ 0 : bit[8];
                 variable signature = sig, volatile, write trigger : int(8);
               }"#,
        );
    }

    #[test]
    fn error_enum_read_mapping_not_exhaustive() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[1..0] : { A <=> '00', B <=> '01', C <=> '10' };
                 variable rest = r[7..2] : int(6);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OEnumNotExhaustive));
    }

    #[test]
    fn write_only_enum_needs_no_read_coverage() {
        check_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cr = write base @ 0, mask '1001000*' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
               }"#,
        );
    }

    #[test]
    fn error_readable_variable_with_write_only_enum() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r[0] : { ON => '1', OFF => '0' };
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::ONoReadMapping));
    }

    #[test]
    fn error_mixed_direction_variable() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register ro = read base @ 0 : bit[8];
                 register wo = write base @ 1 : bit[8];
                 variable v = ro[3..0] # wo[3..0] : int(8);
                 variable r2 = ro[7..4], volatile : int(4);
                 variable w2 = wo[7..4] : int(4);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::TDirection));
    }

    #[test]
    fn warning_unused_private_memory() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable ghost : bool;
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        assert!(diags.has_code(ErrorCode::OUnusedPrivate));
        assert!(!diags.has_errors(), "unused private is a warning, not an error");
    }

    #[test]
    fn busmouse_full_specification_checks_clean() {
        // Figure 1 with masks following the prose convention (`*` =
        // relevant) rather than the figure's inverted rendering.
        check_ok(
            r#"device logitech_busmouse (base : bit[8] port @ {0..3}) {
                 register sig_reg = base @ 1 : bit[8];
                 variable signature = sig_reg, volatile, write trigger : int(8);

                 register cr = write base @ 3, mask '1001000*' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };

                 register interrupt_reg = write base @ 2, mask '000*0000' : bit[8];
                 variable interrupt = interrupt_reg[4] : { ENABLE => '0', DISABLE => '1' };

                 register index_reg = write base @ 2, mask '1**00000' : bit[8];
                 private variable index = index_reg[6..5] : int(2);

                 register x_low  = read base @ 0, pre {index = 0}, mask '....****' : bit[8];
                 register x_high = read base @ 0, pre {index = 1}, mask '....****' : bit[8];
                 register y_low  = read base @ 0, pre {index = 2}, mask '....****' : bit[8];
                 register y_high = read base @ 0, pre {index = 3}, mask '***.****' : bit[8];

                 structure mouse_state = {
                   variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
                   variable dy = y_high[3..0] # y_low[3..0], volatile : signed int(8);
                   variable buttons = y_high[7..5], volatile : int(3);
                 };
               }"#,
        );
    }

    #[test]
    fn interrupt_reg_and_index_reg_share_write_port_via_masks() {
        // The busmouse pattern: two write-only registers on one port with
        // disjoint *relevant* bits are exempt from the overlap check.
        check_ok(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = write base @ 0, mask '000*0000' : bit[8];
                 register b = write base @ 0, mask '1**00000' : bit[8];
                 variable va = a[4] : bool;
                 variable vb = b[6..5] : int(2);
               }"#,
        );
    }

    #[test]
    fn error_overlapping_relevant_mask_bits() {
        let diags = check_src(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = write base @ 0, mask '000**000' : bit[8];
                 register b = write base @ 0, mask '1**0*000' : bit[8];
                 variable va = a[4..3] : int(2);
                 variable vb = b[6..5] # b[3] : int(3);
               }"#,
        );
        // Bit 3 is relevant in both masks.
        assert!(diags.has_code(ErrorCode::VRegisterOverlap));
    }
}
