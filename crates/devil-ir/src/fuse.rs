//! Superplans: driver-declared hot sequences fused into one
//! guard-selected straight-line body per tested-value combination.

use crate::compile::{gather_reg_compose, needs_check, set_cell};
use crate::plan::decompose;
use crate::{
    width_mask, AccessPlan, AccessStep, BlockBinding, BlockIneligible, DeviceIr, FieldSeg,
    PlanOffset, PlanSlot, PlanStep, PlanValue, PlanVariant, SelectorDim, WriteCheck,
};
use devil_sema::model::{StructId, VarId};

/// One driver-declared operation of a fusable hot sequence.
#[derive(Clone, Debug)]
pub enum FuseOp {
    /// A cache-only structure-field store (`set_field`). Only legal in
    /// the leading stage prefix, before any device-touching op.
    SetField {
        /// The stored field.
        var: VarId,
        /// Its value (`Const` or a superplan operand `Arg`).
        value: PlanValue,
    },
    /// A plain variable write (no family arguments).
    Write {
        /// The written variable.
        var: VarId,
        /// The written value (`Const` or `Arg`).
        value: PlanValue,
    },
    /// A plain variable read; its value lands in the superplan's
    /// output vector, in op order.
    Read {
        /// The read variable.
        var: VarId,
    },
    /// A structure flush (`write_struct`).
    WriteStruct {
        /// The flushed structure.
        strct: StructId,
    },
    /// A block read of a `block` variable filling the caller's
    /// block-in buffer.
    ReadBlock {
        /// The block variable.
        var: VarId,
    },
    /// A block write of a `block` variable from the caller's block-out
    /// buffer.
    WriteBlock {
        /// The block variable.
        var: VarId,
    },
}

/// One device transaction of a variant's shape ([`DeviceIr::shape`]):
/// what the variant's steps put on the bus, in order. Property tests
/// fold a superplan variant's shape through the harness port map and
/// `hwsim::CostModel` to predict the exact ledger delta and sim-time
/// advance of a fused dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeOp {
    /// Port index.
    pub port: u32,
    /// Access width in bits.
    pub size: u32,
    /// Write (out) rather than read (in).
    pub write: bool,
    /// A vectored block transaction (word count = the caller's buffer
    /// length) rather than a single access.
    pub block: bool,
}

/// A fused hot sequence: the stage prefix and one guard-selected
/// straight-line body per tested-value combination.
///
/// Fusion is pure dispatch batching: a fused body issues the identical
/// device-op stream the unfused op-by-op sequence would, so ledgers and
/// device state are bit-identical by construction — the win is one
/// selector evaluation and one arena walk instead of N.
#[derive(Clone, Debug)]
pub struct Superplan {
    /// Superplan name (the driver's handle).
    pub name: String,
    /// The declared op sequence: what the reference interpreter runs op
    /// by op, and what checked mode validates read outputs against.
    pub ops: Vec<FuseOp>,
    /// Unconditional stage prefix (the leading `SetField` ops as
    /// cache/cell stores), executed before selection — exactly where
    /// the unfused sequence stores them.
    pub stage: PlanVariant,
    /// Selector (concatenated per-op dims) and fused variants.
    pub plan: AccessPlan,
    /// Number of `Read` ops — the required output-vector length.
    pub outputs: usize,
    /// Required operand count (`1 +` the highest `Arg` index used).
    pub args: usize,
}

/// Fused variants larger than this abort fusion loudly.
const SUPERPLAN_STEP_BUDGET: usize = 256;

/// Superplans with more guard-selected variants than this abort.
const SUPERPLAN_VARIANT_CAP: usize = 512;

/// Per-op inputs to the fused cross-product enumeration.
struct FuseOpBody {
    /// The op's selector dims (absolute slots/cells, no remapping).
    dims: Vec<SelectorDim>,
    /// Materialized variants in the op's own mixed-radix order:
    /// `(checks, steps)` with `PlanValue::Input` rewritten to the op's
    /// operand and read outputs assembled in place.
    variants: Vec<(Vec<WriteCheck>, Vec<PlanStep>)>,
}

impl DeviceIr {
    /// Fuses a driver-declared hot sequence into a superplan: one
    /// up-front guard evaluation (the per-op selectors concatenated
    /// into one mixed-radix lookup) and one contiguous arena range per
    /// tested-value combination, with block ops lowered to vectored
    /// [`PlanStep::BlockIn`]/[`PlanStep::BlockOut`] steps.
    ///
    /// Returns the superplan's index, or a loud error naming what made
    /// the sequence unfusable. Fusion requires every constituent access
    /// to be plan-backed, argument-free, and hazard-free: an earlier
    /// op's steps must not write a later op's selector sources, because
    /// the fused body selects every variant at entry while the unfused
    /// sequence selects per-op.
    pub fn fuse(&mut self, name: &str, ops: Vec<FuseOp>) -> Result<usize, String> {
        if self.superplan_id(name).is_some() {
            return Err(format!("superplan {name} already declared"));
        }
        let err = |op: usize, what: &str| format!("superplan {name} op {op}: {what}");

        // Phase A: the stage prefix. Leading `SetField` ops become
        // unconditional cache/cell stores, replicating the general
        // interpreter's `store_var_bits` (which both the unfused
        // sequence and a struct write's own staging perform up front).
        let mut stage_steps: Vec<PlanStep> = Vec::new();
        let mut stage_checks: Vec<WriteCheck> = Vec::new();
        let mut tail_start = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let FuseOp::SetField { var, value } = op else { break };
            tail_start = i + 1;
            self.check_operand(*value).map_err(|e| err(i, &e))?;
            let v = self.var(*var);
            if v.parent.is_none() {
                return Err(err(i, &format!("{} is not a structure field", v.name)));
            }
            if !v.params.is_empty() {
                return Err(err(i, &format!("{} takes family arguments", v.name)));
            }
            if needs_check(v, *value) {
                stage_checks.push((*var, *value));
            }
            if let Some(cell) = v.mem_cell {
                stage_steps.push(set_cell(v, cell, *value));
                continue;
            }
            for seg in &v.segs {
                let Some(slot) = self.reg(seg.reg).slot else {
                    return Err(err(i, &format!("{} lands on a family register", v.name)));
                };
                let compose = gather_reg_compose(std::iter::once((seg, *value)), seg.reg);
                stage_steps.push(PlanStep::Store(PlanSlot::Fixed(slot), compose));
            }
        }

        // Phase B: the tail ops. Each contributes its selector dims and
        // its materialized variants; `SetField` past the prefix,
        // missing plans, family arguments and input-tested selectors
        // are loud errors.
        let mut bodies: Vec<FuseOpBody> = Vec::new();
        let mut max_depth = 1u32;
        let mut outputs = 0usize;
        let mut block_in_ops = 0usize;
        let mut block_out_ops = 0usize;
        for (i, op) in ops.iter().enumerate().skip(tail_start) {
            let body = match op {
                FuseOp::SetField { .. } => {
                    return Err(err(i, "set_field after a device-touching op (stage prefix only)"));
                }
                FuseOp::Write { var, value } => {
                    self.check_operand(*value).map_err(|e| err(i, &e))?;
                    let v = self.var(*var);
                    if !v.params.is_empty() {
                        return Err(err(i, &format!("{} takes family arguments", v.name)));
                    }
                    let Some(plan) = v.write_plan.clone() else {
                        return Err(err(i, &format!("{} has no write plan", v.name)));
                    };
                    max_depth = max_depth.max(plan.max_depth);
                    self.op_body(&plan, Some(*value), None).map_err(|e| err(i, &e))?
                }
                FuseOp::Read { var } => {
                    let v = self.var(*var);
                    if !v.params.is_empty() {
                        return Err(err(i, &format!("{} takes family arguments", v.name)));
                    }
                    if !v.behavior.volatile && !v.behavior.read_trigger {
                        // An idempotent read may be served from the
                        // cache unfused; a fused body always runs its
                        // steps, so the op streams could diverge.
                        return Err(err(i, &format!("{} is idempotent (cache-served)", v.name)));
                    }
                    let Some(plan) = v.read_plan.clone() else {
                        return Err(err(i, &format!("{} has no read plan", v.name)));
                    };
                    if plan.cell.is_some() {
                        return Err(err(i, &format!("{} is a memory cell", v.name)));
                    }
                    max_depth = max_depth.max(plan.max_depth);
                    let out = outputs as u32;
                    outputs += 1;
                    self.op_body(&plan, None, Some(out)).map_err(|e| err(i, &e))?
                }
                FuseOp::WriteStruct { strct } => {
                    let Some(plan) = self.strct(*strct).write_plan.clone() else {
                        return Err(err(i, "structure has no write plan"));
                    };
                    max_depth = max_depth.max(plan.max_depth);
                    self.op_body(&plan, None, None).map_err(|e| err(i, &e))?
                }
                FuseOp::ReadBlock { var } => {
                    block_in_ops += 1;
                    if block_in_ops > 1 {
                        return Err(err(i, "more than one block read (one block-in buffer)"));
                    }
                    let b = self.block_op(*var, false).map_err(|e| err(i, &e))?;
                    let step = PlanStep::BlockIn { port: b.port, offset: b.offset, size: b.size };
                    FuseOpBody { dims: Vec::new(), variants: vec![(Vec::new(), vec![step])] }
                }
                FuseOp::WriteBlock { var } => {
                    block_out_ops += 1;
                    if block_out_ops > 1 {
                        return Err(err(i, "more than one block write (one block-out buffer)"));
                    }
                    let b = self.block_op(*var, true).map_err(|e| err(i, &e))?;
                    let step = PlanStep::BlockOut { port: b.port, offset: b.offset, size: b.size };
                    FuseOpBody { dims: Vec::new(), variants: vec![(Vec::new(), vec![step])] }
                }
            };
            bodies.push(body);
        }
        if bodies.is_empty() {
            return Err(format!("superplan {name} has no device-touching ops"));
        }

        // Hazard check: a later op's selector sources must be untouched
        // by every earlier tail op's steps (any variant), or the fused
        // entry-time selection could disagree with unfused per-op
        // selection. Stage stores are exempt — both paths stage first.
        for k in 1..bodies.len() {
            for dim in &bodies[k].dims {
                for earlier in &bodies[..k] {
                    for (_, steps) in &earlier.variants {
                        for step in steps {
                            let clobbers = match step {
                                PlanStep::SetCell { cell, .. } => Some(*cell) == dim.cell,
                                _ => step.slot().is_some_and(|s| {
                                    dim.segs
                                        .iter()
                                        .any(|&(slot, _)| s.may_alias(&PlanSlot::Fixed(slot)))
                                }),
                            };
                            if clobbers {
                                return Err(format!(
                                    "superplan {name}: an earlier op writes a later op's \
                                     selector source (fused selection is entry-time)"
                                ));
                            }
                        }
                    }
                }
            }
        }

        // Cross product: one fused variant per combination of every
        // op's tested values, in concatenated mixed-radix order.
        let dims: Vec<SelectorDim> = bodies.iter().flat_map(|b| b.dims.iter().cloned()).collect();
        let total: usize = dims
            .iter()
            .try_fold(1usize, |acc, d| {
                acc.checked_mul(d.radix).filter(|&t| t <= SUPERPLAN_VARIANT_CAP)
            })
            .ok_or_else(|| {
                format!("superplan {name}: selector space exceeds {SUPERPLAN_VARIANT_CAP} variants")
            })?;

        let mut arena: Vec<PlanStep> = self.plan_arena.to_vec();
        let stage = PlanVariant {
            checks: stage_checks,
            start: arena.len() as u32,
            len: stage_steps.len() as u32,
        };
        arena.extend(stage_steps);

        let mut variants: Vec<PlanVariant> = Vec::with_capacity(total);
        for combo in 0..total {
            let values = decompose(&dims, combo);
            let mut checks: Vec<WriteCheck> = Vec::new();
            let mut steps: Vec<PlanStep> = Vec::new();
            let mut dim_base = 0usize;
            for body in &bodies {
                let local =
                    body.dims.iter().enumerate().fold(0usize, |idx, (d, dim)| {
                        idx * dim.radix + values[dim_base + d] as usize
                    });
                dim_base += body.dims.len();
                let (c, s) = &body.variants[local];
                checks.extend_from_slice(c);
                steps.extend_from_slice(s);
            }
            if steps.len() > SUPERPLAN_STEP_BUDGET {
                return Err(format!(
                    "superplan {name}: {} steps exceed the {SUPERPLAN_STEP_BUDGET}-step budget",
                    steps.len()
                ));
            }
            variants.push(PlanVariant {
                checks,
                start: arena.len() as u32,
                len: steps.len() as u32,
            });
            arena.extend(steps);
        }
        self.plan_arena = arena.into();

        let args = superplan_arity(&ops);
        let first_point = self.dispatch_points as u32;
        self.dispatch_points += variants.len();
        self.superplans.push(Superplan {
            name: name.to_string(),
            ops,
            stage,
            plan: AccessPlan {
                variants,
                selector: dims,
                max_depth,
                first_point,
                ..AccessPlan::default()
            },
            outputs,
            args,
        });
        Ok(self.superplans.len() - 1)
    }

    /// Rejects `Input` operands: a superplan has no single "input", its
    /// operands are the `Arg` vector.
    fn check_operand(&self, value: PlanValue) -> Result<(), String> {
        match value {
            PlanValue::Input => Err("operand must be Const or Arg".into()),
            PlanValue::Const(_) | PlanValue::Arg(_) => Ok(()),
        }
    }

    /// Materializes one constituent plan for fusion: per-variant steps
    /// with `Input` rewritten to the op's operand, read outputs
    /// assembled in place, and everything argument-free.
    fn op_body(
        &self,
        plan: &AccessPlan,
        value: Option<PlanValue>,
        out: Option<u32>,
    ) -> Result<FuseOpBody, String> {
        // Classify the dims. A dim testing the written value itself
        // (write-trigger / neutral-value plans) is resolved *statically*
        // when the op's operand is a compile-time constant — the fused
        // body pins that op's variant at fuse time, exactly the variant
        // `select_variant` would pick at run time for that input.
        // A non-constant operand stays a loud error: entry-time
        // selection has no per-op input to test.
        let mut fixed: Vec<Option<u64>> = Vec::with_capacity(plan.selector.len());
        for dim in &plan.selector {
            if dim.input_mask == 0 {
                fixed.push(None);
                continue;
            }
            // Sound only when the input bits shadow every cache-sourced
            // bit: `select_variant` clears `input_mask` out of the
            // assembled value before OR-ing the input segments in, so a
            // cell source or any cache bit outside the mask would make
            // selection depend on device state too. A pinned dim thus
            // has only input guards, which hold for the constant by
            // construction, and leaves the fused selector.
            let cache_bits = dim
                .segs
                .iter()
                .fold(0u64, |acc, (_, seg)| acc | (width_mask(seg.width()) << seg.var_lo));
            if dim.cell.is_some() || cache_bits & !dim.input_mask != 0 {
                return Err("selector mixes the written value with device state".into());
            }
            let Some(PlanValue::Const(c)) = value else {
                return Err("selector tests the written value itself".into());
            };
            let v = dim.input_segs.iter().fold(0u64, |acc, seg| acc | seg.extract(c));
            if v >= dim.radix as u64 {
                return Err("constant operand falls outside the tested domain".into());
            }
            fixed.push(Some(v));
        }
        let dims: Vec<SelectorDim> = plan
            .selector
            .iter()
            .zip(&fixed)
            .filter(|(_, f)| f.is_none())
            .map(|(d, _)| d.clone())
            .collect();
        let assemble: Option<Vec<(usize, FieldSeg)>> = match out {
            None => None,
            Some(_) => Some(
                plan.assemble
                    .iter()
                    .map(|(slot, seg)| slot.fixed().map(|s| (s, *seg)))
                    .collect::<Option<_>>()
                    .ok_or("assembles from a family slot")?,
            ),
        };
        // Enumerate the dynamic combos; splice the statically-resolved
        // dim values back in to index the plan's full variant table.
        let total: usize = dims.iter().map(|d| d.radix).product();
        let mut variants = Vec::with_capacity(total);
        for combo in 0..total {
            let dynv = decompose(&dims, combo);
            let mut idx = 0usize;
            let mut dd = 0usize;
            for (dim, f) in plan.selector.iter().zip(&fixed) {
                let v = match f {
                    Some(v) => *v,
                    None => {
                        dd += 1;
                        dynv[dd - 1]
                    }
                };
                idx = idx * dim.radix + v as usize;
            }
            let v = &plan.variants[idx];
            let mut checks = Vec::with_capacity(v.checks.len());
            for &(cv, cval) in &v.checks {
                let cval = cval.subst_input(value)?;
                if needs_check(self.var(cv), cval) {
                    checks.push((cv, cval));
                }
            }
            let mut steps = Vec::with_capacity(v.len as usize + 1);
            for step in self.variant_steps(v) {
                steps.push(materialize_step(step, value)?);
            }
            if let (Some(out), Some(assemble)) = (out, &assemble) {
                steps.push(PlanStep::Assemble { out, segs: assemble.clone() });
            }
            variants.push((checks, steps));
        }
        Ok(FuseOpBody { dims, variants })
    }

    /// A block op's transfer target: [`DeviceIr::block_binding`],
    /// every ineligibility reason a loud error (a fused body interprets
    /// no actions).
    fn block_op(&self, vid: VarId, write: bool) -> Result<BlockBinding, String> {
        let name = &self.var(vid).name;
        self.block_binding(vid, write).map_err(|why| match why {
            BlockIneligible::NotBlock => format!("{name} is not a block variable"),
            BlockIneligible::Partial => format!("{name} does not cover its register"),
            BlockIneligible::NoBinding => {
                format!("{name} is not {}", if write { "writable" } else { "readable" })
            }
            BlockIneligible::ParametricOffset => {
                format!("{}'s port offset is parametric", self.reg(self.var(vid).segs[0].reg).name)
            }
            BlockIneligible::Actions(b) => {
                format!("{}'s register has actions", self.reg(b.reg).name)
            }
        })
    }
}

/// Validates and rewrites one constituent step for a fused body: fixed
/// slots, constant offsets, and `Input` values substituted with the
/// op's operand.
fn materialize_step(step: &PlanStep, value: Option<PlanValue>) -> Result<PlanStep, String> {
    let fixed = |slot: &PlanSlot| -> Result<PlanSlot, String> {
        slot.fixed().map(PlanSlot::Fixed).ok_or_else(|| "step addresses a family slot".into())
    };
    let access = |a: &AccessStep| -> Result<AccessStep, String> {
        let PlanOffset::Const(off) = a.offset else {
            return Err("step offset is parametric".into());
        };
        Ok(AccessStep {
            reg: a.reg,
            slot: fixed(&a.slot)?,
            port: a.port,
            offset: PlanOffset::Const(off),
            size: a.size,
        })
    };
    Ok(match step {
        PlanStep::Read(a) => PlanStep::Read(access(a)?),
        PlanStep::Write { access: a, compose, out_and, out_or } => PlanStep::Write {
            access: access(a)?,
            compose: compose.subst_input(value)?,
            out_and: *out_and,
            out_or: *out_or,
        },
        PlanStep::Store(slot, c) => PlanStep::Store(fixed(slot)?, c.subst_input(value)?),
        PlanStep::SetCell { cell, value: v, mask } => {
            PlanStep::SetCell { cell: *cell, value: v.subst_input(value)?, mask: *mask }
        }
        PlanStep::BlockIn { .. } | PlanStep::BlockOut { .. } | PlanStep::Assemble { .. } => {
            return Err("nested superplan step".into());
        }
    })
}

/// The shape entry of one step, if it touches the bus.
pub(crate) fn shape_of(step: &PlanStep) -> Option<ShapeOp> {
    match step {
        PlanStep::Read(a) => {
            Some(ShapeOp { port: a.port, size: a.size, write: false, block: false })
        }
        PlanStep::Write { access: a, .. } => {
            Some(ShapeOp { port: a.port, size: a.size, write: true, block: false })
        }
        PlanStep::BlockIn { port, size, .. } => {
            Some(ShapeOp { port: *port, size: *size, write: false, block: true })
        }
        PlanStep::BlockOut { port, size, .. } => {
            Some(ShapeOp { port: *port, size: *size, write: true, block: true })
        }
        PlanStep::Store(..) | PlanStep::SetCell { .. } | PlanStep::Assemble { .. } => None,
    }
}

/// `1 +` the highest `Arg` index a superplan's ops reference.
fn superplan_arity(ops: &[FuseOp]) -> usize {
    ops.iter()
        .filter_map(|op| match op {
            FuseOp::SetField { value, .. } | FuseOp::Write { value, .. } => match value {
                PlanValue::Arg(i) => Some(i + 1),
                _ => None,
            },
            _ => None,
        })
        .max()
        .unwrap_or(0)
}
