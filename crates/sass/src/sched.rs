//! Static instruction scheduling: the automated counterpart of the paper's
//! Section 5.3 hand reorderings, plus exact control-notation generation
//! (completing the Section 3.2 story — the paper could only guess the
//! encoding; our simulator's is documented, so a perfect assembler pass is
//! possible).
//!
//! Two passes over straight-line *regions* (maximal runs without control
//! flow, barriers, or predicate redefinition):
//!
//! * [`schedule`] — latency-aware list scheduling. Dependence edges are
//!   RAW/WAR/WAW over registers and predicates; memory operations keep
//!   their relative order per address space (loads may slide past loads).
//!   Ready instructions are picked by earliest dependence-ready time, then
//!   longest critical path, and ties prefer alternating execution pipes —
//!   which is exactly "interleave different instruction types to get
//!   better balance between functional units" (Section 5.3).
//! * [`auto_ctl`] — compute each instruction's control-notation stall
//!   field from the distance to its nearest dependent successor and the
//!   producer latency, clamped to the 4-bit field.

use crate::ctl::CtlInfo;
use crate::op::{MemSpace, OpClass};
use crate::{Instruction, Op, Reg, Slot};

/// Options for [`schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedOptions {
    /// Do not move instructions more than this many slots from their
    /// original position (0 = unlimited). Bounding the motion keeps
    /// prefetch placement intent intact.
    pub max_motion: usize,
}

/// True when the instruction ends a straight-line region.
fn is_region_boundary(inst: &Instruction) -> bool {
    matches!(inst.op.class(), OpClass::Ctrl | OpClass::Barrier) || inst.pred.is_some()
}

/// A memory operation's address space and whether it stores.
fn mem_kind(op: &Op) -> Option<(MemSpace, bool)> {
    match op.class() {
        OpClass::Mem(space) => Some((space, op.info().has(Slot::Store))),
        _ => None,
    }
}

/// Accesses to one space conflict unless both are loads.
fn mem_conflicts((sa, store_a): (MemSpace, bool), (sb, store_b): (MemSpace, bool)) -> bool {
    sa == sb && (store_a || store_b)
}

/// Register/predicate dependence between two instructions (earlier `a`,
/// later `b`): RAW, WAR, or WAW.
fn reg_dependence(a: &Instruction, b: &Instruction) -> bool {
    let a_defs: Vec<Reg> = a.op.def_regs();
    let b_defs: Vec<Reg> = b.op.def_regs();
    let a_uses = a.op.use_regs();
    let b_uses = b.op.use_regs();
    // RAW / WAW / WAR over registers.
    if b_uses.iter().any(|r| a_defs.contains(r))
        || b_defs.iter().any(|r| a_defs.contains(r))
        || b_defs.iter().any(|r| a_uses.contains(r))
    {
        return true;
    }
    // Predicates.
    let a_pdef = a.op.def_pred();
    let b_pdef = b.op.def_pred();
    let a_puse = a.pred;
    let b_puse = b.pred;
    if let Some(p) = a_pdef {
        if b_puse == Some(p) || b_pdef == Some(p) {
            return true;
        }
    }
    if let (Some(p), Some(q)) = (a_puse, b_pdef) {
        if p == q {
            return true;
        }
    }
    false
}

struct Region<'a> {
    insts: &'a [Instruction],
    /// preds[i] = indices of instructions i depends on (with latency flag).
    preds: Vec<Vec<(usize, bool)>>,
    succs: Vec<Vec<usize>>,
    /// Length of the longest latency-weighted path from i to a sink.
    height: Vec<u64>,
}

fn build_region<'a>(insts: &'a [Instruction], latency: &dyn Fn(&Op) -> u32) -> Region<'a> {
    let n = insts.len();
    let mut preds: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dep_reg = reg_dependence(&insts[i], &insts[j]);
            let dep_mem = match (mem_kind(&insts[i].op), mem_kind(&insts[j].op)) {
                (Some(a), Some(b)) => mem_conflicts(a, b),
                _ => false,
            };
            if dep_reg || dep_mem {
                preds[j].push((i, dep_reg));
                succs[i].push(j);
            }
        }
    }
    let mut height = vec![0u64; n];
    for i in (0..n).rev() {
        let own = u64::from(latency(&insts[i].op));
        let best = succs[i].iter().map(|&j| height[j]).max().unwrap_or(0);
        height[i] = own + best;
    }
    Region {
        insts,
        preds,
        succs,
        height,
    }
}

fn schedule_region(
    region: &Region<'_>,
    opts: &SchedOptions,
    latency: &dyn Fn(&Op) -> u32,
) -> Vec<usize> {
    let n = region.insts.len();
    let mut remaining_preds: Vec<usize> = region.preds.iter().map(Vec::len).collect();
    let mut ready_at = vec![0u64; n];
    let mut scheduled: Vec<usize> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut cycle: u64 = 0;
    let mut last_class: Option<OpClass> = None;

    while scheduled.len() < n {
        // Candidates: all deps scheduled; obey the motion bound.
        let slot = scheduled.len();
        let mut best: Option<usize> = None;
        for i in 0..n {
            if done[i] || remaining_preds[i] > 0 {
                continue;
            }
            if opts.max_motion > 0 && i > slot + opts.max_motion {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let key = |k: usize| {
                        let stalled = ready_at[k].max(cycle) - cycle;
                        let class_bonus = u64::from(Some(region.insts[k].op.class()) == last_class);
                        // Lower is better: (stall, same-pipe-as-last,
                        // -height, original index).
                        (stalled, class_bonus, u64::MAX - region.height[k], k)
                    };
                    if key(i) < key(b) {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        // Region construction topologically orders a DAG, so while any
        // instruction is unscheduled at least one has all predecessors done.
        #[allow(clippy::expect_used)]
        let pick = best.expect("a dependence-acyclic region always has a ready instruction");
        done[pick] = true;
        cycle = ready_at[pick].max(cycle) + 1;
        last_class = Some(region.insts[pick].op.class());
        for &j in &region.succs[pick] {
            remaining_preds[j] -= 1;
            let lat = u64::from(latency(&region.insts[pick].op));
            ready_at[j] = ready_at[j].max(cycle + lat);
        }
        scheduled.push(pick);
    }
    scheduled
}

/// Reorder the instructions of `code` region by region so that dependent
/// instructions are spaced by their producers' latencies where possible.
///
/// The result executes identically: only independent instructions are
/// permuted, all register/predicate/memory dependence orders are kept, and
/// control flow (branches, barriers, predicated instructions) never moves.
pub fn schedule(
    code: &[Instruction],
    opts: &SchedOptions,
    latency: impl Fn(&Op) -> u32,
) -> Vec<Instruction> {
    let mut out: Vec<Instruction> = Vec::with_capacity(code.len());
    let mut start = 0usize;
    // Branch targets index into the code; reordering must keep every
    // instruction at a stable index region-wise. Regions never cross
    // boundaries and boundaries stay in place, so intra-region permutation
    // keeps all indices within the region... which is NOT index-stable for
    // branch targets pointing into the middle of a region. To stay safe we
    // only permute regions no branch jumps into: conservatively, regions
    // in code without any branch target inside them.
    let targets: Vec<u32> = code.iter().filter_map(|i| i.op.target()).collect();
    let mut i = 0usize;
    while i <= code.len() {
        let at_end = i == code.len();
        if at_end || is_region_boundary(&code[i]) {
            let region_insts = &code[start..i];
            let has_target_inside = targets
                .iter()
                .any(|&t| (t as usize) > start && (t as usize) < i);
            if region_insts.len() > 1 && !has_target_inside {
                let region = build_region(region_insts, &latency);
                let order = schedule_region(&region, opts, &latency);
                out.extend(order.into_iter().map(|k| region_insts[k]));
            } else {
                out.extend_from_slice(region_insts);
            }
            if !at_end {
                out.push(code[i]);
            }
            start = i + 1;
        }
        i += 1;
    }
    out
}

/// Compute a full control-notation vector: each instruction's stall field
/// covers the latency still outstanding when its nearest dependent
/// successor wants to issue, clamped to the 15-cycle field. Instructions
/// with no nearby dependent successor get stall 1 (issue spacing only).
pub fn auto_ctl(code: &[Instruction], latency: impl Fn(&Op) -> u32) -> Vec<CtlInfo> {
    let n = code.len();
    let mut out = vec![CtlInfo::stall(1); n];
    for i in 0..n {
        if matches!(code[i].op.class(), OpClass::Ctrl | OpClass::Barrier) {
            out[i] = CtlInfo::NONE;
            continue;
        }
        // Distance to the nearest dependent successor within the window.
        let lat = u64::from(latency(&code[i].op));
        let mut stall = 1u64;
        for (dist, j) in (i + 1..n.min(i + 1 + lat as usize)).enumerate() {
            if reg_dependence(&code[i], &code[j]) {
                // The consumer is `dist + 1` slots away; cover the rest of
                // the latency with a stall on the producer.
                stall = lat.saturating_sub(dist as u64).max(1);
                break;
            }
        }
        out[i] = CtlInfo::stall(stall.min(15) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, Operand};
    use peakperf_arch::Generation;

    fn lat(op: &Op) -> u32 {
        match op.class() {
            OpClass::Mem(_) => 24,
            _ => 8,
        }
    }

    fn indices(order: &[Instruction], original: &[Instruction]) -> Vec<usize> {
        order
            .iter()
            .map(|i| original.iter().position(|o| o == i).unwrap())
            .collect()
    }

    #[test]
    fn dependent_pair_is_separated_by_independents() {
        // i0 -> i1 dependent; i2..i5 independent fillers.
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.mov32i(Reg::r(0), 1); // i0
        b.iadd(Reg::r(1), Reg::r(0), 1); // i1 depends on i0
        b.mov32i(Reg::r(2), 2); // i2
        b.mov32i(Reg::r(3), 3); // i3
        b.mov32i(Reg::r(4), 4); // i4
        b.exit();
        let code = b.finish().unwrap().code;
        let body = &code[..5];
        let scheduled = schedule(body, &SchedOptions::default(), lat);
        let order = indices(&scheduled, body);
        let pos0 = order.iter().position(|&k| k == 0).unwrap();
        let pos1 = order.iter().position(|&k| k == 1).unwrap();
        assert!(pos1 > pos0, "dependence preserved");
        assert!(
            pos1 - pos0 > 1,
            "fillers should separate the dependent pair: {order:?}"
        );
    }

    #[test]
    fn all_dependences_survive_scheduling() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        for i in 0..10u8 {
            b.mov32i(Reg::r(i), u32::from(i));
        }
        for i in 0..9u8 {
            b.iadd(Reg::r(i + 20), Reg::r(i), Operand::reg(i + 1));
        }
        b.exit();
        let code = b.finish().unwrap().code;
        let body = &code[..code.len() - 1];
        let scheduled = schedule(body, &SchedOptions::default(), lat);
        assert_eq!(scheduled.len(), body.len());
        // For every dependent pair in the original, order is preserved.
        let order = indices(&scheduled, body);
        let pos: Vec<usize> = {
            let mut p = vec![0; body.len()];
            for (slot, &orig) in order.iter().enumerate() {
                p[orig] = slot;
            }
            p
        };
        for i in 0..body.len() {
            for j in (i + 1)..body.len() {
                if reg_dependence(&body[i], &body[j]) {
                    assert!(pos[i] < pos[j], "{i} -> {j} reordered");
                }
            }
        }
    }

    #[test]
    fn barriers_and_branches_never_move() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.mov32i(Reg::r(0), 1);
        b.bar();
        b.mov32i(Reg::r(1), 2);
        b.exit();
        let code = b.finish().unwrap().code;
        let scheduled = schedule(&code, &SchedOptions::default(), lat);
        assert_eq!(scheduled[1].op, Op::Bar);
        assert_eq!(scheduled[3].op, Op::Exit);
    }

    #[test]
    fn stores_and_loads_keep_their_order_per_space() {
        use crate::{MemSpace, MemWidth};
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.st(MemSpace::Shared, MemWidth::B32, Reg::r(0), Reg::r(1), 0);
        b.ld(MemSpace::Shared, MemWidth::B32, Reg::r(2), Reg::r(3), 0);
        b.exit();
        let code = b.finish().unwrap().code;
        let scheduled = schedule(&code[..2], &SchedOptions::default(), lat);
        assert!(matches!(scheduled[0].op, Op::St { .. }));
        assert!(matches!(scheduled[1].op, Op::Ld { .. }));
    }

    #[test]
    fn regions_with_branch_targets_inside_are_untouched() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.mov32i(Reg::r(0), 8);
        let top = b.label_here();
        b.mov32i(Reg::r(1), 1);
        b.iadd(Reg::r(0), Reg::r(0), -1);
        b.isetp(crate::Pred::p(0), crate::CmpOp::Gt, Reg::r(0), 0);
        b.bra_if(crate::Pred::p(0), false, top);
        b.exit();
        let code = b.finish().unwrap().code;
        let scheduled = schedule(&code, &SchedOptions::default(), lat);
        // The loop body (a branch target lands at index 1) keeps order.
        assert_eq!(scheduled, code);
    }

    #[test]
    fn auto_ctl_covers_adjacent_dependences() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.mov32i(Reg::r(0), 1);
        b.iadd(Reg::r(1), Reg::r(0), 1); // depends on previous, distance 1
        b.mov32i(Reg::r(2), 2); // independent
        b.exit();
        let code = b.finish().unwrap().code;
        let ctl = auto_ctl(&code, lat);
        // Producer of an immediately-dependent value: stall = latency.
        assert_eq!(ctl[0].stall, 8);
        // No nearby consumer: minimal spacing.
        assert_eq!(ctl[1].stall, 1);
        assert_eq!(ctl[2].stall, 1);
        // Control flow carries no stall.
        assert_eq!(ctl[3], CtlInfo::NONE);
    }

    #[test]
    fn motion_bound_limits_displacement() {
        let mut b = KernelBuilder::new("t", Generation::Fermi);
        b.mov32i(Reg::r(0), 1);
        b.iadd(Reg::r(1), Reg::r(0), 1);
        for i in 0..8u8 {
            b.mov32i(Reg::r(10 + i), 1);
        }
        b.exit();
        let code = b.finish().unwrap().code;
        let body = &code[..code.len() - 1];
        let bounded = schedule(body, &SchedOptions { max_motion: 2 }, lat);
        let order = indices(&bounded, body);
        for (slot, &orig) in order.iter().enumerate() {
            assert!(
                orig <= slot + 2,
                "instruction {orig} moved earlier than its bound ({slot})"
            );
        }
    }
}
