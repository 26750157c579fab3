//! Automatic bank-conflict removal on existing binaries (the "simple
//! solution" the paper proposes in Sections 5.4-5.5 for optimizers and
//! auto-tuning tools).
//!
//! The transformation is a *bijective register renaming*: every physical
//! register of the kernel is renamed by one global permutation. A
//! permutation preserves every data dependence (it is applied to
//! definitions and uses alike), so the rewritten kernel is semantically
//! identical — only the register *indices*, and therefore the Kepler bank
//! assignment, change. The permutation is chosen by the same backtracking
//! solver used for the hand allocation:
//!
//! * every FFMA's distinct source registers should land on distinct banks;
//! * registers accessed by wide loads/stores (`.64`/`.128`) must stay
//!   consecutive and aligned;
//! * `RZ` and unused registers are untouched.

use std::collections::{HashMap, HashSet};

use peakperf_sass::{Instruction, Kernel, MemWidth, OpClass, Reg, Role};

use crate::conflict::ffma_sources;
use crate::{analyze_ffma_conflicts, solve, AllocProblem, ConflictReport, RegAllocError, VReg};

/// Outcome of [`optimize_banks`].
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten kernel.
    pub kernel: Kernel,
    /// FFMA conflict census before the rewrite.
    pub before: ConflictReport,
    /// FFMA conflict census after the rewrite.
    pub after: ConflictReport,
    /// The register permutation that was applied (old index → new).
    pub mapping: HashMap<Reg, Reg>,
}

/// Apply a register mapping to every instruction of a code stream.
///
/// Registers not present in the map are left unchanged; `RZ` is never
/// renamed. Wide accesses are renamed through their base register (the
/// caller must supply a mapping that keeps wide groups consecutive — as
/// [`optimize_banks`] does).
pub fn apply_mapping(code: &[Instruction], map: &HashMap<Reg, Reg>) -> Vec<Instruction> {
    // The new name of each register the map renames, by index.
    let mut table = [None; 64];
    for (&old, &new) in map.iter().filter(|(old, _)| !old.is_rz()) {
        table[usize::from(old.index())] = Some(new);
    }
    let mut renamed = code.to_vec();
    for inst in &mut renamed {
        inst.op.map_regs(|_, r| {
            if let Some(new) = table[usize::from(r.index())] {
                *r = new;
            }
        });
    }
    renamed
}

/// Collect the wide-access groups of a kernel as `(base, words)`, in
/// first-seen order: each `.64`/`.128` load or store pins `words`
/// consecutive registers from `base`.
///
/// # Errors
///
/// [`RegAllocError::Malformed`] when a group runs past `R62`.
fn wide_groups(code: &[Instruction]) -> Result<Vec<(Reg, u8)>, RegAllocError> {
    let mut groups = Vec::new();
    // Only memory rows have data slots.
    let memory = code
        .iter()
        .filter(|inst| matches!(inst.op.class(), OpClass::Mem(_)));
    for (role, base) in memory.flat_map(|inst| inst.op.reg_slots()) {
        let (Role::Load(width) | Role::Store(width)) = role else {
            continue;
        };
        if width == MemWidth::B32 || base.is_rz() {
            continue;
        }
        let words = width.words() as u8;
        if base.offset_checked(words - 1).is_none_or(Reg::is_rz) {
            return Err(RegAllocError::Malformed {
                message: format!("wide access at {base} runs past R62"),
            });
        }
        if !groups.contains(&(base, words)) {
            groups.push((base, words));
        }
    }
    Ok(groups)
}

/// Rename the registers of `kernel` so that its main-loop FFMAs become
/// bank-conflict-free (best effort), preserving semantics exactly.
///
/// This is the automatic counterpart of the paper's hand allocation: run
/// it on an nvcc-like binary and the ~30 % conflicted FFMAs of Figure 8
/// disappear.
///
/// # Errors
///
/// Returns [`RegAllocError::Malformed`] when a wide access runs past
/// `R62`, and [`RegAllocError::Unsatisfiable`] when no permutation satisfies
/// all FFMA groups together with the wide-access alignment pins. (This can
/// happen for kernels whose wide groups overlap FFMA operands in
/// incompatible ways; callers may then fall back to the original kernel.)
pub fn optimize_banks(kernel: &Kernel) -> Result<RewriteOutcome, RegAllocError> {
    let before = analyze_ffma_conflicts(&kernel.code);

    // Virtual register per physical register in use, in register order.
    let in_use = (kernel.code.iter()).fold(0u64, |all, inst| {
        let (uses, defs) = inst.op.reg_masks();
        all | uses | defs
    });
    let used: Vec<Reg> = (0..Reg::RZ.index())
        .filter(|i| in_use >> i & 1 == 1)
        .map(Reg::r)
        .collect();
    let mut vreg_of = [None; 64];
    for (i, r) in used.iter().enumerate() {
        vreg_of[usize::from(r.index())] = Some(VReg(i));
    }

    let mut problem = AllocProblem::new(used.len());
    for (base, words) in wide_groups(&kernel.code)? {
        let vgroup: Option<Vec<VReg>> = (base.index()..base.index() + words)
            .map(|i| vreg_of[usize::from(i)])
            .collect();
        if let Some(vgroup) = vgroup {
            problem.require_wide(&vgroup);
        }
    }
    // A distinct-bank group per set of FFMA sources: its registers other
    // than `RZ`, in operand order (padded with `RZ`, the set's key).
    let mut seen_triples = HashSet::new();
    for sources in kernel.code.iter().filter_map(ffma_sources) {
        let (mut distinct, mut len) = ([Reg::RZ; 3], 0);
        for r in sources {
            if !r.is_rz() && !distinct[..len].contains(&r) {
                distinct[len] = r;
                len += 1;
            }
        }
        if len < 2 || !seen_triples.insert(distinct) {
            continue;
        }
        let vgroup: Option<Vec<VReg>> = (distinct[..len].iter())
            .map(|r| vreg_of[usize::from(r.index())])
            .collect();
        if let Some(vgroup) = vgroup {
            problem.require_distinct_banks(&vgroup);
        }
    }

    let assignment = solve(&problem)?;
    let mapping: HashMap<Reg, Reg> = used
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, assignment[&VReg(i)]))
        .collect();

    let mut rewritten = kernel.clone();
    rewritten.code = apply_mapping(&kernel.code, &mapping);
    rewritten.num_regs = rewritten.regs_used().max(kernel.num_regs.min(63));
    let after = analyze_ffma_conflicts(&rewritten.code);
    Ok(RewriteOutcome {
        kernel: rewritten,
        before,
        after,
        mapping,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peakperf_sass::{MemSpace, Op, Operand};

    fn ffma(dst: u8, a: u8, b: u8, c: u8) -> Instruction {
        Instruction::new(Op::Ffma {
            dst: Reg::r(dst),
            a: Reg::r(a),
            b: Operand::reg(b),
            c: Reg::r(c),
        })
    }

    #[test]
    fn conflicted_triples_are_fixed() {
        let mut kernel = Kernel::new("t");
        // R1, R3, R9 all on odd0 — the worst Table 2 case.
        kernel.code = vec![
            ffma(0, 1, 3, 9),
            ffma(2, 1, 3, 5),
            Instruction::new(Op::Exit),
        ];
        kernel.num_regs = 10;
        let out = optimize_banks(&kernel).unwrap();
        assert!(out.before.three_way == 1 && out.before.two_way == 1);
        assert_eq!(out.after.free, 2);
        assert_eq!(out.after.two_way + out.after.three_way, 0);
    }

    #[test]
    fn renaming_preserves_dependences() {
        let mut kernel = Kernel::new("t");
        kernel.code = vec![
            Instruction::new(Op::Mov32i {
                dst: Reg::r(1),
                imm: 7,
            }),
            Instruction::new(Op::Iadd {
                dst: Reg::r(3),
                a: Reg::r(1),
                b: Operand::Imm(1),
            }),
            ffma(5, 1, 3, 9),
            Instruction::new(Op::Exit),
        ];
        kernel.num_regs = 10;
        let out = optimize_banks(&kernel).unwrap();
        // The def-use chain Mov32i -> Iadd -> Ffma must still reference the
        // same renamed registers.
        let r1 = out.mapping[&Reg::r(1)];
        let r3 = out.mapping[&Reg::r(3)];
        match out.kernel.code[0].op {
            Op::Mov32i { dst, .. } => assert_eq!(dst, r1),
            ref other => panic!("unexpected {other:?}"),
        }
        match out.kernel.code[1].op {
            Op::Iadd { dst, a, .. } => {
                assert_eq!(dst, r3);
                assert_eq!(a, r1);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wide_groups_stay_aligned() {
        let mut kernel = Kernel::new("t");
        kernel.code = vec![
            Instruction::new(Op::Ld {
                space: MemSpace::Shared,
                width: MemWidth::B64,
                dst: Reg::r(6),
                addr: Reg::r(20),
                offset: 0,
            }),
            ffma(0, 6, 7, 9),
            Instruction::new(Op::Exit),
        ];
        kernel.num_regs = 21;
        kernel.shared_bytes = 64;
        let out = optimize_banks(&kernel).unwrap();
        let base = out.mapping[&Reg::r(6)];
        let hi = out.mapping[&Reg::r(7)];
        assert_eq!(base.index() % 2, 0);
        assert_eq!(hi.index(), base.index() + 1);
        match out.kernel.code[0].op {
            Op::Ld { dst, .. } => assert_eq!(dst, base),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wide_access_into_rz_is_malformed_not_a_panic() {
        // `LDS.64 R62` pins R62 and RZ: the validator rejects it, and the
        // rewrite must say so instead of panicking.
        let mut kernel = Kernel::new("t");
        kernel.code = vec![
            Instruction::new(Op::Ld {
                space: MemSpace::Shared,
                width: MemWidth::B64,
                dst: Reg::r(62),
                addr: Reg::r(0),
                offset: 0,
            }),
            ffma(1, 2, 3, 4),
            Instruction::new(Op::Exit),
        ];
        kernel.num_regs = 63;
        assert!(matches!(
            optimize_banks(&kernel),
            Err(RegAllocError::Malformed { .. })
        ));
    }

    #[test]
    fn mapping_is_injective() {
        let mut kernel = Kernel::new("t");
        kernel.code = (0..12u8)
            .map(|i| ffma(i, (i + 1) % 12, (i + 2) % 12, (i + 3) % 12))
            .chain(std::iter::once(Instruction::new(Op::Exit)))
            .collect();
        kernel.num_regs = 12;
        let out = optimize_banks(&kernel).unwrap();
        let mut targets: Vec<u8> = out.mapping.values().map(|r| r.index()).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), out.mapping.len());
    }
}
