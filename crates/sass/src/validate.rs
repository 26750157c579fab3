//! Structural validation of kernels against the ISA and generation limits.

use peakperf_arch::Generation;

use crate::{Instruction, Kernel, MemSpace, OpClass, SassError};

fn verr(index: Option<usize>, message: impl Into<String>) -> SassError {
    SassError::Validate {
        index,
        message: message.into(),
    }
}

/// Validate one instruction at instruction index `index` against its
/// row of [`crate::TABLE`]: operand kinds and ranges, wide-access
/// alignment, branch reach. [`crate::encode`], [`crate::decode`] and
/// [`crate::assemble`] run the same checks.
///
/// # Errors
///
/// Returns [`SassError::Validate`] describing the violated constraint.
pub fn validate_instruction(inst: &Instruction, index: usize) -> Result<(), SassError> {
    let (row, fields) = inst.op.split();
    row.check(&fields, index).map_err(|m| verr(Some(index), m))
}

/// Validate a whole kernel for a target generation:
///
/// * every instruction passes [`validate_instruction`];
/// * the highest register index used is within `num_regs` and the
///   generation's hard encoding limit (63 on Fermi/GK104, Section 2);
/// * branch targets stay inside the kernel;
/// * the shared-memory declaration fits the generation's per-block limit;
/// * local-memory accesses require a non-zero `local_bytes` declaration;
/// * Kepler kernels carry one control field per instruction.
///
/// # Errors
///
/// Returns the first violated constraint as [`SassError::Validate`].
pub fn validate_kernel(kernel: &Kernel, generation: Generation) -> Result<(), SassError> {
    let n = kernel.code.len();
    if n == 0 {
        return Err(verr(None, "kernel has no instructions"));
    }
    let max_shared = generation.max_shared_bytes_per_block();
    if kernel.shared_bytes > max_shared {
        return Err(verr(
            None,
            format!(
                "kernel declares {} bytes of shared memory but {generation} allows {max_shared}",
                kernel.shared_bytes
            ),
        ));
    }
    let max_regs = generation.max_registers_per_thread();
    if kernel.num_regs > max_regs {
        return Err(verr(
            None,
            format!(
                "kernel declares {} registers but {generation} allows {max_regs}",
                kernel.num_regs
            ),
        ));
    }
    for (i, inst) in kernel.code.iter().enumerate() {
        validate_instruction(inst, i)?;
        if let Some(target) = inst.op.target() {
            if target as usize >= n {
                return Err(verr(
                    Some(i),
                    format!("branch target {target:#x} outside kernel of {n} instructions"),
                ));
            }
        }
        if inst.op.class() == OpClass::Mem(MemSpace::Local) && kernel.local_bytes == 0 {
            return Err(verr(
                Some(i),
                "local-memory access in a kernel with no `.local` declaration",
            ));
        }
    }
    if let Some(h) = kernel.regs_used().checked_sub(1) {
        if h >= kernel.num_regs && kernel.num_regs > 0 {
            return Err(verr(
                None,
                format!(
                    "register R{h} used but kernel declares only {} registers",
                    kernel.num_regs
                ),
            ));
        }
        if h >= max_regs {
            return Err(verr(
                None,
                format!("register R{h} exceeds the {generation} limit of {max_regs}"),
            ));
        }
    }
    if generation.uses_control_notation() {
        match &kernel.ctl {
            Some(fields) if fields.len() == n => {}
            Some(fields) => {
                return Err(verr(
                    None,
                    format!(
                        "control notation covers {} of {n} instructions",
                        fields.len()
                    ),
                ))
            }
            None => {
                return Err(verr(
                    None,
                    "Kepler kernels require control notation (Section 3.2)",
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::CtlInfo;
    use crate::{MemWidth, Op, Operand, Reg};

    fn kernel_with(code: Vec<Instruction>, num_regs: u32) -> Kernel {
        let mut k = Kernel::new("t");
        k.num_regs = num_regs;
        k.code = code;
        k
    }

    #[test]
    fn misaligned_wide_load_rejected() {
        let inst = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            dst: Reg::r(7),
            addr: Reg::r(0),
            offset: 0,
        });
        assert!(validate_instruction(&inst, 0).is_err());
        let ok = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            dst: Reg::r(6),
            addr: Reg::r(0),
            offset: 0,
        });
        assert!(validate_instruction(&ok, 0).is_ok());
    }

    #[test]
    fn lds128_requires_quad_alignment() {
        let inst = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B128,
            dst: Reg::r(6),
            addr: Reg::r(0),
            offset: 0,
        });
        assert!(validate_instruction(&inst, 0).is_err());
    }

    #[test]
    fn float_immediates_rejected() {
        let inst = Instruction::new(Op::Ffma {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::Imm(2),
            c: Reg::r(0),
        });
        assert!(validate_instruction(&inst, 0).is_err());
    }

    #[test]
    fn operand_b_ranges_are_the_encodings() {
        let iadd = |b| {
            let op = Op::Iadd {
                dst: Reg::r(0),
                a: Reg::r(1),
                b,
            };
            validate_instruction(&Instruction::new(op), 0).is_ok()
        };
        let c = |bank, offset| Operand::Const { bank, offset };
        assert!(iadd(Operand::Imm(0x7FFFF)) && iadd(Operand::Imm(-0x80000)));
        assert!(!iadd(Operand::Imm(0x80000)) && !iadd(Operand::Imm(-0x80001)));
        assert!(iadd(c(0, 0x20)) && iadd(c(15, 0xFFFC)));
        assert!(!iadd(c(0, 0x21)) && !iadd(c(16, 0)) && !iadd(c(0, 0x10000)));
    }

    #[test]
    fn register_budget_enforced() {
        let code = vec![
            Instruction::new(Op::Mov {
                dst: Reg::r(40),
                src: Operand::Imm(0),
            }),
            Instruction::new(Op::Exit),
        ];
        let k = kernel_with(code, 16);
        let e = validate_kernel(&k, Generation::Fermi).unwrap_err();
        assert!(e.to_string().contains("R40"));
    }

    #[test]
    fn branch_bounds_enforced() {
        let code = vec![
            Instruction::new(Op::Bra { target: 9 }),
            Instruction::new(Op::Exit),
        ];
        let k = kernel_with(code, 4);
        assert!(validate_kernel(&k, Generation::Fermi).is_err());
    }

    #[test]
    fn local_access_requires_declaration() {
        let code = vec![
            Instruction::new(Op::St {
                space: MemSpace::Local,
                width: MemWidth::B32,
                src: Reg::r(0),
                addr: Reg::RZ,
                offset: 0,
            }),
            Instruction::new(Op::Exit),
        ];
        let mut k = kernel_with(code, 4);
        assert!(validate_kernel(&k, Generation::Fermi).is_err());
        k.local_bytes = 64;
        assert!(validate_kernel(&k, Generation::Fermi).is_ok());
    }

    #[test]
    fn kepler_requires_ctl() {
        let code = vec![Instruction::new(Op::Exit)];
        let mut k = kernel_with(code, 4);
        assert!(validate_kernel(&k, Generation::Kepler).is_err());
        k.ctl = Some(vec![CtlInfo::NONE]);
        assert!(validate_kernel(&k, Generation::Kepler).is_ok());
        assert!(validate_kernel(&k, Generation::Fermi).is_ok());
    }

    #[test]
    fn empty_kernel_rejected() {
        let k = kernel_with(vec![], 4);
        assert!(validate_kernel(&k, Generation::Fermi).is_err());
    }

    #[test]
    fn iscadd_shift_range_enforced() {
        let bad = Instruction::new(Op::Iscadd {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::reg(2),
            shift: 32,
        });
        assert!(validate_instruction(&bad, 0).is_err());
        let ok = Instruction::new(Op::Iscadd {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::reg(2),
            shift: 31,
        });
        assert!(validate_instruction(&ok, 0).is_ok());
    }

    #[test]
    fn memory_offset_range_enforced() {
        let mk = |offset| {
            Instruction::new(Op::Ld {
                space: MemSpace::Global,
                width: MemWidth::B32,
                dst: Reg::r(0),
                addr: Reg::r(1),
                offset,
            })
        };
        assert!(validate_instruction(&mk(1 << 23), 0).is_err());
        assert!(validate_instruction(&mk(-(1 << 23) - 1), 0).is_err());
        assert!(validate_instruction(&mk((1 << 23) - 1), 0).is_ok());
        assert!(validate_instruction(&mk(-(1 << 23)), 0).is_ok());
    }

    #[test]
    fn ldc_operand_range_enforced() {
        let bad_bank = Instruction::new(Op::Ldc {
            dst: Reg::r(0),
            bank: 16,
            offset: 0,
        });
        assert!(validate_instruction(&bad_bank, 0).is_err());
        let misaligned = Instruction::new(Op::Ldc {
            dst: Reg::r(0),
            bank: 0,
            offset: 6,
        });
        assert!(validate_instruction(&misaligned, 0).is_err());
        let ok = Instruction::new(Op::Ldc {
            dst: Reg::r(0),
            bank: 15,
            offset: 0xFFFC,
        });
        assert!(validate_instruction(&ok, 0).is_ok());
    }

    #[test]
    fn wide_access_may_not_run_into_rz() {
        // Found by the differential fuzzer: LD.64 R62 / LD.128 R60 pass
        // alignment and sit inside the 6-bit encoding, but their last
        // word lands on index 63 (RZ). They must be rejected, not left
        // to panic downstream register-expansion code.
        let ld64 = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            dst: Reg::r(62),
            addr: Reg::r(0),
            offset: 0,
        });
        assert!(validate_instruction(&ld64, 0).is_err());
        let ld128 = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B128,
            dst: Reg::r(60),
            addr: Reg::r(0),
            offset: 0,
        });
        assert!(validate_instruction(&ld128, 0).is_err());
        let st64 = Instruction::new(Op::St {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            src: Reg::r(62),
            addr: Reg::r(0),
            offset: 0,
        });
        assert!(validate_instruction(&st64, 0).is_err());
    }

    #[test]
    fn single_word_rz_data_register_is_legal() {
        // `LD RZ` is a discard load and `ST ..., RZ` stores zero; both
        // are valid and must validate without panicking.
        let ld = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B32,
            dst: Reg::RZ,
            addr: Reg::r(0),
            offset: 0,
        });
        let st = Instruction::new(Op::St {
            space: MemSpace::Shared,
            width: MemWidth::B32,
            src: Reg::RZ,
            addr: Reg::r(0),
            offset: 0,
        });
        let k = kernel_with(vec![ld, st, Instruction::new(Op::Exit)], 4);
        assert!(validate_kernel(&k, Generation::Fermi).is_ok());
    }

    #[test]
    fn shared_memory_limit_enforced() {
        let mut k = kernel_with(vec![Instruction::new(Op::Exit)], 4);
        k.shared_bytes = 48 * 1024;
        assert!(validate_kernel(&k, Generation::Fermi).is_ok());
        assert!(validate_kernel(&k, Generation::Gt200).is_err());
        k.shared_bytes = 48 * 1024 + 4;
        let e = validate_kernel(&k, Generation::Fermi).unwrap_err();
        assert!(e.to_string().contains("shared"));
    }

    #[test]
    fn gt200_allows_more_registers() {
        let mut k = kernel_with(vec![Instruction::new(Op::Exit)], 100);
        k.num_regs = 100;
        assert!(validate_kernel(&k, Generation::Gt200).is_ok());
        assert!(validate_kernel(&k, Generation::Fermi).is_err());
    }
}
