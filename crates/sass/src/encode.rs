//! Binary instruction encoding: one 64-bit word per instruction, each
//! operand slot at the bits the instruction table ([`crate::TABLE`])
//! documents. Encoding and decoding check every field with the
//! validator's own code, so a word decodes exactly when its instruction
//! validates.

use crate::isa::{Fields, OpInfo, Slot};
use crate::{Instruction, Operand, Pred, Reg, SassError};

fn bits(v: u64, lo: u32, hi: u32) -> u64 {
    (v >> lo) & ((1u64 << (hi - lo)) - 1)
}

fn sign_extend(v: u64, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

/// The low `width` bits of `v`, placed at bit `lo`.
fn field(v: i64, lo: u32, width: u32) -> u64 {
    (v as u64 & ((1u64 << width) - 1)) << lo
}

fn reg(r: Reg, lo: u32) -> u64 {
    u64::from(r.index()) << lo
}

/// A constant's bank at `lo` and its word offset above it.
fn const_bits(b: Operand, lo: u32) -> u64 {
    match b {
        Operand::Const { bank, offset } => {
            u64::from(bank) << lo | u64::from(offset / 4) << (lo + 4)
        }
        _ => 0,
    }
}

/// Encode one instruction at instruction index `index` (needed for branch
/// offsets) into its 64-bit word.
///
/// # Errors
///
/// Returns the [`SassError::Validate`] error [`crate::validate_instruction`]
/// reports for an instruction outside what the table admits.
pub fn encode(inst: &Instruction, index: u32) -> Result<u64, SassError> {
    let (row, x) = inst.op.split();
    let index = index as usize;
    row.check(&x, index)
        .map_err(|message| SassError::Validate {
            index: Some(index),
            message,
        })?;
    let mut w = u64::from(row.opcode) << 5;
    if let Some(p) = inst.pred {
        w |= u64::from(p.index()) | u64::from(inst.pred_neg) << 3 | 1 << 4;
    }
    if row.alu {
        // A row without A, B or C leaves `RZ` there (`Fields::EMPTY`).
        w |= reg(x.a, 19) | reg(x.c, 25) | u64::from(x.m as u8) << 31;
        w |= match x.b {
            Operand::Reg(r) => reg(r, 38),
            Operand::Imm(v) => 1 << 36 | field(v.into(), 38, 20),
            Operand::Const { .. } => 2 << 36 | const_bits(x.b, 38),
        };
    }
    for slot in row.syntax {
        w |= match slot {
            Slot::Dst | Slot::Load | Slot::Store => reg(x.dst, 13),
            Slot::P => u64::from(x.p.index()) << 13,
            Slot::Shift | Slot::Special => field(x.n, 31, 5),
            Slot::Imm32 => field(x.n, 19, 32),
            Slot::Target => field(x.n - index as i64 - 1, 13, 24),
            Slot::Addr => {
                let space = row.space() as u64;
                reg(x.a, 19) | (x.m as u64) << 25 | space << 27 | field(x.n, 29, 24)
            }
            Slot::Const => const_bits(x.b, 19),
            Slot::A | Slot::B { .. } | Slot::C => 0,
        };
    }
    Ok(w)
}

/// Decode the 64-bit word of the instruction at index `index`.
///
/// # Errors
///
/// Returns [`SassError::Decode`] on unknown opcodes and on fields the
/// table does not admit.
pub fn decode(w: u64, index: u32) -> Result<Instruction, SassError> {
    let offset = index as usize * 8;
    let fail = |message| SassError::Decode { offset, message };
    let (opcode, space) = (bits(w, 5, 13), bits(w, 27, 29));
    let row =
        OpInfo::by_opcode(opcode, space).ok_or_else(|| fail(format!("unknown opcode {opcode}")))?;
    let reg = |lo| Reg::new(bits(w, lo, lo + 6) as u8);
    let constant = |lo| Operand::Const {
        bank: bits(w, lo, lo + 4) as u8,
        offset: bits(w, lo + 4, lo + 18) as u32 * 4,
    };
    let mut x = Fields::EMPTY;
    if row.names.len() > 1 {
        x.m = bits(w, 31, 36) as usize;
    }
    for slot in row.syntax {
        match slot {
            Slot::Dst | Slot::Load | Slot::Store => x.dst = reg(13)?,
            Slot::P => x.p = Pred::new(bits(w, 13, 16) as u8)?,
            Slot::A => x.a = reg(19)?,
            Slot::C => x.c = reg(25)?,
            Slot::B { .. } => {
                x.b = match bits(w, 36, 38) {
                    0 => Operand::Reg(reg(38)?),
                    1 => Operand::Imm(sign_extend(bits(w, 38, 58), 20) as i32),
                    2 => constant(38),
                    m => return Err(fail(format!("invalid operand mode {m}"))),
                }
            }
            Slot::Shift | Slot::Special => x.n = bits(w, 31, 36) as i64,
            Slot::Imm32 => x.n = bits(w, 19, 51) as i64,
            Slot::Target => x.n = i64::from(index) + 1 + sign_extend(bits(w, 13, 37), 24),
            Slot::Addr => {
                x.a = reg(19)?;
                x.m = bits(w, 25, 27) as usize;
                x.n = sign_extend(bits(w, 29, 53), 24);
            }
            Slot::Const => x.b = constant(19),
        }
    }
    row.check(&x, index as usize).map_err(fail)?;
    let (pred, pred_neg) = if bits(w, 4, 5) == 1 {
        (Some(Pred::new(bits(w, 0, 3) as u8)?), bits(w, 3, 4) == 1)
    } else {
        (None, false)
    };
    Ok(Instruction {
        pred,
        pred_neg,
        op: row.build(&x),
    })
}

/// Encode a whole instruction stream.
///
/// # Errors
///
/// Propagates the first per-instruction encoding error.
pub fn encode_stream(code: &[Instruction]) -> Result<Vec<u64>, SassError> {
    let mut words = Vec::with_capacity(code.len());
    for (i, inst) in code.iter().enumerate() {
        words.push(encode(inst, i as u32)?);
    }
    Ok(words)
}

/// Decode a whole instruction stream.
///
/// # Errors
///
/// Propagates the first per-instruction decoding error.
pub fn decode_stream(words: &[u64]) -> Result<Vec<Instruction>, SassError> {
    let mut code = Vec::with_capacity(words.len());
    for (i, &w) in words.iter().enumerate() {
        code.push(decode(w, i as u32)?);
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, MemSpace, MemWidth, Op, SpecialReg};

    fn roundtrip(inst: Instruction, index: u32) {
        let w = encode(&inst, index).unwrap();
        let back = decode(w, index).unwrap();
        assert_eq!(back, inst, "word {w:#018x}");
    }

    #[test]
    fn alu_round_trips() {
        roundtrip(
            Instruction::new(Op::Ffma {
                dst: Reg::r(8),
                a: Reg::r(4),
                b: Operand::reg(5),
                c: Reg::r(8),
            }),
            0,
        );
        roundtrip(
            Instruction::new(Op::Iadd {
                dst: Reg::r(2),
                a: Reg::r(3),
                b: Operand::Imm(-1),
            }),
            3,
        );
        roundtrip(
            Instruction::new(Op::Fmul {
                dst: Reg::r(1),
                a: Reg::r(2),
                b: Operand::Const {
                    bank: 0,
                    offset: 0x24,
                },
            }),
            1,
        );
        roundtrip(
            Instruction::new(Op::Iscadd {
                dst: Reg::r(10),
                a: Reg::r(11),
                b: Operand::reg(12),
                shift: 4,
            }),
            9,
        );
    }

    #[test]
    fn guard_round_trips() {
        roundtrip(Instruction::predicated(Pred::p(3), true, Op::Exit), 7);
        roundtrip(Instruction::predicated(Pred::p(0), false, Op::Nop), 0);
    }

    #[test]
    fn branches_encode_relative() {
        // Backward branch.
        roundtrip(Instruction::new(Op::Bra { target: 2 }), 100);
        // Forward branch.
        roundtrip(Instruction::new(Op::Bra { target: 500 }), 10);
        // Self loop.
        roundtrip(Instruction::new(Op::Bra { target: 5 }), 5);
    }

    #[test]
    fn memory_round_trips() {
        for space in [MemSpace::Global, MemSpace::Shared, MemSpace::Local] {
            for width in MemWidth::ALL {
                roundtrip(
                    Instruction::new(Op::Ld {
                        space,
                        width,
                        dst: Reg::r(12),
                        addr: Reg::r(20),
                        offset: -64,
                    }),
                    2,
                );
                roundtrip(
                    Instruction::new(Op::St {
                        space,
                        width,
                        src: Reg::r(4),
                        addr: Reg::r(21),
                        offset: 0x1000,
                    }),
                    2,
                );
            }
        }
    }

    #[test]
    fn mov32i_carries_full_word() {
        roundtrip(
            Instruction::new(Op::Mov32i {
                dst: Reg::r(0),
                imm: 0xDEAD_BEEF,
            }),
            0,
        );
    }

    #[test]
    fn ldc_round_trips() {
        roundtrip(
            Instruction::new(Op::Ldc {
                dst: Reg::r(7),
                bank: 0,
                offset: 0x20,
            }),
            0,
        );
    }

    #[test]
    fn six_bit_register_fields_enforce_limit() {
        // The encoding cannot express R64: Reg construction already fails,
        // which is exactly the ISA constraint behind Equation 2.
        assert!(Reg::new(64).is_err());
    }

    #[test]
    fn immediates_out_of_range_error() {
        let inst = Instruction::new(Op::Iadd {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::Imm(1 << 20),
        });
        assert!(encode(&inst, 0).is_err());

        let inst = Instruction::new(Op::Ld {
            space: MemSpace::Global,
            width: MemWidth::B32,
            dst: Reg::r(0),
            addr: Reg::r(1),
            offset: 1 << 24,
        });
        assert!(encode(&inst, 0).is_err());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let w = 0xFFu64 << 5;
        assert!(decode(w, 0).is_err());
    }

    #[test]
    fn stream_round_trip() {
        let code = vec![
            Instruction::new(Op::S2r {
                dst: Reg::r(0),
                sr: SpecialReg::TidX,
            }),
            Instruction::new(Op::Isetp {
                p: Pred::p(0),
                cmp: CmpOp::Lt,
                a: Reg::r(0),
                b: Operand::Imm(32),
            }),
            Instruction::predicated(Pred::p(0), true, Op::Bra { target: 0 }),
            Instruction::new(Op::Exit),
        ];
        let words = encode_stream(&code).unwrap();
        assert_eq!(decode_stream(&words).unwrap(), code);
    }
}
