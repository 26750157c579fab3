//! A predicated instruction and its textual form.

use std::fmt;

use crate::text::Text;
use crate::{Op, Pred, Slot, SpecialReg};

/// One SASS instruction: an operation under an optional predicate guard.
///
/// The `Display` implementation produces the canonical assembly text that
/// [`crate::assemble`] parses back, e.g. `@!P0 FFMA R8, R4, R5, R8;`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// Guard predicate: the instruction only executes in lanes where the
    /// predicate (negated if `pred_neg`) is true. `None` means always
    /// execute.
    pub pred: Option<Pred>,
    /// Whether the guard is negated (`@!P0`).
    pub pred_neg: bool,
    /// The operation.
    pub op: Op,
}

impl Instruction {
    /// An unpredicated instruction.
    pub fn new(op: Op) -> Instruction {
        Instruction {
            pred: None,
            pred_neg: false,
            op,
        }
    }

    /// A predicated instruction (`@Pp op` or `@!Pp op`).
    pub fn predicated(pred: Pred, negated: bool, op: Op) -> Instruction {
        Instruction {
            pred: Some(pred),
            pred_neg: negated,
            op,
        }
    }
}

impl From<Op> for Instruction {
    fn from(op: Op) -> Instruction {
        Instruction::new(op)
    }
}

impl Instruction {
    pub(crate) fn show(&self, t: &mut Text<'_, '_>) -> fmt::Result {
        if let Some(p) = self.pred {
            t.str(if self.pred_neg { "@!" } else { "@" })?;
            p.show(t)?;
            t.str(" ")?;
        }
        let (row, x) = self.op.split();
        t.str(row.names[x.m])?;
        for (i, slot) in row.syntax.iter().enumerate() {
            t.str(if i == 0 { " " } else { ", " })?;
            match slot {
                Slot::Dst | Slot::Load | Slot::Store => x.dst.show(t)?,
                Slot::P => x.p.show(t)?,
                Slot::A => x.a.show(t)?,
                Slot::B { .. } | Slot::Const => x.b.show(t)?,
                Slot::C => x.c.show(t)?,
                Slot::Shift | Slot::Imm32 | Slot::Target => t.hex(x.n as u64)?,
                Slot::Special => t.str(SpecialReg::ALL[x.n as usize].name())?,
                Slot::Addr => {
                    t.str("[")?;
                    x.a.show(t)?;
                    if x.n != 0 {
                        t.str(if x.n > 0 { "+" } else { "-" })?;
                        t.hex(x.n.unsigned_abs())?;
                    }
                    t.str("]")?;
                }
            }
        }
        t.str(";")
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Text::show(f, |t| self.show(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, MemSpace, MemWidth, Operand, Reg};

    #[test]
    fn display_matches_sass_style() {
        let i = Instruction::new(Op::Ffma {
            dst: Reg::r(8),
            a: Reg::r(4),
            b: Operand::reg(5),
            c: Reg::r(8),
        });
        assert_eq!(i.to_string(), "FFMA R8, R4, R5, R8;");

        let i = Instruction::predicated(Pred::p(0), true, Op::Bra { target: 0x10 });
        assert_eq!(i.to_string(), "@!P0 BRA 0x10;");

        let i = Instruction::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B64,
            dst: Reg::r(6),
            addr: Reg::r(20),
            offset: 8,
        });
        assert_eq!(i.to_string(), "LDS.64 R6, [R20+0x8];");

        let i = Instruction::new(Op::St {
            space: MemSpace::Shared,
            width: MemWidth::B32,
            src: Reg::r(2),
            addr: Reg::r(3),
            offset: -4,
        });
        assert_eq!(i.to_string(), "STS [R3-0x4], R2;");

        let i = Instruction::new(Op::Isetp {
            p: Pred::p(1),
            cmp: CmpOp::Ge,
            a: Reg::r(18),
            b: Operand::Imm(16),
        });
        assert_eq!(i.to_string(), "ISETP.GE P1, R18, 0x10;");
    }

    #[test]
    fn zero_offset_is_elided() {
        let i = Instruction::new(Op::Ld {
            space: MemSpace::Global,
            width: MemWidth::B128,
            dst: Reg::r(12),
            addr: Reg::r(16),
            offset: 0,
        });
        assert_eq!(i.to_string(), "LD.128 R12, [R16];");
    }
}
