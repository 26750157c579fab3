//! Source operands for ALU instructions.

use std::fmt;

use crate::text::Text;
use crate::Reg;

/// A source operand of an ALU instruction: a register, a signed 20-bit
/// immediate, or a constant-bank location.
///
/// Mirrors the Fermi operand model: the *last* register-or-immediate source
/// slot of an arithmetic instruction may instead name an immediate or a
/// `c[bank][offset]` constant. Shared memory is deliberately *not* an
/// operand kind — that restriction is the core of the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Reg),
    /// A signed immediate; must fit in 20 bits.
    Imm(i32),
    /// A 32-bit word in a constant bank (`c[bank][offset]`); `offset` is a
    /// byte offset and must be 4-byte aligned.
    Const {
        /// Constant bank index (0..=15). Bank 0 holds kernel parameters.
        bank: u8,
        /// Byte offset within the bank (0..=0xFFFC, 4-byte aligned).
        offset: u32,
    },
}

impl Operand {
    /// Shorthand for a register operand.
    pub fn reg(index: u8) -> Operand {
        Operand::Reg(Reg::r(index))
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Operand {
        Operand::Imm(v)
    }
}

impl Operand {
    pub(crate) fn show(self, t: &mut Text<'_, '_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.show(t),
            Operand::Imm(v) => {
                if v < 0 {
                    t.str("-")?;
                }
                t.hex(v.unsigned_abs().into())
            }
            Operand::Const { bank, offset } => {
                t.str("c[")?;
                t.hex(bank.into())?;
                t.str("][")?;
                t.hex(offset.into())?;
                t.str("]")
            }
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Text::show(f, |t| self.show(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Operand::reg(7).to_string(), "R7");
        assert_eq!(Operand::Imm(16).to_string(), "0x10");
        assert_eq!(Operand::Imm(-4).to_string(), "-0x4");
        assert_eq!(
            Operand::Const {
                bank: 0,
                offset: 0x24
            }
            .to_string(),
            "c[0x0][0x24]"
        );
    }

    #[test]
    fn conversions() {
        let o: Operand = Reg::r(3).into();
        assert_eq!(o, Operand::reg(3));
        let o: Operand = 5i32.into();
        assert_eq!(o, Operand::Imm(5));
    }
}
