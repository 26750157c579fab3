//! Static register-bank conflict analysis (Figure 8).

use std::fmt;

use peakperf_sass::{Instruction, Op, Operand, Reg};

/// Conflict degree of one FFMA with source registers `srcs`: the
/// maximum number of *distinct* sources that share a register bank
/// (1 = conflict-free).
///
/// `RZ` is materialized by the operand collector and never conflicts;
/// repeated uses of the same register read one bank port once.
pub fn ffma_conflict_ways(srcs: impl IntoIterator<Item = Reg>) -> u32 {
    let (mut seen, mut per_bank) = (0u64, [0u32; 4]);
    for r in srcs {
        let bit = 1 << r.index();
        if !r.is_rz() && seen & bit == 0 {
            seen |= bit;
            per_bank[r.bank().index()] += 1;
        }
    }
    per_bank.into_iter().max().unwrap_or(1).max(1)
}

/// The register sources of an FFMA in operand order (`a`, `b`, `c`), with
/// `RZ` for a `b` that is no register; `None` for any other instruction.
pub(crate) fn ffma_sources(inst: &Instruction) -> Option<[Reg; 3]> {
    match inst.op {
        Op::Ffma { a, b, c, .. } => {
            let b = match b {
                Operand::Reg(r) => r,
                _ => Reg::RZ,
            };
            Some([a, b, c])
        }
        _ => None,
    }
}

/// Per-kernel conflict census of FFMA instructions, as plotted in Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConflictReport {
    /// FFMA instructions examined.
    pub total: u64,
    /// FFMAs with no bank conflict.
    pub free: u64,
    /// FFMAs with a 2-way conflict.
    pub two_way: u64,
    /// FFMAs with a 3-way conflict.
    pub three_way: u64,
}

impl ConflictReport {
    /// Fraction of conflict-free FFMAs (0..=1).
    pub fn free_fraction(&self) -> f64 {
        self.fraction(self.free)
    }

    /// Fraction of 2-way-conflicted FFMAs (0..=1).
    pub fn two_way_fraction(&self) -> f64 {
        self.fraction(self.two_way)
    }

    /// Fraction of 3-way-conflicted FFMAs (0..=1).
    pub fn three_way_fraction(&self) -> f64 {
        self.fraction(self.three_way)
    }

    fn fraction(&self, n: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} FFMA: {:.1}% conflict-free, {:.1}% 2-way, {:.1}% 3-way",
            self.total,
            100.0 * self.free_fraction(),
            100.0 * self.two_way_fraction(),
            100.0 * self.three_way_fraction()
        )
    }
}

/// Analyze the FFMA register-bank conflicts of an instruction stream
/// (static census over the code, as in Figure 8; the timing simulator
/// independently charges the dynamic cost).
pub fn analyze_ffma_conflicts(code: &[Instruction]) -> ConflictReport {
    let mut report = ConflictReport::default();
    for sources in code.iter().filter_map(ffma_sources) {
        report.total += 1;
        match ffma_conflict_ways(sources) {
            1 => report.free += 1,
            2 => report.two_way += 1,
            _ => report.three_way += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ffma(a: u8, b: u8, c: u8) -> Instruction {
        Instruction::new(Op::Ffma {
            dst: Reg::r(0),
            a: Reg::r(a),
            b: Operand::reg(b),
            c: Reg::r(c),
        })
    }

    #[test]
    fn ways_match_table2_examples() {
        // FFMA R0, R1, R4, R5: O0, E1, O1 -> conflict-free.
        assert_eq!(ffma_conflict_ways([Reg::r(1), Reg::r(4), Reg::r(5)]), 1);
        // FFMA R0, R1, R3, R5: R1 and R3 on odd0 -> 2-way.
        assert_eq!(ffma_conflict_ways([Reg::r(1), Reg::r(3), Reg::r(5)]), 2);
        // FFMA R0, R1, R3, R9: all odd0 -> 3-way.
        assert_eq!(ffma_conflict_ways([Reg::r(1), Reg::r(3), Reg::r(9)]), 3);
    }

    #[test]
    fn repeated_registers_do_not_conflict() {
        // FFMA R0, R1, R4, R0 with repeated R1: only distinct regs count.
        assert_eq!(ffma_conflict_ways([Reg::r(1), Reg::r(1), Reg::r(5)]), 1);
        assert_eq!(ffma_conflict_ways([Reg::r(1), Reg::r(1)]), 1);
    }

    #[test]
    fn rz_never_conflicts() {
        assert_eq!(ffma_conflict_ways([Reg::RZ, Reg::RZ, Reg::RZ]), 1);
        assert_eq!(ffma_conflict_ways([Reg::r(1), Reg::RZ, Reg::r(9)]), 2);
    }

    #[test]
    fn census_counts() {
        let code = vec![
            ffma(1, 4, 5), // free
            ffma(1, 3, 5), // 2-way
            ffma(1, 3, 9), // 3-way
            ffma(2, 4, 7), // free
            Instruction::new(Op::Exit),
        ];
        let r = analyze_ffma_conflicts(&code);
        assert_eq!(r.total, 4);
        assert_eq!(r.free, 2);
        assert_eq!(r.two_way, 1);
        assert_eq!(r.three_way, 1);
        assert!((r.two_way_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn const_operand_ffma_uses_two_regs() {
        let inst = Instruction::new(Op::Ffma {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::Const {
                bank: 0,
                offset: 0x20,
            },
            c: Reg::r(9),
        });
        let r = analyze_ffma_conflicts(&[inst]);
        // R1 and R9 share odd0 -> 2-way even with a const operand.
        assert_eq!(r.two_way, 1);
    }

    #[test]
    fn report_display() {
        let r = ConflictReport {
            total: 10,
            free: 7,
            two_way: 2,
            three_way: 1,
        };
        let s = r.to_string();
        assert!(s.contains("70.0%"));
        assert!(s.contains("20.0%"));
    }
}
