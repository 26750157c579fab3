//! The modifiers, special registers and classes of the instruction set.

use peakperf_arch::LdsWidth;

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// 32-bit (one register).
    B32,
    /// 64-bit (an even-aligned register pair), e.g. `LDS.64`.
    B64,
    /// 128-bit (a quad-aligned register quartet), e.g. `LDS.128`.
    B128,
}

impl MemWidth {
    /// All widths, narrow to wide.
    pub const ALL: [MemWidth; 3] = [MemWidth::B32, MemWidth::B64, MemWidth::B128];

    /// Number of 32-bit registers transferred.
    pub fn words(self) -> u32 {
        match self {
            MemWidth::B32 => 1,
            MemWidth::B64 => 2,
            MemWidth::B128 => 4,
        }
    }

    /// Bytes transferred per thread.
    pub fn bytes(self) -> u32 {
        self.words() * 4
    }
}

impl From<LdsWidth> for MemWidth {
    fn from(w: LdsWidth) -> MemWidth {
        match w {
            LdsWidth::B32 => MemWidth::B32,
            LdsWidth::B64 => MemWidth::B64,
            LdsWidth::B128 => MemWidth::B128,
        }
    }
}

/// Address space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip global memory (`LD` / `ST`).
    Global,
    /// On-chip shared memory (`LDS` / `STS`).
    Shared,
    /// Per-thread local memory, used for register spills (`LDL` / `STL`).
    Local,
}

/// Integer comparison operator of `ISETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Less than (signed).
    Lt,
    /// Less than or equal (signed).
    Le,
    /// Greater than (signed).
    Gt,
    /// Greater than or equal (signed).
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// All comparison operators.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    /// Evaluate the comparison on signed 32-bit values.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// Bitwise operation of `LOP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
}

impl LogicOp {
    /// All operations, in encoding order.
    pub const ALL: [LogicOp; 3] = [LogicOp::And, LogicOp::Or, LogicOp::Xor];

    /// Evaluate the operation.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            LogicOp::And => a & b,
            LogicOp::Or => a | b,
            LogicOp::Xor => a ^ b,
        }
    }
}

/// Special (read-only) registers accessible through `S2R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within the block, x component.
    TidX,
    /// Thread index within the block, y component.
    TidY,
    /// Thread index within the block, z component.
    TidZ,
    /// Block index within the grid, x component.
    CtaidX,
    /// Block index within the grid, y component.
    CtaidY,
    /// Block index within the grid, z component.
    CtaidZ,
    /// Block dimension, x component.
    NtidX,
    /// Block dimension, y component.
    NtidY,
    /// Block dimension, z component.
    NtidZ,
    /// Grid dimension, x component.
    NctaidX,
    /// Grid dimension, y component.
    NctaidY,
    /// Lane index within the warp (0..32).
    LaneId,
}

impl SpecialReg {
    /// All special registers (used by the parser and property tests).
    pub const ALL: [SpecialReg; 12] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::TidZ,
        SpecialReg::CtaidX,
        SpecialReg::CtaidY,
        SpecialReg::CtaidZ,
        SpecialReg::NtidX,
        SpecialReg::NtidY,
        SpecialReg::NtidZ,
        SpecialReg::NctaidX,
        SpecialReg::NctaidY,
        SpecialReg::LaneId,
    ];

    /// Assembly name (e.g. `SR_TID.X`).
    pub fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "SR_TID.X",
            SpecialReg::TidY => "SR_TID.Y",
            SpecialReg::TidZ => "SR_TID.Z",
            SpecialReg::CtaidX => "SR_CTAID.X",
            SpecialReg::CtaidY => "SR_CTAID.Y",
            SpecialReg::CtaidZ => "SR_CTAID.Z",
            SpecialReg::NtidX => "SR_NTID.X",
            SpecialReg::NtidY => "SR_NTID.Y",
            SpecialReg::NtidZ => "SR_NTID.Z",
            SpecialReg::NctaidX => "SR_NCTAID.X",
            SpecialReg::NctaidY => "SR_NCTAID.Y",
            SpecialReg::LaneId => "SR_LANEID",
        }
    }
}

/// Functional class of an operation, used by the timing model and the
/// statistics counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-precision floating point (SP pipe).
    Fp32,
    /// 32-bit integer ALU (SP pipe, possibly derated).
    Int,
    /// Integer multiply path (quarter rate on Kepler).
    IntMul,
    /// Register moves, special-register and constant reads.
    Move,
    /// Loads/stores (LD/ST pipe).
    Mem(MemSpace),
    /// Control flow and no-ops.
    Ctrl,
    /// Block-wide barrier.
    Barrier,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_width_matches_arch() {
        for w in LdsWidth::ALL {
            assert_eq!(MemWidth::from(w).bytes(), w.bytes());
        }
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(-1, 0));
        assert!(!CmpOp::Gt.eval(-1, 0));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Ge.eval(3, 3));
    }
}
