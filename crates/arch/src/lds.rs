//! Shared-memory load widths.

/// Width of an `LDS` shared-memory load instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LdsWidth {
    /// `LDS` — one 32-bit word per thread.
    B32,
    /// `LDS.64` — two consecutive 32-bit words per thread.
    B64,
    /// `LDS.128` — four consecutive 32-bit words per thread.
    B128,
}

impl LdsWidth {
    /// All widths, narrow to wide.
    pub const ALL: [LdsWidth; 3] = [LdsWidth::B32, LdsWidth::B64, LdsWidth::B128];

    /// Bytes moved per thread by one instruction.
    pub fn bytes(self) -> u32 {
        match self {
            LdsWidth::B32 => 4,
            LdsWidth::B64 => 8,
            LdsWidth::B128 => 16,
        }
    }

    /// Number of 32-bit registers written per thread.
    pub fn words(self) -> u32 {
        self.bytes() / 4
    }

    /// The assembly suffix (`""`, `".64"`, `".128"`).
    pub fn suffix(self) -> &'static str {
        match self {
            LdsWidth::B32 => "",
            LdsWidth::B64 => ".64",
            LdsWidth::B128 => ".128",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lds_width_properties() {
        assert_eq!(LdsWidth::B32.bytes(), 4);
        assert_eq!(LdsWidth::B64.words(), 2);
        assert_eq!(LdsWidth::B128.suffix(), ".128");
    }
}
