//! General-purpose registers and predicate registers.

use std::fmt;

use peakperf_arch::{register_bank, RegisterBank};

use crate::text::Text;
use crate::SassError;

/// A general-purpose 32-bit register.
///
/// Indices `0..=62` are real registers; index 63 is `RZ`, the hardwired zero
/// register (reads return 0, writes are discarded). The 6-bit encoding field
/// is what creates the Fermi/GK104 limit of 63 usable registers per thread
/// (Section 2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired zero register.
    pub const RZ: Reg = Reg(63);

    /// Highest usable general-purpose register index (`R62`).
    pub const MAX_INDEX: u8 = 62;

    /// Create a register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`SassError::RegisterOutOfRange`] for indices above 63.
    /// Index 63 yields [`Reg::RZ`].
    pub fn new(index: u8) -> Result<Reg, SassError> {
        if index > 63 {
            Err(SassError::RegisterOutOfRange { index })
        } else {
            Ok(Reg(index))
        }
    }

    /// Create a register, panicking on out-of-range indices.
    ///
    /// Convenience for generator code with static indices.
    ///
    /// # Panics
    ///
    /// Panics if `index > 63`.
    // The panic is this constructor's documented contract for static
    // indices; fallible callers use `Reg::new`.
    #[allow(clippy::expect_used)]
    pub fn r(index: u8) -> Reg {
        Reg::new(index).expect("register index out of range")
    }

    /// The register index (63 for `RZ`).
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired zero register.
    pub fn is_rz(self) -> bool {
        self.0 == 63
    }

    /// The Kepler register-file bank this register lives in (Section 3.3).
    ///
    /// `RZ` is materialized in the operand collector and occupies no bank
    /// bandwidth, but the mapping is still defined for it.
    pub fn bank(self) -> RegisterBank {
        register_bank(self.0)
    }

    /// The register `offset` slots above this one: `None` past the
    /// register file, `Some(RZ)` when the slot lands on index 63. Total, so
    /// code that handles arbitrary (possibly invalid) kernels — validators,
    /// simulators, fuzzers — never panics on a wide access near `RZ`.
    pub fn offset_checked(self, offset: u8) -> Option<Reg> {
        self.0.checked_add(offset).and_then(|i| Reg::new(i).ok())
    }

    /// Whether the register index is aligned for a memory access of
    /// `words` 32-bit words (LDS.64 needs even registers, LDS.128 needs
    /// quad-aligned registers).
    pub fn is_aligned_for(self, words: u32) -> bool {
        match words {
            1 => true,
            2 => self.0.is_multiple_of(2),
            4 => self.0.is_multiple_of(4),
            _ => false,
        }
    }
}

impl Reg {
    pub(crate) fn show(self, t: &mut Text<'_, '_>) -> fmt::Result {
        if self.is_rz() {
            t.str("RZ")
        } else {
            t.str("R")?;
            t.digits::<10>(self.0.into(), 1)
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Text::show(f, |t| self.show(t))
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A predicate register.
///
/// `P0..=P6` are real predicates; `PT` (index 7) is the hardwired true
/// predicate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(u8);

impl Pred {
    /// The hardwired true predicate.
    pub const PT: Pred = Pred(7);

    /// Create a predicate register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`SassError::PredicateOutOfRange`] for indices above 7.
    pub fn new(index: u8) -> Result<Pred, SassError> {
        if index > 7 {
            Err(SassError::PredicateOutOfRange { index })
        } else {
            Ok(Pred(index))
        }
    }

    /// Create a predicate register, panicking on out-of-range indices.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    // The panic is this constructor's documented contract for static
    // indices; fallible callers use `Pred::new`.
    #[allow(clippy::expect_used)]
    pub fn p(index: u8) -> Pred {
        Pred::new(index).expect("predicate index out of range")
    }

    /// The predicate index (7 for `PT`).
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired true predicate.
    pub fn is_pt(self) -> bool {
        self.0 == 7
    }
}

impl Pred {
    pub(crate) fn show(self, t: &mut Text<'_, '_>) -> fmt::Result {
        if self.is_pt() {
            t.str("PT")
        } else {
            t.str("P")?;
            t.digits::<10>(self.0.into(), 1)
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Text::show(f, |t| self.show(t))
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_limits() {
        assert!(Reg::new(62).is_ok());
        assert_eq!(Reg::new(63).unwrap(), Reg::RZ);
        assert!(Reg::new(64).is_err());
        assert!(Pred::new(7).is_ok());
        assert!(Pred::new(8).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Reg::r(5).to_string(), "R5");
        assert_eq!(Reg::RZ.to_string(), "RZ");
        assert_eq!(Pred::p(2).to_string(), "P2");
        assert_eq!(Pred::PT.to_string(), "PT");
    }

    #[test]
    fn alignment() {
        assert!(Reg::r(4).is_aligned_for(4));
        assert!(Reg::r(6).is_aligned_for(2));
        assert!(!Reg::r(6).is_aligned_for(4));
        assert!(!Reg::r(3).is_aligned_for(2));
        assert!(Reg::r(3).is_aligned_for(1));
    }

    #[test]
    fn bank_delegates_to_arch() {
        assert_eq!(Reg::r(4).bank(), register_bank(4));
    }

    #[test]
    fn offset_checked_is_total() {
        assert_eq!(Reg::r(10).offset_checked(2), Some(Reg::r(12)));
        assert_eq!(Reg::r(62).offset_checked(1), Some(Reg::RZ));
        assert_eq!(Reg::RZ.offset_checked(0), Some(Reg::RZ));
        assert_eq!(Reg::r(62).offset_checked(2), None);
        assert_eq!(Reg::RZ.offset_checked(255), None);
    }
}
