//! GPU generations covered by the study.

use std::fmt;
use std::str::FromStr;

/// The three NVIDIA GPU generations compared in Table 1 of the paper.
///
/// `Gt200` is only used as a historical comparison point (its scheduler can
/// over-issue relative to the SPs); the analysis and the SGEMM kernels target
/// `Fermi` (GF110, e.g. GTX580) and `Kepler` (GK104, e.g. GTX680).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Generation {
    /// GT200 (e.g. GTX280): 8 SPs/SM, one warp scheduler, hot-clock shaders.
    Gt200,
    /// Fermi GF110 (e.g. GTX580): 32 SPs/SM, 2 schedulers, hot-clock shaders.
    Fermi,
    /// Kepler GK104 (e.g. GTX680): 192 SPs/SMX, 4 schedulers, unified clock.
    Kepler,
}

impl Generation {
    /// All generations, in chronological order.
    pub const ALL: [Generation; 3] = [Generation::Gt200, Generation::Fermi, Generation::Kepler];

    /// Hard limit on registers per thread imposed by the instruction
    /// encoding (Section 2: 6 bits per register operand on Fermi/GK104,
    /// 7 bits on GT200).
    pub fn max_registers_per_thread(self) -> u32 {
        match self {
            Generation::Gt200 => 127,
            Generation::Fermi | Generation::Kepler => 63,
        }
    }

    /// Whether the binary format requires control-notation words
    /// (one per group of 7 instructions; Kepler only, Section 3.2).
    pub fn uses_control_notation(self) -> bool {
        matches!(self, Generation::Kepler)
    }

    /// Maximum static shared memory per block, in bytes (16 KB on GT200;
    /// 48 KB of the 64 KB unified array on Fermi/Kepler, Section 5.5).
    pub fn max_shared_bytes_per_block(self) -> u32 {
        match self {
            Generation::Gt200 => 16 * 1024,
            Generation::Fermi | Generation::Kepler => 48 * 1024,
        }
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Generation::Gt200 => "GT200",
            Generation::Fermi => "Fermi",
            Generation::Kepler => "Kepler",
        };
        f.write_str(name)
    }
}

/// Error returned when parsing a [`Generation`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGenerationError(String);

impl fmt::Display for ParseGenerationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown GPU generation `{}`", self.0)
    }
}

impl std::error::Error for ParseGenerationError {}

impl FromStr for Generation {
    type Err = ParseGenerationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gt200" | "sm_13" | "gtx280" => Ok(Generation::Gt200),
            "fermi" | "sm_20" | "gf110" | "gtx580" => Ok(Generation::Fermi),
            "kepler" | "sm_30" | "gk104" | "gtx680" => Ok(Generation::Kepler),
            other => Err(ParseGenerationError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_limits_match_paper() {
        assert_eq!(Generation::Gt200.max_registers_per_thread(), 127);
        assert_eq!(Generation::Fermi.max_registers_per_thread(), 63);
        assert_eq!(Generation::Kepler.max_registers_per_thread(), 63);
    }

    #[test]
    fn only_kepler_has_control_notation() {
        assert!(!Generation::Fermi.uses_control_notation());
        assert!(Generation::Kepler.uses_control_notation());
    }

    #[test]
    fn parse_round_trips() {
        for gen in Generation::ALL {
            let parsed: Generation = gen.to_string().parse().unwrap();
            assert_eq!(parsed, gen);
        }
        assert_eq!("gtx680".parse::<Generation>().unwrap(), Generation::Kepler);
        assert!("voodoo2".parse::<Generation>().is_err());
    }
}
