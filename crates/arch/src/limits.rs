//! Occupancy calculation: how many blocks/threads an SM can keep resident.
//!
//! This implements Equations 1 and 5 of the paper: the register budget of the
//! active warps cannot exceed the SM's register file, and the shared memory
//! of the active blocks cannot exceed the SM's shared memory.

use std::fmt;

use crate::GpuConfig;
use crate::WARP_SIZE;

/// Thread-block shape, up to 3 dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockShape {
    /// Threads along x.
    pub x: u32,
    /// Threads along y.
    pub y: u32,
    /// Threads along z.
    pub z: u32,
}

impl BlockShape {
    /// A 1-D block.
    pub fn new_1d(x: u32) -> BlockShape {
        BlockShape { x, y: 1, z: 1 }
    }

    /// A 2-D block.
    pub fn new_2d(x: u32, y: u32) -> BlockShape {
        BlockShape { x, y, z: 1 }
    }

    /// Total threads in the block.
    pub fn threads(&self) -> u32 {
        self.x * self.y * self.z
    }

    /// Number of warps the block occupies (rounded up).
    pub fn warps(&self) -> u32 {
        self.threads().div_ceil(WARP_SIZE)
    }
}

impl fmt::Display for BlockShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// The per-SM resource limits of a GPU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyLimits {
    registers_per_sm: u32,
    shared_mem_per_sm: u32,
    max_threads_per_sm: u32,
    max_blocks_per_sm: u32,
    max_threads_per_block: u32,
    max_registers_per_thread: u32,
}

/// The outcome of an occupancy query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyResult {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident threads per SM.
    pub threads_per_sm: u32,
    /// The resource that bounds occupancy.
    pub limiter: OccupancyLimiter,
}

/// Which resource capped the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OccupancyLimiter {
    /// Register file capacity (Equation 1).
    Registers,
    /// Shared memory capacity (Equation 5).
    SharedMemory,
    /// Hardware thread/CTA limits.
    Hardware,
}

impl fmt::Display for OccupancyLimiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OccupancyLimiter::Registers => "registers",
            OccupancyLimiter::SharedMemory => "shared memory",
            OccupancyLimiter::Hardware => "hardware limits",
        };
        f.write_str(s)
    }
}

impl OccupancyLimits {
    /// Extract the limits from a GPU configuration.
    pub fn new(config: &GpuConfig) -> OccupancyLimits {
        OccupancyLimits {
            registers_per_sm: config.registers_per_sm,
            shared_mem_per_sm: config.shared_mem_per_sm,
            max_threads_per_sm: config.max_threads_per_sm,
            max_blocks_per_sm: config.max_blocks_per_sm,
            max_threads_per_block: config.max_threads_per_block,
            max_registers_per_thread: config.generation.max_registers_per_thread(),
        }
    }

    /// Resident blocks/threads per SM for a kernel with the given per-thread
    /// register count, per-block shared memory, and block size.
    ///
    /// Returns `None` if a single block already exceeds some resource
    /// (including the per-thread register encoding limit).
    pub fn occupancy(
        &self,
        regs_per_thread: u32,
        shared_bytes_per_block: u32,
        threads_per_block: u32,
    ) -> Option<OccupancyResult> {
        if threads_per_block == 0
            || threads_per_block > self.max_threads_per_block
            || regs_per_thread > self.max_registers_per_thread
            || shared_bytes_per_block > self.shared_mem_per_sm
        {
            return None;
        }
        let by_regs = if regs_per_thread == 0 {
            u32::MAX
        } else {
            self.registers_per_sm / (regs_per_thread * threads_per_block)
        };
        let by_smem = self
            .shared_mem_per_sm
            .checked_div(shared_bytes_per_block)
            .unwrap_or(u32::MAX);
        let by_threads = self.max_threads_per_sm / threads_per_block;
        let by_hw = by_threads.min(self.max_blocks_per_sm);

        let blocks = by_regs.min(by_smem).min(by_hw);
        if blocks == 0 {
            return None;
        }
        let limiter = if blocks == by_regs && by_regs <= by_smem && by_regs <= by_hw {
            OccupancyLimiter::Registers
        } else if blocks == by_smem && by_smem <= by_hw {
            OccupancyLimiter::SharedMemory
        } else {
            OccupancyLimiter::Hardware
        };
        Some(OccupancyResult {
            blocks_per_sm: blocks,
            threads_per_sm: blocks * threads_per_block,
            limiter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fermi_limits() -> OccupancyLimits {
        OccupancyLimits::new(&GpuConfig::gtx580())
    }

    fn kepler_limits() -> OccupancyLimits {
        OccupancyLimits::new(&GpuConfig::gtx680())
    }

    #[test]
    fn block_shape_warps() {
        assert_eq!(BlockShape::new_1d(256).warps(), 8);
        assert_eq!(BlockShape::new_2d(16, 16).threads(), 256);
        assert_eq!(BlockShape::new_1d(33).warps(), 2);
        assert_eq!(BlockShape::new_1d(1024).warps(), 32);
    }

    #[test]
    fn fermi_sgemm_occupancy_matches_paper() {
        // Section 4.5: with 63 registers/thread the Fermi register file
        // (32K regs) supports up to 512 threads per SM: with 256-thread
        // blocks and 12 KiB shared (A+B tiles, 96x16 floats each), two
        // blocks resident, register-bound.
        let occ = fermi_limits().occupancy(63, 12 * 1024, 256).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.threads_per_sm, 512);
        assert_eq!(occ.limiter, OccupancyLimiter::Registers);
    }

    #[test]
    fn kepler_sgemm_occupancy_matches_paper() {
        // Section 4.5: 64K registers per SMX support 1024 active threads at
        // 63 registers each.
        let occ = kepler_limits().occupancy(63, 12 * 1024, 256).unwrap();
        assert_eq!(occ.blocks_per_sm, 4);
        assert_eq!(occ.threads_per_sm, 1024);
    }

    #[test]
    fn shared_memory_can_be_the_limiter() {
        // 25 KiB per block -> only one block fits in 48 KiB.
        let occ = fermi_limits().occupancy(20, 25 * 1024, 256).unwrap();
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limiter, OccupancyLimiter::SharedMemory);
    }

    #[test]
    fn hardware_limit_applies() {
        let occ = fermi_limits().occupancy(10, 0, 32).unwrap();
        assert_eq!(occ.blocks_per_sm, 8); // max_blocks_per_sm
        assert_eq!(occ.limiter, OccupancyLimiter::Hardware);
    }

    #[test]
    fn over_limit_kernels_are_rejected() {
        assert!(fermi_limits().occupancy(64, 0, 256).is_none()); // >63 regs
        assert!(fermi_limits().occupancy(32, 49 * 1024, 256).is_none());
        assert!(fermi_limits().occupancy(32, 0, 2048).is_none());
        assert!(fermi_limits().occupancy(32, 0, 0).is_none());
    }
}
