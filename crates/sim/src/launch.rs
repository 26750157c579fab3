//! Grid/block launch geometry, and the launch check both engines make.

use std::fmt;

use peakperf_arch::{GpuConfig, WARP_SIZE};
use peakperf_sass::{validate_kernel, Kernel};

use crate::SimError;

/// A 3-component dimension (grid or block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// x extent.
    pub x: u32,
    /// y extent.
    pub y: u32,
    /// z extent.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D dimension.
    pub fn new_1d(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D dimension.
    pub fn new_2d(x: u32, y: u32) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Launch configuration: grid and block dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: Dim3,
    /// Threads in a block.
    pub block: Dim3,
}

impl LaunchConfig {
    /// A 1-D grid of 1-D blocks.
    pub fn linear(blocks: u32, threads_per_block: u32) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::new_1d(blocks),
            block: Dim3::new_1d(threads_per_block),
        }
    }

    /// A 2-D grid of 2-D blocks.
    pub fn grid_2d(gx: u32, gy: u32, bx: u32, by: u32) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::new_2d(gx, gy),
            block: Dim3::new_2d(bx, by),
        }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        (self.block.count()).min(u64::from(u32::MAX)) as u32
    }

    /// Warps per block (rounded up).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(WARP_SIZE)
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.total_blocks() * u64::from(self.threads_per_block())
    }
}

impl fmt::Display for LaunchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grid {} block {}", self.grid, self.block)
    }
}

/// What [`crate::Gpu::launch`] and [`crate::timing::TimingSim::new`] both
/// check before running anything: the kernel validates for `gpu`'s
/// generation, `params` has one value per kernel parameter, and a block
/// holds between 1 and `gpu`'s Table 1 `max_threads_per_block` threads
/// (1024 on Fermi and Kepler).
pub(crate) fn check_launch(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
    params: &[u32],
) -> Result<(), SimError> {
    validate_kernel(kernel, gpu.generation)?;
    if params.len() != kernel.params.len() {
        return Err(SimError::Launch {
            message: format!(
                "kernel `{}` expects {} parameters, got {}",
                kernel.name,
                kernel.params.len(),
                params.len()
            ),
        });
    }
    let (threads, max) = (config.threads_per_block(), gpu.max_threads_per_block);
    if threads == 0 || threads > max {
        return Err(SimError::Launch {
            message: format!("block size {threads} out of range 1..={max}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_geometry() {
        let cfg = LaunchConfig::linear(10, 256);
        assert_eq!(cfg.threads_per_block(), 256);
        assert_eq!(cfg.warps_per_block(), 8);
        assert_eq!(cfg.total_blocks(), 10);
        assert_eq!(cfg.total_threads(), 2560);
    }

    #[test]
    fn two_d_geometry() {
        let cfg = LaunchConfig::grid_2d(4, 3, 16, 16);
        assert_eq!(cfg.threads_per_block(), 256);
        assert_eq!(cfg.total_blocks(), 12);
    }

    #[test]
    fn partial_warp_rounds_up() {
        let cfg = LaunchConfig::linear(1, 33);
        assert_eq!(cfg.warps_per_block(), 2);
    }
}
