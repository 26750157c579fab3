//! Concrete GPU configurations (the cards used in the paper).

use crate::{Generation, OccupancyLimits};

/// A concrete GPU configuration: one row of Table 1, plus the derived
/// quantities the upper-bound analysis and the simulator need.
///
/// Constructors are provided for the three cards of the study
/// ([`GpuConfig::gtx280`], [`GpuConfig::gtx580`], [`GpuConfig::gtx680`]); the
/// fields are public so that "what-if" configurations can be derived by
/// mutation (e.g. to sweep scheduler counts in ablation benches).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Marketing name of the card (e.g. `"GTX580"`).
    pub name: &'static str,
    /// Architecture generation.
    pub generation: Generation,
    /// Core (scheduler) clock in MHz.
    pub core_clock_mhz: f64,
    /// Shader clock in MHz. On Kepler this equals the core clock; the paper
    /// keeps the term so that all throughputs are in shader cycles.
    pub shader_clock_mhz: f64,
    /// Boost clock in MHz, used by the paper to convert Kepler measurements
    /// (GTX680 boost = 1058 MHz). Equal to the shader clock when the card
    /// has no boost.
    pub boost_clock_mhz: f64,
    /// Global memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Number of SMs (SMX on Kepler).
    pub num_sms: u32,
    /// Warp schedulers per SM.
    pub warp_schedulers_per_sm: u32,
    /// Dispatch units per SM.
    pub dispatch_units_per_sm: u32,
    /// Streaming processors (CUDA cores) per SM.
    pub sps_per_sm: u32,
    /// Load/store units per SM.
    pub ldst_units_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum resident threads per SM (hardware limit, independent of
    /// register/shared-memory pressure).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
}

impl GpuConfig {
    /// GTX280 (GT200), the historical comparison point of Table 1.
    pub fn gtx280() -> GpuConfig {
        GpuConfig {
            name: "GTX280",
            generation: Generation::Gt200,
            core_clock_mhz: 602.0,
            shader_clock_mhz: 1296.0,
            boost_clock_mhz: 1296.0,
            mem_bandwidth_gbps: 141.7,
            num_sms: 30,
            warp_schedulers_per_sm: 1,
            dispatch_units_per_sm: 1,
            sps_per_sm: 8,
            ldst_units_per_sm: 8, // "unknown" in Table 1; modeled as 8
            shared_mem_per_sm: 16 * 1024,
            registers_per_sm: 16 * 1024,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            max_threads_per_block: 512,
        }
    }

    /// GTX580 (Fermi GF110), the primary Fermi target of the paper.
    pub fn gtx580() -> GpuConfig {
        GpuConfig {
            name: "GTX580",
            generation: Generation::Fermi,
            core_clock_mhz: 772.0,
            shader_clock_mhz: 1544.0,
            boost_clock_mhz: 1544.0,
            mem_bandwidth_gbps: 192.4,
            num_sms: 16,
            warp_schedulers_per_sm: 2,
            dispatch_units_per_sm: 2,
            sps_per_sm: 32,
            ldst_units_per_sm: 16,
            shared_mem_per_sm: 48 * 1024,
            registers_per_sm: 32 * 1024,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
        }
    }

    /// GTX680 (Kepler GK104), the primary Kepler target of the paper.
    pub fn gtx680() -> GpuConfig {
        GpuConfig {
            name: "GTX680",
            generation: Generation::Kepler,
            core_clock_mhz: 1006.0,
            shader_clock_mhz: 1006.0,
            boost_clock_mhz: 1058.0,
            mem_bandwidth_gbps: 192.26,
            num_sms: 8,
            warp_schedulers_per_sm: 4,
            dispatch_units_per_sm: 8,
            sps_per_sm: 192,
            ldst_units_per_sm: 32,
            shared_mem_per_sm: 48 * 1024,
            registers_per_sm: 64 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
        }
    }

    /// The preset for a generation (the card the paper used for it).
    pub fn preset(generation: Generation) -> GpuConfig {
        match generation {
            Generation::Gt200 => GpuConfig::gtx280(),
            Generation::Fermi => GpuConfig::gtx580(),
            Generation::Kepler => GpuConfig::gtx680(),
        }
    }

    /// Theoretical single-precision peak in GFLOPS.
    ///
    /// Every SP retires one FFMA (2 flops) per shader cycle; on GT200 the
    /// marketing peak additionally counts the dual-issued MUL in the SFU
    /// path (3 flops per SP-cycle), which is how Table 1 arrives at 933
    /// GFLOPS for the GTX280. Matches the last row of Table 1
    /// (933 / 1581 / 3090).
    pub fn theoretical_peak_gflops(&self) -> f64 {
        let flops_per_sp = match self.generation {
            Generation::Gt200 => 3,
            Generation::Fermi | Generation::Kepler => 2,
        };
        let flops_per_cycle = f64::from(self.num_sms * self.sps_per_sm * flops_per_sp);
        flops_per_cycle * self.shader_clock_mhz / 1000.0
    }

    /// SP thread-instruction processing throughput per shader cycle per SM
    /// (Table 1 row "SP Thread Instruction processing throughput").
    pub fn sp_throughput_per_cycle(&self) -> u32 {
        self.sps_per_sm
    }

    /// Thread-instruction *issue* throughput per shader cycle per SM
    /// (Table 1). GT200's single scheduler issues one warp instruction per
    /// core cycle = 16 thread instructions per shader cycle; Fermi's two
    /// schedulers sustain 32; Kepler's claimed figure is 128 (marked `?` in
    /// the paper — the measured effective limit, Table 2's 132, is what the
    /// upper-bound model uses).
    pub fn issue_throughput_per_cycle(&self) -> u32 {
        match self.generation {
            Generation::Gt200 => 16,
            Generation::Fermi => 32,
            Generation::Kepler => 128,
        }
    }

    /// Global memory bandwidth expressed in bytes per shader cycle for the
    /// whole GPU.
    pub fn mem_bytes_per_cycle(&self) -> f64 {
        self.mem_bandwidth_gbps * 1.0e9 / (self.shader_clock_mhz * 1.0e6)
    }

    /// Global memory bandwidth share of one SM, in bytes per shader cycle.
    pub fn mem_bytes_per_cycle_per_sm(&self) -> f64 {
        self.mem_bytes_per_cycle() / f64::from(self.num_sms)
    }

    /// The occupancy calculator for this configuration.
    pub fn occupancy(&self) -> OccupancyLimits {
        OccupancyLimits::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_peaks_match_table1() {
        assert!((GpuConfig::gtx280().theoretical_peak_gflops() - 933.0).abs() < 15.0);
        assert!((GpuConfig::gtx580().theoretical_peak_gflops() - 1581.0).abs() < 1.0);
        assert!((GpuConfig::gtx680().theoretical_peak_gflops() - 3090.0).abs() < 1.0);
    }

    #[test]
    fn kepler_unified_clock() {
        let k = GpuConfig::gtx680();
        assert_eq!(k.core_clock_mhz, k.shader_clock_mhz);
        let f = GpuConfig::gtx580();
        assert_eq!(f.shader_clock_mhz, 2.0 * f.core_clock_mhz);
    }

    #[test]
    fn memory_bandwidth_per_cycle() {
        let f = GpuConfig::gtx580();
        // 192.4 GB/s at 1544 MHz = ~124.6 B/cycle for the GPU.
        assert!((f.mem_bytes_per_cycle() - 124.6).abs() < 0.5);
        assert!((f.mem_bytes_per_cycle_per_sm() - 7.79).abs() < 0.05);
    }

    #[test]
    fn preset_lookup() {
        for gen in Generation::ALL {
            assert_eq!(GpuConfig::preset(gen).generation, gen);
        }
    }

    #[test]
    fn issue_vs_sp_throughput_relationship() {
        // GT200: issue (16) > SP (8) -> free issue slots for auxiliary work.
        let g = GpuConfig::gtx280();
        assert!(g.issue_throughput_per_cycle() > g.sp_throughput_per_cycle());
        // Fermi: issue (32) == SP (32) -> every auxiliary instruction steals
        // an FFMA slot, the central observation of Section 4.2.
        let f = GpuConfig::gtx580();
        assert_eq!(f.issue_throughput_per_cycle(), f.sp_throughput_per_cycle());
        // Kepler: claimed issue (128) < SP (192) -> cannot even theoretically
        // saturate the SPs with one-instruction-per-thread streams.
        let k = GpuConfig::gtx680();
        assert!(k.issue_throughput_per_cycle() < k.sp_throughput_per_cycle());
    }
}
