//! Equations 6-9: the upper-bound model itself.

use std::fmt;

use peakperf_arch::{Generation, GpuConfig, LdsWidth};

use crate::constraints::{occupancy, SgemmConfig};
use crate::{ffma_lds_ratio, stride_is_valid};

/// Which bound limits the potential peak (Equation 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// SM instruction-processing throughput (Equation 8).
    SmThroughput,
    /// Global-memory bandwidth (Equation 6).
    MemoryBandwidth,
}

impl fmt::Display for Limiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Limiter::SmThroughput => f.write_str("SM throughput"),
            Limiter::MemoryBandwidth => f.write_str("memory bandwidth"),
        }
    }
}

/// An upper-bound estimate for one configuration.
#[derive(Debug, Clone)]
pub struct BoundEstimate {
    /// The configuration evaluated.
    pub config: SgemmConfig,
    /// Potential peak as a fraction of the theoretical peak (Equation 9).
    pub fraction_of_peak: f64,
    /// Potential peak in GFLOPS.
    pub gflops: f64,
    /// The SM-throughput bound alone, as a fraction of peak (Equation 8).
    pub sm_bound_fraction: f64,
    /// The memory-bandwidth bound alone, in GFLOPS (Equation 6).
    pub mem_bound_gflops: f64,
    /// Which bound is the minimum.
    pub limited_by: Limiter,
}

/// The performance upper-bound model (Section 4.5): architecture limits
/// plus the measured instruction throughputs of
/// [`UpperBoundModel::throughput_factor`].
#[derive(Debug, Clone)]
pub struct UpperBoundModel {
    gpu: GpuConfig,
}

impl UpperBoundModel {
    /// Build the model for a GPU.
    pub fn new(gpu: &GpuConfig) -> UpperBoundModel {
        UpperBoundModel { gpu: gpu.clone() }
    }

    /// The GPU this model describes.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The throughput factor `F_T` (Equation 7): the achievable mixed
    /// FFMA/LDS.X thread-instruction throughput divided by the SP
    /// processing throughput, for the optimistic conditions of the bound
    /// (saturating active threads, best measured efficiency).
    ///
    /// Its measured inputs are stated here and nowhere else, in thread
    /// instructions per shader cycle per SM: the FFMA peak (Table 2; on
    /// Kepler the scheduler/operand limit of 132, well below the 192 SPs),
    /// the issue peak, and the `LDS` rate per width (Section 4.1). A pipe
    /// model turns them into the ideal mixed throughput.
    ///
    /// The paper's Section 4.5 plugs in slightly more optimistic values
    /// than its own steady measurements (30.8 vs 30.4 on Fermi); we follow
    /// it: the ideal pipe model derated by the *bound* efficiency — Fermi
    /// 30.8/32, Kepler the measured 122.4/132 (LDS.64) and 119.9/132
    /// (LDS.128) points.
    pub fn throughput_factor(&self, config: &SgemmConfig) -> f64 {
        let (ffma_peak, issue_peak) = match self.gpu.generation {
            Generation::Gt200 => (8.0, 16.0),
            Generation::Fermi => (32.0, 32.0),
            Generation::Kepler => (132.0, 132.0),
        };
        let (lds_rate, derating) = match (self.gpu.generation, config.width) {
            (Generation::Gt200, LdsWidth::B32) => (8.0, 1.0),
            (Generation::Gt200, LdsWidth::B64) => (4.0, 1.0),
            (Generation::Gt200, LdsWidth::B128) => (1.0, 1.0),
            (Generation::Fermi, LdsWidth::B32) => (16.0, 30.8 / 32.0),
            (Generation::Fermi, LdsWidth::B64) => (8.0, 30.8 / 32.0),
            (Generation::Fermi, LdsWidth::B128) => (2.0, 30.8 / 32.0),
            (Generation::Kepler, LdsWidth::B32) => (33.1, 122.4 / 132.0),
            (Generation::Kepler, LdsWidth::B64) => (33.1, 122.4 / 132.0),
            (Generation::Kepler, LdsWidth::B128) => (16.55, 119.9 / 132.0),
        };
        let ratio = f64::from(ffma_lds_ratio(config.br, config.width).round() as u32);
        let group = ratio + 1.0;
        // Cycles consumed per group of (ratio FFMA + 1 LDS) warp insts,
        // normalized to thread instructions: each pipe processes at its peak.
        let ffma_cycles = ratio * 32.0 / ffma_peak;
        let lds_cycles = 32.0 / lds_rate;
        let issue_cycles = group * 32.0 / issue_peak;
        // The SP and LD/ST pipes drain in parallel; the group takes as long
        // as its most loaded resource (issue, SP, or LD/ST).
        let cycles = issue_cycles.max(ffma_cycles).max(lds_cycles);
        let ideal = group * 32.0 / cycles;
        ideal * derating / f64::from(self.gpu.sp_throughput_per_cycle())
    }

    /// The instruction factor `F_I` as plugged into Equation 8:
    /// `1 / width.words()` — 1 for LDS, 0.5 for LDS.64, 0.25 for LDS.128
    /// (Section 4.5 uses 0.5 for the Fermi configuration).
    pub fn instruction_factor(&self, config: &SgemmConfig) -> f64 {
        1.0 / f64::from(config.width.words())
    }

    /// Equation 8: the SM-processing-throughput bound as a fraction of the
    /// theoretical peak: `B_R² / (B_R² + 2·B_R·F_I) × F_T`.
    pub fn sm_bound_fraction(&self, config: &SgemmConfig) -> f64 {
        let br = f64::from(config.br);
        let fi = self.instruction_factor(config);
        let ft = self.throughput_factor(config);
        br * br / (br * br + 2.0 * br * fi) * ft
    }

    /// Equation 6: the memory-bandwidth bound in GFLOPS:
    /// `2·B_Sh² / (2·B_Sh·4)` flops per byte times the bandwidth.
    pub fn mem_bound_gflops(&self, config: &SgemmConfig) -> f64 {
        let bsh = f64::from(config.bsh());
        let flops_per_byte = 2.0 * bsh * bsh / (2.0 * bsh * 4.0);
        flops_per_byte * self.gpu.mem_bandwidth_gbps
    }

    /// Equation 9: the potential peak of a configuration — the minimum of
    /// the SM bound and the memory bound.
    ///
    /// Returns `None` when the configuration violates Equation 3 or does
    /// not fit on the SM at all (Equations 1, 4, 5).
    pub fn sgemm_bound(&self, config: &SgemmConfig) -> Option<BoundEstimate> {
        if !stride_is_valid(config) {
            return None;
        }
        occupancy(&self.gpu, config)?;
        let peak = self.gpu.theoretical_peak_gflops();
        let sm_fraction = self.sm_bound_fraction(config);
        let sm_gflops = sm_fraction * peak;
        let mem_gflops = self.mem_bound_gflops(config);
        let (gflops, limited_by) = if mem_gflops < sm_gflops {
            (mem_gflops, Limiter::MemoryBandwidth)
        } else {
            (sm_gflops, Limiter::SmThroughput)
        };
        Some(BoundEstimate {
            config: *config,
            fraction_of_peak: gflops / peak,
            gflops,
            sm_bound_fraction: sm_fraction,
            mem_bound_gflops: mem_gflops,
            limited_by,
        })
    }

    /// The best bound over the paper's candidate configurations — the
    /// headline numbers of Section 4.5 (82.5 % on Fermi with LDS.64,
    /// 57.6 % on Kepler with LDS.128).
    pub fn best_sgemm_bound(&self) -> BoundEstimate {
        crate::sweep(self)
            .into_iter()
            .map(|e| e.estimate)
            .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
            .expect("at least one feasible configuration exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_bound_is_82_5_percent() {
        let model = UpperBoundModel::new(&GpuConfig::gtx580());
        let est = model.sgemm_bound(&SgemmConfig::paper_fermi()).unwrap();
        // Paper: 36/42 * 30.8/32 = 82.5%.
        assert!(
            (est.fraction_of_peak - 0.825).abs() < 0.005,
            "got {}",
            est.fraction_of_peak
        );
        assert_eq!(est.limited_by, Limiter::SmThroughput);
    }

    #[test]
    fn kepler_bounds_match_section_4_5() {
        let model = UpperBoundModel::new(&GpuConfig::gtx680());
        let lds64 = model
            .sgemm_bound(&SgemmConfig {
                width: LdsWidth::B64,
                ..SgemmConfig::paper_kepler()
            })
            .unwrap();
        assert!(
            (lds64.fraction_of_peak - 0.546).abs() < 0.005,
            "LDS.64 got {}",
            lds64.fraction_of_peak
        );
        let lds128 = model.sgemm_bound(&SgemmConfig::paper_kepler()).unwrap();
        assert!(
            (lds128.fraction_of_peak - 0.576).abs() < 0.005,
            "LDS.128 got {}",
            lds128.fraction_of_peak
        );
    }

    #[test]
    fn both_cards_are_sm_bound_not_memory_bound() {
        // Section 4.5: "the performance is bounded by SMs' processing
        // throughput" on both GPUs.
        for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
            let model = UpperBoundModel::new(&gpu);
            let est = model.best_sgemm_bound();
            assert_eq!(est.limited_by, Limiter::SmThroughput, "{}", gpu.name);
        }
    }

    #[test]
    fn mem_bound_uses_equation_6() {
        let model = UpperBoundModel::new(&GpuConfig::gtx580());
        let cfg = SgemmConfig::paper_fermi();
        // BSh = 96 -> 24 flops/byte * 192.4 GB/s = 4617.6 GFLOPS.
        assert!((model.mem_bound_gflops(&cfg) - 4617.6).abs() < 1.0);
    }

    #[test]
    fn small_shared_tiles_would_be_memory_bound() {
        // Equation 6 at the formula level: a hypothetical BSh = 16 tile
        // yields 4 flops/byte * 192.4 GB/s = 769.6 GFLOPS, below the best
        // SM bound (~1304 GFLOPS) — blocking is what keeps SGEMM off the
        // bandwidth wall. (No *feasible* configuration of the sweep is
        // memory-bound, which is exactly the paper's conclusion.)
        let model = UpperBoundModel::new(&GpuConfig::gtx580());
        let tiny = SgemmConfig {
            br: 2,
            tb: 64,
            l: 16,
            width: LdsWidth::B64,
        };
        assert_eq!(tiny.bsh(), 16);
        let best_sm = model.best_sgemm_bound().gflops;
        assert!(model.mem_bound_gflops(&tiny) < best_sm);
    }

    #[test]
    fn invalid_stride_is_rejected() {
        let model = UpperBoundModel::new(&GpuConfig::gtx580());
        let cfg = SgemmConfig {
            l: 4,
            ..SgemmConfig::paper_fermi()
        };
        assert!(model.sgemm_bound(&cfg).is_none());
    }

    #[test]
    fn best_bounds_select_paper_configs() {
        let fermi = UpperBoundModel::new(&GpuConfig::gtx580());
        let best = fermi.best_sgemm_bound();
        assert_eq!(best.config.br, 6);
        assert!((best.fraction_of_peak - 0.825).abs() < 0.01);

        let kepler = UpperBoundModel::new(&GpuConfig::gtx680());
        let best = kepler.best_sgemm_bound();
        assert_eq!(best.config.br, 6);
        assert_eq!(best.config.width, LdsWidth::B128);
        assert!((best.fraction_of_peak - 0.576).abs() < 0.01);
    }
}
