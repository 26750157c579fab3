//! The paper's published reference numbers, used by the benchmark harness
//! to print paper-vs-reproduced comparisons (EXPERIMENTS.md).

use peakperf_arch::Generation;

/// Reference results quoted in the paper for one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperNumbers {
    /// The GPU generation.
    pub generation: Generation,
    /// Theoretical peak, GFLOPS (Table 1).
    pub theoretical_peak_gflops: f64,
    /// Estimated upper bound as a fraction of the theoretical peak
    /// (Section 4.5).
    pub upper_bound_fraction: f64,
    /// Achieved performance of the paper's assembly SGEMM as a fraction of
    /// the theoretical peak (Section 5: 74.2 % on Fermi; on Kepler 77.3 %
    /// of the bound ≈ 44.5 % of peak).
    pub achieved_fraction: f64,
    /// CUBLAS performance as a fraction of the theoretical peak
    /// (Section 1: ~70 % on Fermi with CUDA 4.1, ~42 % on Kepler with 4.2).
    pub cublas_fraction: f64,
}

/// The paper's reference numbers for a generation.
///
/// # Panics
///
/// Panics for [`Generation::Gt200`], which the paper does not evaluate.
pub fn paper_reference(generation: Generation) -> PaperNumbers {
    match generation {
        Generation::Fermi => PaperNumbers {
            generation,
            theoretical_peak_gflops: 1581.0,
            upper_bound_fraction: 0.825,
            achieved_fraction: 0.742,
            cublas_fraction: 0.70,
        },
        Generation::Kepler => PaperNumbers {
            generation,
            theoretical_peak_gflops: 3090.0,
            upper_bound_fraction: 0.576,
            achieved_fraction: 0.576 * 0.773,
            cublas_fraction: 0.42,
        },
        Generation::Gt200 => panic!("the paper does not evaluate SGEMM on GT200"),
    }
}

impl PaperNumbers {
    /// Achieved performance as a fraction of the estimated bound
    /// (~90 % on Fermi, 77.3 % on Kepler — Section 5).
    pub fn achieved_fraction_of_bound(&self) -> f64 {
        self.achieved_fraction / self.upper_bound_fraction
    }

    /// Achieved GFLOPS.
    pub fn achieved_gflops(&self) -> f64 {
        self.achieved_fraction * self.theoretical_peak_gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_reference_is_consistent() {
        let p = paper_reference(Generation::Fermi);
        // ~90% of the estimated bound (Section 5).
        assert!((p.achieved_fraction_of_bound() - 0.90).abs() < 0.01);
        // ~1173 GFLOPS achieved on GTX580.
        assert!((p.achieved_gflops() - 1173.0).abs() < 5.0);
    }

    #[test]
    fn kepler_reference_is_consistent() {
        let p = paper_reference(Generation::Kepler);
        assert!((p.achieved_fraction_of_bound() - 0.773).abs() < 0.001);
        // ~1376 GFLOPS achieved on GTX680 (~1300 for NN in Section 5.4).
        assert!(p.achieved_gflops() > 1300.0 && p.achieved_gflops() < 1450.0);
    }

    #[test]
    #[should_panic(expected = "GT200")]
    fn gt200_has_no_reference() {
        let _ = paper_reference(Generation::Gt200);
    }
}
