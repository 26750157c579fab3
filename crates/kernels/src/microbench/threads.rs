//! Active-thread sweep with dependent/independent operands (Figure 4).
//!
//! The mix is fixed at 6 FFMA : 1 LDS.64 (the SGEMM main-loop ratio). In
//! the *independent* case all seven instructions are independent; in the
//! *dependent* case the six FFMAs read the LDS.64 destination pair —
//! which is what the real SGEMM main loop does, and what makes Kepler
//! hungry for more than 1024 active threads.

use peakperf_arch::{Generation, GpuConfig};
use peakperf_sass::{
    CmpOp, CtlInfo, Kernel, KernelBuilder, MemSpace, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use peakperf_sim::SimError;

use super::run_on_sm;

/// Operand dependence mode of the 6:1 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dependence {
    /// All instructions independent.
    Independent,
    /// The 6 FFMAs consume the LDS.64 result.
    Dependent,
}

impl Dependence {
    /// Label used in Figure 4.
    pub fn name(self) -> &'static str {
        match self {
            Dependence::Independent => "independent",
            Dependence::Dependent => "dependent",
        }
    }
}

/// Build the 6:1 FFMA/LDS.64 kernel in one of the two dependence modes.
///
/// # Errors
///
/// Propagates builder failures.
pub fn build_threads_kernel(
    generation: Generation,
    dep: Dependence,
    groups: u32,
    iters: u32,
) -> Result<Kernel, SimError> {
    let mut b = KernelBuilder::new(format!("active_{}", dep.name()), generation);
    b.shared_bytes(1024 * 8);
    // Accumulators avoid the banks of their other sources: in the
    // independent case the sources are R1 (odd0) and R4 (even1), so the
    // accumulators live on even0/odd1; in the dependent case the sources
    // are the LDS pair R20 (even1) / R21 (odd1), so they live on
    // even0/odd0.
    const ACCS_IND: [u8; 6] = [8, 13, 10, 15, 24, 29];
    const ACCS_DEP: [u8; 6] = [8, 9, 10, 11, 24, 25];
    for i in 0..8u8 {
        b.mov_f32(Reg::r(i), 0.25 + f32::from(i));
    }
    for &acc in ACCS_IND.iter().chain(ACCS_DEP.iter()) {
        b.mov_f32(Reg::r(acc), 0.5);
    }
    let addr = Reg::r(16);
    b.s2r(addr, SpecialReg::TidX);
    b.imul(addr, addr, 8);
    let counter = Reg::r(17);
    b.mov32i(counter, iters);
    let (lds_dst, lds_hi) = (Reg::r(20), Reg::r(21));

    let top = b.label_here();
    for _ in 0..groups {
        if generation.uses_control_notation() {
            b.with_ctl(CtlInfo::stall(1));
        }
        b.ld(MemSpace::Shared, MemWidth::B64, lds_dst, addr, 0);
        for f in 0..6usize {
            if generation.uses_control_notation() {
                b.with_ctl(CtlInfo::stall(1));
            }
            match dep {
                Dependence::Independent => {
                    let dst = Reg::r(ACCS_IND[f]);
                    b.ffma(dst, Reg::r(1), Operand::reg(4), dst);
                }
                Dependence::Dependent => {
                    // Read the freshly loaded pair.
                    let dst = Reg::r(ACCS_DEP[f]);
                    b.ffma(dst, lds_dst, Operand::Reg(lds_hi), dst);
                }
            }
        }
    }
    b.iadd(counter, counter, -1);
    b.isetp(Pred::p(0), CmpOp::Gt, counter, 0);
    b.bra_if(Pred::p(0), false, top);
    b.exit();
    b.finish().map_err(SimError::from)
}

/// One point of Figure 4.
#[derive(Debug, Clone, Copy)]
pub struct ThreadsPoint {
    /// Active threads on the SM.
    pub threads: u32,
    /// Dependence mode.
    pub dep: Dependence,
    /// Overall useful thread-instruction throughput.
    pub throughput: f64,
}

/// Measure the 6:1 mix at a given number of active threads per SM.
///
/// Thread counts up to 1024 run as one block; larger counts split into two
/// resident blocks.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn measure_threads(
    gpu: &GpuConfig,
    dep: Dependence,
    threads: u32,
) -> Result<ThreadsPoint, SimError> {
    let (per_block, blocks) = if threads <= 1024 {
        (threads, 1)
    } else {
        (threads / 2, 2)
    };
    let kernel = build_threads_kernel(gpu.generation, dep, 12, 16)?;
    let report = run_on_sm(gpu, &kernel, per_block, blocks)?;
    let useful = report.mix.count("FFMA") + report.mix.count_prefix("LDS");
    Ok(ThreadsPoint {
        threads,
        dep,
        throughput: useful as f64 * 32.0 / report.cycles.max(1) as f64,
    })
}

/// Sweep the active-thread axis of Figure 4.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sweep_threads(gpu: &GpuConfig, dep: Dependence) -> Result<Vec<ThreadsPoint>, SimError> {
    let max = gpu.max_threads_per_sm;
    let mut out = Vec::new();
    let mut t = 32;
    while t <= max {
        out.push(measure_threads(gpu, dep, t)?);
        t += if t < 256 { 32 } else { 128 };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_dependent_saturates_by_512_threads() {
        let gpu = GpuConfig::gtx580();
        let t512 = measure_threads(&gpu, Dependence::Dependent, 512)
            .unwrap()
            .throughput;
        let t1536 = measure_threads(&gpu, Dependence::Dependent, 1536)
            .unwrap()
            .throughput;
        // Paper: with 512 active threads the dependent case is already
        // close to the best situation on Fermi.
        assert!(
            t512 > 0.88 * t1536,
            "512 threads ({t512}) should be close to saturation ({t1536})"
        );
        assert!(t1536 > 26.0, "Fermi should approach 32: {t1536}");
    }

    #[test]
    fn dependence_hurts_at_low_occupancy() {
        let gpu = GpuConfig::gtx580();
        let dep = measure_threads(&gpu, Dependence::Dependent, 64)
            .unwrap()
            .throughput;
        let ind = measure_threads(&gpu, Dependence::Independent, 64)
            .unwrap()
            .throughput;
        assert!(
            ind > dep,
            "independent ({ind}) should beat dependent ({dep}) at 64 threads"
        );
    }

    #[test]
    fn kepler_needs_more_threads_than_fermi() {
        // Normalized to each GPU's own saturation level, Kepler at 512
        // threads must be farther from saturation than Fermi at 512.
        let fermi = GpuConfig::gtx580();
        let kepler = GpuConfig::gtx680();
        let f512 = measure_threads(&fermi, Dependence::Dependent, 512)
            .unwrap()
            .throughput;
        let fmax = measure_threads(&fermi, Dependence::Dependent, 1536)
            .unwrap()
            .throughput;
        let k512 = measure_threads(&kepler, Dependence::Dependent, 512)
            .unwrap()
            .throughput;
        let kmax = measure_threads(&kepler, Dependence::Dependent, 2048)
            .unwrap()
            .throughput;
        assert!(
            k512 / kmax < f512 / fmax,
            "Kepler 512/{kmax} = {}, Fermi 512/{fmax} = {}",
            k512 / kmax,
            f512 / fmax
        );
    }

    #[test]
    fn throughput_is_monotonic_in_threads() {
        let gpu = GpuConfig::gtx580();
        let pts = [64, 128, 256, 512].map(|t| {
            measure_threads(&gpu, Dependence::Dependent, t)
                .unwrap()
                .throughput
        });
        for w in pts.windows(2) {
            assert!(w[1] + 0.5 >= w[0], "{pts:?}");
        }
    }
}
