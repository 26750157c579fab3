//! FFMA + LDS.X mixing throughput (Figure 2).

use peakperf_arch::{Generation, GpuConfig, LdsWidth};
use peakperf_sass::{
    CmpOp, CtlInfo, Kernel, KernelBuilder, MemSpace, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use peakperf_sim::SimError;

use super::run_on_sm;

/// Build the mix kernel: each loop iteration contains `groups` repetitions
/// of (`ratio` independent FFMAs + one LDS of `width`), with conflict-free
/// shared addresses (lane-linear, width-strided).
///
/// # Errors
///
/// Propagates builder failures.
pub fn build_mix_kernel(
    generation: Generation,
    ratio: u32,
    width: LdsWidth,
    groups: u32,
    iters: u32,
) -> Result<Kernel, SimError> {
    let mut b = KernelBuilder::new(format!("mix_{}to1{}", ratio, width.suffix()), generation);
    let width = MemWidth::from(width);
    // Threads need (threads * width.bytes()) shared bytes; sized for 1024.
    b.shared_bytes(1024 * width.bytes());

    // FFMA operands on distinct banks: R1 (odd0), R4 (even1). The
    // accumulators are read too (FFMA dst, R1, R4, dst), so they must live
    // on the two remaining banks — even0 and odd1 — or the benchmark would
    // measure bank conflicts instead of the mix (Section 3.3).
    const ACCS: [u8; 8] = [8, 13, 10, 15, 24, 29, 26, 31];
    for i in 0..8u8 {
        b.mov_f32(Reg::r(i), 0.5 + f32::from(i));
    }
    for (k, &acc) in ACCS.iter().enumerate() {
        b.mov_f32(Reg::r(acc), 0.125 * (k as f32 + 1.0));
    }
    // Shared address: tid * width.bytes().
    let addr = Reg::r(16);
    b.s2r(addr, SpecialReg::TidX);
    b.imul(addr, addr, width.bytes() as i32);
    let counter = Reg::r(17);
    b.mov32i(counter, iters);
    // LDS destination: R20.. (aligned for the widest case).
    let lds_dst = Reg::r(20);

    let top = b.label_here();
    for _ in 0..groups {
        for f in 0..ratio {
            let dst = Reg::r(ACCS[(f % 8) as usize]);
            if generation.uses_control_notation() {
                b.with_ctl(CtlInfo::stall(1));
            }
            b.ffma(dst, Reg::r(1), Operand::reg(4), dst);
        }
        if generation.uses_control_notation() {
            b.with_ctl(CtlInfo::stall(1));
        }
        b.ld(MemSpace::Shared, width, lds_dst, addr, 0);
    }
    b.iadd(counter, counter, -1);
    b.isetp(Pred::p(0), CmpOp::Gt, counter, 0);
    b.bra_if(Pred::p(0), false, top);
    b.exit();
    b.finish().map_err(SimError::from)
}

/// One point of Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct MixPoint {
    /// FFMA : LDS ratio.
    pub ratio: u32,
    /// LDS width.
    pub width: LdsWidth,
    /// Overall thread-instruction throughput (FFMA + LDS, excluding loop
    /// overhead) per shader cycle per SM.
    pub throughput: f64,
}

/// Measure one `(ratio, width)` point with saturating threads.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn measure_mix(gpu: &GpuConfig, ratio: u32, width: LdsWidth) -> Result<MixPoint, SimError> {
    let kernel = build_mix_kernel(gpu.generation, ratio, width, 12, 16)?;
    let threads = 1024.min(gpu.max_threads_per_block);
    let blocks = (gpu.max_threads_per_sm / threads).clamp(1, 2);
    let report = run_on_sm(gpu, &kernel, threads, blocks)?;
    let useful = report.mix.count("FFMA") + report.mix.count_prefix("LDS");
    Ok(MixPoint {
        ratio,
        width,
        throughput: useful as f64 * 32.0 / report.cycles.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_6to1_lds64_lands_near_30() {
        let gpu = GpuConfig::gtx580();
        let p = measure_mix(&gpu, 6, LdsWidth::B64).unwrap();
        assert!(
            (28.0..=32.0).contains(&p.throughput),
            "Fermi 6:1 LDS.64 -> {}",
            p.throughput
        );
    }

    #[test]
    fn fermi_lds128_mix_is_pipe_limited() {
        let gpu = GpuConfig::gtx580();
        // 12:1 with LDS.128: paper measures 24.5 (the LDS.128 pipe caps it).
        let p = measure_mix(&gpu, 12, LdsWidth::B128).unwrap();
        assert!(
            (21.0..=27.0).contains(&p.throughput),
            "Fermi 12:1 LDS.128 -> {}",
            p.throughput
        );
    }

    #[test]
    fn throughput_grows_with_ratio_on_fermi() {
        let gpu = GpuConfig::gtx580();
        let low = measure_mix(&gpu, 1, LdsWidth::B64).unwrap().throughput;
        let mid = measure_mix(&gpu, 6, LdsWidth::B64).unwrap().throughput;
        let high = measure_mix(&gpu, 24, LdsWidth::B64).unwrap().throughput;
        assert!(low < mid && mid <= high + 1.0, "{low} {mid} {high}");
    }

    #[test]
    fn kepler_6to1_lds64_lands_near_122() {
        let gpu = GpuConfig::gtx680();
        let p = measure_mix(&gpu, 6, LdsWidth::B64).unwrap();
        assert!(
            (110.0..=133.0).contains(&p.throughput),
            "Kepler 6:1 LDS.64 -> {}",
            p.throughput
        );
    }

    #[test]
    fn pure_lds_matches_pipe_rates() {
        let gpu = GpuConfig::gtx580();
        let p32 = measure_mix(&gpu, 0, LdsWidth::B32).unwrap().throughput;
        let p64 = measure_mix(&gpu, 0, LdsWidth::B64).unwrap().throughput;
        let p128 = measure_mix(&gpu, 0, LdsWidth::B128).unwrap().throughput;
        assert!((13.0..=16.5).contains(&p32), "LDS -> {p32}");
        assert!((7.0..=8.5).contains(&p64), "LDS.64 -> {p64}");
        assert!((1.7..=2.2).contains(&p128), "LDS.128 -> {p128}");
    }
}
