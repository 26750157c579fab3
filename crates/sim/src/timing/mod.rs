//! Cycle-level timing simulation of one SM, with whole-GPU extrapolation.
//!
//! The timing engine executes the kernel functionally (sharing the
//! functional core in [`crate::exec`]) while modeling, per shader cycle:
//!
//! * warp schedulers (Fermi: 2 schedulers at core clock → one warp
//!   instruction per shader cycle per SM; Kepler: 4 schedulers with dual
//!   dispatch, limited by an issue-token bucket calibrated to the measured
//!   132 thread-insts/cycle);
//! * Kepler register-bank conflicts on instruction operands (Section 3.3),
//!   which multiply an instruction's issue-token cost;
//! * a scoreboard with per-class result latencies;
//! * LD/ST pipe occupancy with shared-memory bank-conflict serialization;
//! * a global-memory interface with per-SM bandwidth and fixed latency;
//! * `BAR.SYNC` barriers;
//! * the Kepler control notation: stall fields gate back-to-back issue, and
//!   uncovered ALU read-after-write hazards pay a replay penalty
//!   (Section 3.2: without proper notation, "the performance is very
//!   poor").

pub mod cache;
mod calib;
mod conflict;
pub mod profile;
mod sm;
pub mod trace;

pub use calib::Calibration;
pub use conflict::{global_transactions, shared_conflict_factor};
pub use profile::{Profile, ProfileBuilder};
pub use sm::{StallKind, TimingReport, TimingSim};
pub use trace::{chrome_trace, Hooks, Observer, TraceBuffer, TraceEvent, TraceEventKind};

use peakperf_arch::GpuConfig;
use peakperf_sass::Kernel;

use crate::{LaunchConfig, SimError};

/// Whole-GPU timing estimate produced by [`time_kernel`].
#[derive(Debug, Clone)]
pub struct GpuTiming {
    /// The single-SM report for one resident wave.
    pub sm: TimingReport,
    /// Blocks resident per SM during the simulated wave.
    pub blocks_per_sm: u32,
    /// Number of waves needed to cover the grid.
    pub waves: u64,
    /// Estimated total execution cycles (shader clock).
    pub total_cycles: u64,
    /// Estimated kernel time in milliseconds.
    pub time_ms: f64,
    /// Sustained GFLOPS over the whole grid.
    pub gflops: f64,
}

/// The blocks of `config`'s launch one SM holds, as `(blocks_per_sm,
/// resident)`: the occupancy limit of the kernel's registers, shared
/// memory and block size, and the blocks its first wave simulates (that
/// limit, capped by the grid). [`TimingSim::new`] is its one caller.
///
/// # Errors
///
/// [`SimError::Launch`] when not even one block fits on an SM.
fn resident_blocks(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
) -> Result<(u32, u32), SimError> {
    let threads = config.threads_per_block();
    let occ = gpu
        .occupancy()
        .occupancy(kernel.num_regs, kernel.shared_bytes, threads)
        .ok_or_else(|| SimError::Launch {
            message: format!(
                "kernel `{}` ({} regs, {} B shared, {} threads) does not fit on {}",
                kernel.name, kernel.num_regs, kernel.shared_bytes, threads, gpu.name
            ),
        })?;
    let resident = config.total_blocks().min(u64::from(occ.blocks_per_sm)) as u32;
    Ok((occ.blocks_per_sm, resident))
}

/// Time a kernel launch on `config`'s GPU.
///
/// Simulates the first resident wave, which [`TimingSim::new`] places on
/// one SM, cycle by cycle and extrapolates: the grid is split into `waves`
/// sequential waves of `blocks_per_sm * num_sms` blocks. Total time is the
/// simulated wave times the number of full waves plus a trailing partial
/// wave, which costs its fill fraction of a wave but at least 0.7 of one;
/// it is never less than one simulated wave (the steady-state
/// approximation for regular kernels such as GEMM).
///
/// `flops_override`: when the caller knows the true useful FLOP count of
/// the whole launch (e.g. `2*M*N*K` for GEMM), pass it to get GFLOPS of
/// useful work rather than of executed FFMAs.
///
/// The wave is timed through [`cache::run_cached`], for its report alone:
/// `memory` is unspecified afterwards (a cache hit writes nothing, and a
/// simulated wave skips the stores of the loop periods it fast-forwards).
/// To inspect what the kernel computes, run [`TimingSim::run`] directly.
///
/// # Errors
///
/// Propagates validation/launch/memory errors from the simulation.
pub fn time_kernel(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
    params: &[u32],
    memory: &mut crate::GlobalMemory,
    flops_override: Option<u64>,
) -> Result<GpuTiming, SimError> {
    let sim = TimingSim::new(gpu, kernel, config, params)?;
    let (blocks_per_sm, resident) = sim.occupancy();
    let total_blocks = config.total_blocks();
    let wave_capacity = u64::from(blocks_per_sm) * u64::from(gpu.num_sms);
    let waves = total_blocks.div_ceil(wave_capacity).max(1);
    let report = cache::run_cached(&sim, memory)?;

    // Full waves run back to back; the trailing partial wave still pays a
    // latency floor (its blocks take roughly a full wave's critical path on
    // their SMs even though most SMs idle) — this produces the mild
    // sawtooth over matrix size seen in Figures 6-7 without charging a
    // 1/32-full wave the cost of a full one.
    let full_waves = total_blocks / wave_capacity;
    let rem = total_blocks % wave_capacity;
    let tail = if rem == 0 {
        0.0
    } else {
        (rem as f64 / wave_capacity as f64).max(0.7)
    };
    let total_cycles = (report.cycles as f64 * (full_waves as f64 + tail)) as u64;
    let total_cycles = total_cycles.max(report.cycles);
    let time_ms = total_cycles as f64 / (gpu.shader_clock_mhz * 1e3);
    // Useful flops over the whole grid: either supplied by the caller
    // (e.g. 2*M*N*K for GEMM) or the simulated per-block flops scaled up.
    let total_flops = flops_override
        .map(|f| f as f64)
        .unwrap_or_else(|| report.flops as f64 * total_blocks as f64 / f64::from(resident));
    let gflops = total_flops / (time_ms * 1e6);
    Ok(GpuTiming {
        sm: report,
        blocks_per_sm,
        waves,
        total_cycles,
        time_ms,
        gflops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peakperf_sass::{KernelBuilder, Reg};

    fn tiny_kernel(gen: peakperf_arch::Generation) -> Kernel {
        let mut b = KernelBuilder::new("tiny", gen);
        for k in 0..16 {
            b.ffma(
                Reg::r(8 + (k % 4)),
                Reg::r(1),
                peakperf_sass::Operand::reg(4),
                Reg::r(8 + (k % 4)),
            );
        }
        b.exit();
        b.finish().unwrap()
    }

    #[test]
    fn oversubscribed_kernel_is_rejected() {
        // 63 registers × 1024 threads is more than a Fermi SM's 32,768: the
        // kernel validates, but not one block fits.
        let gpu = peakperf_arch::GpuConfig::gtx580();
        let mut kernel = tiny_kernel(gpu.generation);
        kernel.num_regs = 63;
        let config = LaunchConfig::linear(1, 1024);
        let mut mem = crate::GlobalMemory::new();
        let err = time_kernel(&gpu, &kernel, config, &[], &mut mem, None).unwrap_err();
        assert!(matches!(err, SimError::Launch { .. }), "{err:?}");
        // The simulator itself places the wave: a block that cannot fit is
        // the one invalid residency, and a typed error.
        let err = TimingSim::new(&gpu, &kernel, config, &[]).err();
        let no_fit = |m: &str| m.contains("does not fit");
        assert!(
            matches!(&err, Some(SimError::Launch { message }) if no_fit(message)),
            "{err:?}"
        );
        // More shared memory than an SM has fails validation first.
        let mut kernel = tiny_kernel(gpu.generation);
        kernel.shared_bytes = 49 * 1024;
        let config = LaunchConfig::linear(1, 64);
        let err = time_kernel(&gpu, &kernel, config, &[], &mut mem, None).unwrap_err();
        assert!(matches!(err, SimError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn waves_scale_total_cycles() {
        let gpu = peakperf_arch::GpuConfig::gtx580();
        let kernel = tiny_kernel(gpu.generation);
        let mut mem = crate::GlobalMemory::new();
        // Hardware cap is 8 blocks/SM on Fermi -> wave capacity 128 blocks.
        let one = time_kernel(
            &gpu,
            &kernel,
            LaunchConfig::linear(128, 64),
            &[],
            &mut mem,
            None,
        )
        .unwrap();
        assert_eq!(one.waves, 1);
        let two = time_kernel(
            &gpu,
            &kernel,
            LaunchConfig::linear(256, 64),
            &[],
            &mut mem,
            None,
        )
        .unwrap();
        assert_eq!(two.waves, 2);
        assert_eq!(two.total_cycles, 2 * one.total_cycles);
        // Equal per-block work -> equal GFLOPS at full waves.
        assert!((two.gflops - one.gflops).abs() / one.gflops < 1e-9);
    }

    #[test]
    fn partial_tail_wave_pays_a_latency_floor() {
        let gpu = peakperf_arch::GpuConfig::gtx580();
        let kernel = tiny_kernel(gpu.generation);
        let mut mem = crate::GlobalMemory::new();
        let full = time_kernel(
            &gpu,
            &kernel,
            LaunchConfig::linear(128, 64),
            &[],
            &mut mem,
            None,
        )
        .unwrap();
        // 129 blocks: one extra block spills into a second, nearly empty
        // wave, which still costs at least 70% of a wave.
        let spill = time_kernel(
            &gpu,
            &kernel,
            LaunchConfig::linear(129, 64),
            &[],
            &mut mem,
            None,
        )
        .unwrap();
        assert!(spill.total_cycles > full.total_cycles);
        assert!(spill.gflops < full.gflops);
        let ratio = spill.total_cycles as f64 / full.total_cycles as f64;
        assert!((1.5..=1.8).contains(&ratio), "tail ratio {ratio}");
    }

    #[test]
    fn flops_override_sets_the_rate_basis() {
        let gpu = peakperf_arch::GpuConfig::gtx580();
        let kernel = tiny_kernel(gpu.generation);
        let mut mem = crate::GlobalMemory::new();
        let auto = time_kernel(
            &gpu,
            &kernel,
            LaunchConfig::linear(128, 64),
            &[],
            &mut mem,
            None,
        )
        .unwrap();
        let halved = time_kernel(
            &gpu,
            &kernel,
            LaunchConfig::linear(128, 64),
            &[],
            &mut mem,
            Some((auto.sm.flops * 128 / u64::from(auto.blocks_per_sm)) / 2),
        )
        .unwrap();
        assert!((halved.gflops - auto.gflops / 2.0).abs() / auto.gflops < 0.01);
    }
}
