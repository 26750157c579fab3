//! Assembly-level microbenchmarks (Sections 3.3 and 4 of the paper).
//!
//! Each generator produces a kernel that saturates one SM of the simulated
//! GPU with a specific instruction pattern; the cycle-level engine then
//! measures thread-instruction throughput exactly the way the paper
//! measured silicon:
//!
//! * [`math`] — math-instruction throughput for chosen operand register
//!   indices (Table 2: bank conflicts, operand reuse, the IMUL path);
//! * [`mix`] — FFMA/LDS.X mixing curves (Figure 2);
//! * [`threads`] — the active-thread sweep with dependent or independent
//!   operands (Figure 4).

pub mod family;
pub mod math;
pub mod mix;
pub mod threads;

use peakperf_arch::GpuConfig;
use peakperf_sass::Kernel;
use peakperf_sim::timing::cache::run_cached;
use peakperf_sim::timing::{TimingReport, TimingSim};
use peakperf_sim::{GlobalMemory, LaunchConfig, SimError};

/// Run a microbenchmark kernel launched as `blocks` blocks of `threads`
/// threads on one SM, which holds as many as fit, and return the report.
///
/// Microbenchmarks never inspect memory afterwards, so this goes through
/// [`run_cached`]: identical patterns re-timed across figures are answered
/// from the (opt-in) timing cache without re-simulating, and a simulated
/// run fast-forwards the loop's steady state. What the kernel would leave
/// in memory is unspecified.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_on_sm(
    gpu: &GpuConfig,
    kernel: &Kernel,
    threads: u32,
    blocks: u32,
) -> Result<TimingReport, SimError> {
    let sim = TimingSim::new(gpu, kernel, LaunchConfig::linear(blocks, threads), &[])?;
    run_cached(&sim, &mut GlobalMemory::new())
}

/// The launch every throughput microbenchmark saturates one SM with, as
/// `(threads, blocks)`: blocks of 1024 threads (or the GPU's largest
/// block), as many as the SM holds, but at most two.
pub fn saturating_launch(gpu: &GpuConfig) -> (u32, u32) {
    let threads = 1024.min(gpu.max_threads_per_block);
    (threads, (gpu.max_threads_per_sm / threads).clamp(1, 2))
}

/// Thread-instruction throughput (per shader cycle per SM) of the
/// instructions whose mnemonic starts with `prefix`, excluding loop
/// overhead.
pub fn throughput_of(report: &TimingReport, prefix: &str) -> f64 {
    report.mix.count_prefix(prefix) as f64 * 32.0 / report.cycles.max(1) as f64
}
