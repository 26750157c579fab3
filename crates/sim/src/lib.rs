//! Functional + cycle-level simulator for Fermi (GF110) and Kepler (GK104)
//! streaming multiprocessors.
//!
//! The paper measures real silicon; this crate is the substitute substrate
//! (see `DESIGN.md` at the repository root). It has two engines sharing one
//! functional core:
//!
//! * **Functional execution** ([`Gpu::launch`]): runs every block of a grid
//!   to completion and is used to verify kernels (e.g. SGEMM against a CPU
//!   reference). Warp divergence is handled with a min-PC SIMT executor.
//! * **Cycle-level timing** ([`timing::TimingSim`]): simulates the resident
//!   warps of one SM cycle by cycle — warp schedulers with the generation's
//!   issue model (Fermi: one warp instruction per shader cycle; Kepler: an
//!   issue-token bucket calibrated to the measured ~132 thread-insts/cycle
//!   with register-bank conflict surcharges), a scoreboard with pipeline
//!   latencies, LD/ST pipe occupancy with shared-memory bank-conflict
//!   serialization, a global-memory interface with bandwidth queueing and
//!   fixed latency, and barrier handling. [`timing::time_kernel`] then
//!   extrapolates one SM's steady state to the full GPU, which is how the
//!   paper-style GFLOPS numbers in Figures 5-7 are produced.
//!
//! Calibration constants (latencies, issue rates, pipe initiation
//! intervals) live in [`timing::Calibration`] and come from the paper's
//! microbenchmark measurements (Table 2, Figures 2 and 4); the Table 1
//! facts (schedulers, dispatch units, SPs, bandwidth) come from the
//! simulated [`peakperf_arch::GpuConfig`].
//!
//! # Example: run a kernel functionally
//!
//! ```
//! use peakperf_sass::{Generation, KernelBuilder, MemSpace, MemWidth, Reg, SpecialReg};
//! use peakperf_sim::{Gpu, LaunchConfig};
//!
//! // out[tid] = tid * 3
//! let mut b = KernelBuilder::new("triple", Generation::Fermi);
//! let out = b.param("out");
//! b.s2r(Reg::r(0), SpecialReg::TidX);
//! b.imul(Reg::r(2), Reg::r(0), 3);
//! b.mov(Reg::r(1), out);
//! b.iscadd(Reg::r(1), Reg::r(0), Reg::r(1), 2);
//! b.st(MemSpace::Global, MemWidth::B32, Reg::r(2), Reg::r(1), 0);
//! b.exit();
//! let kernel = b.finish()?;
//!
//! let mut gpu = Gpu::new(Generation::Fermi);
//! let buf = gpu.memory_mut().alloc_zeroed(64 * 4)?;
//! gpu.launch(&kernel, LaunchConfig::linear(1, 64), &[buf])?;
//! assert_eq!(gpu.memory().read_u32(buf + 5 * 4)?, 15);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The simulator is fuzzed with adversarial kernels (see
// `peakperf-bench::fault`): every failure must surface as a typed
// `SimError`, so panicking shortcuts are rejected outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cancel;
mod error;
pub mod exec;
mod func;
pub mod json;
mod launch;
mod mem;
mod recur;
mod stats;
pub mod timing;
mod warp;

pub use cancel::{CancelSource, CancelToken};
pub use error::{HangSnapshot, SimError, WarpHang};
pub use func::Gpu;
pub use json::Json;
pub use launch::{Dim3, LaunchConfig};
pub use mem::GlobalMemory;
pub use stats::{with_counter_scope, Counters, FuncStats, InstMix};
pub use warp::{StepEvent, WarpState};

// The parallel experiment executor in `peakperf-bench` moves simulator
// state onto worker threads; these assertions keep the core types `Send`
// (a regression here would surface far away, as an executor build error).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<GlobalMemory>();
    assert_send::<Gpu>();
    assert_send::<SimError>();
    assert_send::<timing::TimingSim>();
    assert_send::<timing::TimingReport>();
    assert_send::<timing::GpuTiming>();
    assert_send::<Counters>();
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CancelToken>();
};

pub use peakperf_arch::Generation;
