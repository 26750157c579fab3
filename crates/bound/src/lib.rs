//! The performance upper-bound model of Lai & Seznec (CGO 2013),
//! Section 4.
//!
//! Different from performance *prediction* models, this crate computes the
//! performance an application **cannot exceed** on a GPU, from
//!
//! * the architecture limits ([`peakperf_arch::GpuConfig`]: register file,
//!   63-register encoding limit, shared-memory size, SP throughput), and
//! * the instruction throughputs the paper measured on real silicon
//!   (Table 2, Section 4.1), stated once in
//!   [`UpperBoundModel::throughput_factor`]. They are the paper's
//!   published figures; nothing here reads them from the microbenchmarks
//!   of `peakperf-kernels`.
//!
//! The flow for SGEMM (Sections 4.2-4.5):
//!
//! 1. [`ffma_fraction`] — the FFMA percentage of the main loop as a
//!    function of the register blocking factor and LDS width (Figure 3);
//! 2. [`registers_required`], [`shared_bytes_per_block`] and
//!    [`occupancy`] — Equations 1-5: the register/shared-memory budget
//!    that limits the blocking factor to 6 and the active threads to
//!    512 (Fermi) / 1024 (Kepler);
//! 3. [`UpperBoundModel`] — Equations 6-9: the memory-bandwidth bound and
//!    the SM-throughput bound, whose minimum is the potential peak
//!    ([`UpperBoundModel::sgemm_bound`]);
//! 4. [`sweep`] — the Section 5.5 design-space exploration that an
//!    auto-tuner would use.
//!
//! Headline results reproduced here (within small tolerances):
//! 82.5 % of theoretical peak on GTX580, 54.6 % (LDS.64) and 57.6 %
//! (LDS.128) on GTX680.

mod blocking;
mod constraints;
mod estimates;
mod model;
mod sweep;
mod whatif;

pub use blocking::{ffma_fraction, ffma_lds_ratio};
pub use constraints::{
    max_blocking_factor, occupancy, registers_detailed, registers_required, shared_bytes_per_block,
    stride_is_valid, SgemmConfig,
};
pub use estimates::{paper_reference, PaperNumbers};
pub use model::{BoundEstimate, Limiter, UpperBoundModel};
pub use sweep::{sweep, SweepEntry};
pub use whatif::{register_limit_sweep, RegisterLimitPoint};

pub use peakperf_arch::{Generation, GpuConfig, LdsWidth};
