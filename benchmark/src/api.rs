//! The pinned API surface: every item of the measured program that the
//! benchmark names, re-exported from one place.
//!
//! A later performance change may not edit the benchmark, so these paths
//! (and the signatures the workloads call them with) are what such a
//! change must keep source-compatible. Nothing else under `benchmark/`
//! imports a `peakperf_*` crate directly. Deliberately absent:
//! `TimingSim::run*` (ROADMAP item 1 collapses them), `experiments::fig*`
//! and `telemetry::run_suite` (their sizes are slated to change),
//! `hostprof`/`perfmon` (tracing inside the program is a later issue) and
//! the adversarial `spin`/`panic`/`flaky` job kinds (item 4 moves them).

pub use peakperf_arch::{Generation, GpuConfig, LdsWidth};

pub use peakperf_kernels::cpu::sgemm as cpu_sgemm;
pub use peakperf_kernels::matrix::Matrix;
pub use peakperf_kernels::microbench::math::{
    build_math_kernel, measure_math, table2_patterns, MathPattern,
};
pub use peakperf_kernels::microbench::mix::{build_mix_kernel, measure_mix};
pub use peakperf_kernels::microbench::threads::{
    build_threads_kernel, measure_threads, Dependence,
};
pub use peakperf_kernels::microbench::{run_on_sm, throughput_of};
pub use peakperf_kernels::sgemm::{
    build_preset, run_sgemm, upload_problem, Preset, SgemmProblem, Variant,
};

pub use peakperf_sass::{assemble, decode_stream, encode_stream, validate_kernel, Module};

pub use peakperf_regalloc::{optimize_banks, SgemmPlan};

pub use peakperf_bound::{paper_reference, sweep as bound_sweep, UpperBoundModel};

pub use peakperf_sim::timing::cache::{disable_global, enable_global};
pub use peakperf_sim::timing::{time_kernel, TimingReport};
pub use peakperf_sim::{with_counter_scope, Counters, GlobalMemory, Gpu};

pub use peakperf_bench::exec::Executor;
pub use peakperf_bench::experiments::{sgemm_gflops, Speed, TABLE2_PAPER};
pub use peakperf_bench::fault::{campaign_cases, CampaignConfig};
pub use peakperf_bench::service::journal::Journal;
pub use peakperf_bench::service::{
    JobKind, JobResult, JobSpec, JobStatus, Service, ServiceConfig, SubmitOutcome,
};
