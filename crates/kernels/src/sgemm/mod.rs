//! SGEMM kernel generators and launch helpers.
//!
//! The generated kernels are *size-specialized*, like hand-written
//! assembly: matrix dimensions and leading dimensions are baked into the
//! instruction stream as immediates (this is also what lets the paper's
//! register budget close at exactly 63 — no registers are wasted on
//! strides). Pointers and the `alpha`/`beta` scalars remain runtime kernel
//! parameters in constant bank 0.

mod blocked;
mod naive;

pub use blocked::{build_blocked, BlockedOptions, CtlMode, PlanKind};
pub use naive::build_naive;

use peakperf_sass::{Kernel, KernelBuilder, Operand};
use peakperf_sim::{FuncStats, GlobalMemory, Gpu, LaunchConfig, SimError};

pub use crate::cpu::{Trans, Variant};
use crate::matrix::Matrix;
use peakperf_arch::Generation;

/// A size-specialized SGEMM problem description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgemmProblem {
    /// Transpose variant.
    pub variant: Variant,
    /// Rows of C (and of op(A)).
    pub m: u32,
    /// Columns of C (and of op(B)).
    pub n: u32,
    /// Inner dimension.
    pub k: u32,
}

impl SgemmProblem {
    /// A square problem of edge `size`.
    pub fn square(variant: Variant, size: u32) -> SgemmProblem {
        SgemmProblem {
            variant,
            m: size,
            n: size,
            k: size,
        }
    }

    /// Leading dimension of A as stored (`m` untransposed, `k`
    /// transposed).
    pub fn lda(&self) -> u32 {
        match self.variant.ops().0 {
            Trans::N => self.m,
            Trans::T => self.k,
        }
    }

    /// Leading dimension of B as stored (`k` untransposed, `n`
    /// transposed).
    pub fn ldb(&self) -> u32 {
        match self.variant.ops().1 {
            Trans::N => self.k,
            Trans::T => self.n,
        }
    }

    /// Leading dimension of C.
    pub fn ldc(&self) -> u32 {
        self.m
    }

    /// Useful flops: `2·m·n·k`.
    pub fn flops(&self) -> u64 {
        crate::cpu::gemm_flops(u64::from(self.m), u64::from(self.n), u64::from(self.k))
    }

    /// Shape of the stored A matrix `(rows, cols)`.
    pub fn a_shape(&self) -> (usize, usize) {
        match self.variant.ops().0 {
            Trans::N => (self.m as usize, self.k as usize),
            Trans::T => (self.k as usize, self.m as usize),
        }
    }

    /// Shape of the stored B matrix `(rows, cols)`.
    pub fn b_shape(&self) -> (usize, usize) {
        match self.variant.ops().1 {
            Trans::N => (self.k as usize, self.n as usize),
            Trans::T => (self.n as usize, self.k as usize),
        }
    }
}

/// Declare the SGEMM kernels' parameters on a generator's builder, in
/// the order [`launch_params`] lays out a launch's words: A, B, C, α, β.
fn declare_params(b: &mut KernelBuilder) -> [Operand; 5] {
    ["a", "b", "c", "alpha", "beta"].map(|name| b.param(name))
}

/// The parameter words of an SGEMM launch: the `(a, b, c)` addresses
/// [`alloc_problem`] or [`upload_problem`] return, then α and β.
pub fn launch_params((a, b, c): (u32, u32, u32), alpha: f32, beta: f32) -> [u32; 5] {
    [a, b, c, alpha.to_bits(), beta.to_bits()]
}

/// A generated kernel plus its launch geometry.
#[derive(Debug, Clone)]
pub struct SgemmBuild {
    /// The kernel (parameters: `a`, `b`, `c`, `alpha`, `beta`).
    pub kernel: Kernel,
    /// Grid/block configuration for the problem it was specialized for.
    pub config: LaunchConfig,
    /// The problem it was specialized for.
    pub problem: SgemmProblem,
}

/// Ready-made kernel builds corresponding to the implementations compared
/// in Figures 5-8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// The paper's hand-optimized assembly kernel: 6×6 blocking, LDS.64,
    /// interleaved prefetch, mixed address arithmetic, bank-optimized
    /// registers, scheduled control notation (Section 5).
    AsmOpt,
    /// The paper's *first* Kepler version: identical structure but naive
    /// sequential register assignment (68.8 % 2-way conflicts, Figure 8).
    AsmNaiveRegs,
    /// A CUBLAS-4.x-like build: same blocking, but compiler-typical
    /// weaknesses — burst (non-interleaved) prefetch, address arithmetic
    /// hoisted to the loop head, nvcc-style register assignment, per-type
    /// control notation.
    CublasLike,
    /// A MAGMA-like build: additionally spills 10 registers through local
    /// memory (40 bytes/thread, Section 5.5).
    MagmaLike,
}

impl Preset {
    /// All presets.
    pub const ALL: [Preset; 4] = [
        Preset::AsmOpt,
        Preset::AsmNaiveRegs,
        Preset::CublasLike,
        Preset::MagmaLike,
    ];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Preset::AsmOpt => "asm",
            Preset::AsmNaiveRegs => "asm_naive_regs",
            Preset::CublasLike => "cublas_like",
            Preset::MagmaLike => "magma_like",
        }
    }

    /// The generator options of this preset.
    pub fn options(self) -> BlockedOptions {
        match self {
            Preset::AsmOpt => BlockedOptions {
                plan: PlanKind::BankOptimized,
                interleave_prefetch: true,
                hoist_addresses: false,
                spill_registers: 0,
                extra_aux_per_step: 0,
                ctl: CtlMode::Scheduled,
            },
            Preset::AsmNaiveRegs => BlockedOptions {
                plan: PlanKind::Naive,
                interleave_prefetch: true,
                hoist_addresses: false,
                spill_registers: 0,
                extra_aux_per_step: 0,
                ctl: CtlMode::Scheduled,
            },
            Preset::CublasLike => BlockedOptions {
                plan: PlanKind::NvccLike,
                interleave_prefetch: false,
                hoist_addresses: true,
                spill_registers: 0,
                extra_aux_per_step: 2,
                ctl: CtlMode::PerType,
            },
            Preset::MagmaLike => BlockedOptions {
                plan: PlanKind::NvccLike,
                interleave_prefetch: false,
                hoist_addresses: true,
                spill_registers: 10,
                extra_aux_per_step: 3,
                ctl: CtlMode::PerType,
            },
        }
    }
}

/// Build a preset kernel for a problem.
///
/// # Errors
///
/// Propagates generator errors (unsupported sizes, register allocation).
pub fn build_preset(
    generation: Generation,
    problem: &SgemmProblem,
    preset: Preset,
) -> Result<SgemmBuild, SimError> {
    build_blocked(generation, problem, &preset.options())
}

/// Outcome of [`run_sgemm`].
#[derive(Debug)]
pub struct SgemmRun {
    /// The computed C matrix.
    pub c: Matrix,
    /// Functional execution statistics.
    pub stats: FuncStats,
}

/// Functionally execute a generated SGEMM on fresh random matrices and
/// return the result (the caller compares against [`crate::cpu::sgemm`]).
///
/// # Errors
///
/// Propagates launch and memory errors.
pub fn run_sgemm(
    gpu: &mut Gpu,
    build: &SgemmBuild,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    alpha: f32,
    beta: f32,
) -> Result<SgemmRun, SimError> {
    let mut upload = |m: &Matrix| m.upload(gpu.memory_mut());
    let addrs = (upload(a)?, upload(b)?, upload(c)?);
    let params = launch_params(addrs, alpha, beta);
    let stats = gpu.launch(&build.kernel, build.config, &params)?;
    let (m, n) = (build.problem.m as usize, build.problem.n as usize);
    let c_out = Matrix::download(gpu.memory(), addrs.2, m, n)?;
    Ok(SgemmRun { c: c_out, stats })
}

/// Reserve zeroed A, B and C for a problem in one allocation of `memory`
/// and return their `(a, b, c)` addresses. Each matrix starts on a
/// [`GlobalMemory::ALIGN`] boundary, where three allocations in a row
/// would put it; this is the one statement of that layout.
///
/// Simulated time does not depend on the operands' values, so a caller
/// that only times the kernel launches on this memory as it is: on a
/// fresh [`GlobalMemory`], no page of A, B or C is touched until the
/// simulation reads or writes it.
///
/// # Errors
///
/// Fails with [`SimError::OutOfBounds`] when the three matrices do not
/// fit below the 32-bit address ceiling.
pub fn alloc_problem(
    memory: &mut GlobalMemory,
    problem: &SgemmProblem,
) -> Result<(u32, u32, u32), SimError> {
    let bytes = |(rows, cols): (usize, usize)| 4 * (rows * cols) as u64;
    let align = |bytes: u64| bytes.next_multiple_of(u64::from(GlobalMemory::ALIGN));
    let b_off = align(bytes(problem.a_shape()));
    let c_off = b_off + align(bytes(problem.b_shape()));
    let end = c_off + bytes((problem.m as usize, problem.n as usize));
    let total = u32::try_from(end).map_err(|_| SimError::OutOfBounds {
        space: "global",
        addr: end,
        size: u64::from(u32::MAX),
    })?;
    let a = memory.alloc_zeroed(total)?;
    Ok((a, a + b_off as u32, a + c_off as u32))
}

/// Lay out a problem with [`alloc_problem`] and fill A and B with seeded
/// random values (C stays zero); returns the `(a, b, c)` addresses.
///
/// # Errors
///
/// Propagates allocation failures.
pub fn upload_problem(
    memory: &mut GlobalMemory,
    problem: &SgemmProblem,
    seed: u64,
) -> Result<(u32, u32, u32), SimError> {
    let (a_addr, b_addr, c_addr) = alloc_problem(memory, problem)?;
    let (ar, ac) = problem.a_shape();
    let (br, bc) = problem.b_shape();
    memory.write_f32_slice(a_addr, &Matrix::random(ar, ac, seed).data)?;
    memory.write_f32_slice(b_addr, &Matrix::random(br, bc, seed + 1).data)?;
    Ok((a_addr, b_addr, c_addr))
}
