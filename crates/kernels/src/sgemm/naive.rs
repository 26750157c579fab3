//! The naive SGEMM: one thread per C element, no shared memory.
//!
//! This is the "worst case" of Section 4.2 — every FFMA is fed straight
//! from global memory — and the functional baseline the blocked kernels
//! are verified against.

use peakperf_arch::Generation;
use peakperf_sass::{CmpOp, KernelBuilder, MemSpace, MemWidth, Pred, Reg, SpecialReg};
use peakperf_sim::{LaunchConfig, SimError};

use super::{SgemmBuild, SgemmProblem, Trans};

/// Tile edge: each block computes a 16×16 tile of C.
const TILE: u32 = 16;

/// Build the naive kernel for a problem.
///
/// # Errors
///
/// Returns [`SimError::Launch`] when `m`/`n` are not multiples of 16 or
/// `k` is zero, and propagates builder failures.
pub fn build_naive(generation: Generation, problem: &SgemmProblem) -> Result<SgemmBuild, SimError> {
    if !problem.m.is_multiple_of(TILE) || !problem.n.is_multiple_of(TILE) || problem.k == 0 {
        return Err(SimError::Launch {
            message: format!(
                "naive sgemm requires m, n multiples of {TILE} and k > 0, got {}x{}x{}",
                problem.m, problem.n, problem.k
            ),
        });
    }
    let (ta, tb) = problem.variant.ops();
    let lda = problem.lda() as i32;
    let ldb = problem.ldb() as i32;
    let ldc = problem.ldc() as i32;

    let mut b = KernelBuilder::new(
        format!("sgemm_naive_{}", problem.variant.name()),
        generation,
    );
    let [p_a, p_b, p_c, p_alpha, p_beta] = super::declare_params(&mut b);

    let r_tx = Reg::r(0);
    let r_ty = Reg::r(1);
    let r_row = Reg::r(2);
    let r_col = Reg::r(3);
    let r_a = Reg::r(4);
    let r_b = Reg::r(5);
    let r_acc = Reg::r(6);
    let r_k = Reg::r(7);
    let r_av = Reg::r(8);
    let r_bv = Reg::r(9);
    let r_c = Reg::r(10);
    let r_tmp = Reg::r(11);
    let r_old = Reg::r(12);

    b.s2r(r_tx, SpecialReg::TidX);
    b.s2r(r_ty, SpecialReg::TidY);
    b.s2r(r_row, SpecialReg::CtaidX);
    b.s2r(r_col, SpecialReg::CtaidY);
    // row = ctaid.x*16 + tid.x ; col = ctaid.y*16 + tid.y
    b.imad(r_row, r_row, TILE as i32, r_tx);
    b.imad(r_col, r_col, TILE as i32, r_ty);

    // A cursor: element (row, 0) of op(A); per-k step stride.
    let (a_init_scale, a_step) = match ta {
        Trans::N => (1i32, lda * 4), // addr = a + row*4,     += lda*4
        Trans::T => (lda, 4),        // addr = a + row*lda*4, += 4
    };
    b.mov(r_a, p_a);
    b.imul(r_tmp, r_row, a_init_scale * 4);
    b.iadd(r_a, r_tmp, Reg::r(4));
    // B cursor: element (0, col) of op(B).
    let (b_init_scale, b_step) = match tb {
        Trans::N => (ldb, 4),        // addr = b + col*ldb*4, += 4
        Trans::T => (1i32, ldb * 4), // addr = b + col*4,     += ldb*4
    };
    b.mov(r_b, p_b);
    b.imul(r_tmp, r_col, b_init_scale * 4);
    b.iadd(r_b, r_tmp, Reg::r(5));

    b.mov32i(r_acc, 0);
    b.mov32i(r_k, problem.k);
    let top = b.label_here();
    b.ld(MemSpace::Global, MemWidth::B32, r_av, r_a, 0);
    b.ld(MemSpace::Global, MemWidth::B32, r_bv, r_b, 0);
    b.ffma(r_acc, r_av, r_bv, r_acc);
    b.iadd(r_a, r_a, a_step);
    b.iadd(r_b, r_b, b_step);
    b.iadd(r_k, r_k, -1);
    b.isetp(Pred::p(0), CmpOp::Gt, r_k, 0);
    b.bra_if(Pred::p(0), false, top);

    // c[row + col*ldc] = alpha*acc + beta*old
    b.mov(r_c, p_c);
    b.imul(r_tmp, r_col, ldc * 4);
    b.iadd(r_c, r_tmp, Reg::r(10));
    b.iscadd(r_c, r_row, r_c, 2);
    b.ld(MemSpace::Global, MemWidth::B32, r_old, r_c, 0);
    b.mov(r_tmp, p_beta);
    b.fmul(r_old, r_old, r_tmp);
    b.mov(r_tmp, p_alpha);
    b.ffma(r_old, r_acc, r_tmp, r_old);
    b.st(MemSpace::Global, MemWidth::B32, r_old, r_c, 0);
    b.exit();

    let kernel = b.finish()?;
    Ok(SgemmBuild {
        kernel,
        config: LaunchConfig::grid_2d(problem.m / TILE, problem.n / TILE, TILE, TILE),
        problem: *problem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use crate::matrix::Matrix;
    use crate::sgemm::run_sgemm;
    use crate::sgemm::Variant;
    use peakperf_sim::Gpu;

    fn check(variant: Variant, m: u32, n: u32, k: u32, alpha: f32, beta: f32) {
        let problem = SgemmProblem { variant, m, n, k };
        let build = build_naive(Generation::Fermi, &problem).unwrap();
        let (ar, ac) = problem.a_shape();
        let (br, bc) = problem.b_shape();
        let a = Matrix::random(ar, ac, 1);
        let b = Matrix::random(br, bc, 2);
        let c0 = Matrix::random(m as usize, n as usize, 3);

        let mut gpu = Gpu::new(Generation::Fermi);
        let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, alpha, beta).unwrap();

        let mut c_ref = c0.data.clone();
        cpu::sgemm(
            variant,
            m as usize,
            n as usize,
            k as usize,
            alpha,
            &a.data,
            problem.lda() as usize,
            &b.data,
            problem.ldb() as usize,
            beta,
            &mut c_ref,
            problem.ldc() as usize,
        );
        let c_ref = Matrix {
            rows: m as usize,
            cols: n as usize,
            ld: m as usize,
            data: c_ref,
        };
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.c), bits(&c_ref), "{variant:?} {m}x{n}x{k}");
    }

    #[test]
    fn all_variants_match_cpu_reference() {
        for variant in Variant::ALL {
            check(variant, 16, 16, 8, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_and_rectangular() {
        check(Variant::NN, 32, 16, 24, 0.5, 2.0);
        check(Variant::NT, 16, 32, 5, -1.0, 0.25);
        check(Variant::TN, 48, 16, 7, 2.0, 0.0);
    }

    #[test]
    fn unsupported_sizes_are_rejected() {
        let p = SgemmProblem::square(Variant::NN, 17);
        assert!(build_naive(Generation::Fermi, &p).is_err());
        let p = SgemmProblem {
            variant: Variant::NN,
            m: 16,
            n: 16,
            k: 0,
        };
        assert!(build_naive(Generation::Fermi, &p).is_err());
    }
}
