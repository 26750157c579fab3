//! End-to-end pipeline tests: kernel generator → assembly text →
//! re-assembly → binary encode/decode → functional simulation → CPU
//! reference.

use peakperf::arch::Generation;
use peakperf::kernels::cpu;
use peakperf::kernels::matrix::Matrix;
use peakperf::kernels::sgemm::{
    build_naive, build_preset, run_sgemm, Preset, SgemmProblem, Variant,
};
use peakperf::sass::{assemble, Module};
use peakperf::sim::Gpu;

fn reference(
    problem: &SgemmProblem,
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    alpha: f32,
    beta: f32,
) -> Matrix {
    let mut c_ref = c0.data.clone();
    cpu::sgemm(
        problem.variant,
        problem.m as usize,
        problem.n as usize,
        problem.k as usize,
        alpha,
        &a.data,
        problem.lda() as usize,
        &b.data,
        problem.ldb() as usize,
        beta,
        &mut c_ref,
        problem.ldc() as usize,
    );
    Matrix {
        rows: problem.m as usize,
        cols: problem.n as usize,
        ld: problem.m as usize,
        data: c_ref,
    }
}

/// The blocked kernel survives disassembly → reassembly → binary container
/// round trips and still computes the right answer.
#[test]
fn blocked_kernel_full_toolchain_round_trip() {
    let problem = SgemmProblem::square(Variant::NN, 96);
    let build = build_preset(Generation::Fermi, &problem, Preset::AsmOpt).unwrap();

    // 1. Disassemble and re-assemble.
    let mut module = Module::new(Generation::Fermi);
    module.kernels.push(build.kernel.clone());
    let text = module.to_string();
    let reparsed = assemble(&text, Generation::Fermi).unwrap();
    assert_eq!(reparsed.kernels[0].code, build.kernel.code);

    // 2. Binary round trip.
    let bytes = module.to_bytes().unwrap();
    let back = Module::from_bytes(&bytes).unwrap();
    assert_eq!(back.kernels[0].code, build.kernel.code);

    // 3. Run the *re-assembled* kernel and verify numerically.
    let mut kernel = reparsed.kernels[0].clone();
    // Text form keeps params but not the builder's register count if it
    // was explicit; ensure metadata survived.
    assert_eq!(kernel.num_regs, build.kernel.num_regs);
    assert_eq!(kernel.shared_bytes, build.kernel.shared_bytes);
    kernel.name = build.kernel.name.clone();

    let a = Matrix::random(96, 96, 5);
    let b = Matrix::random(96, 96, 6);
    let c0 = Matrix::zeros(96, 96);
    let mut gpu = Gpu::new(Generation::Fermi);
    let rebuilt = peakperf::kernels::sgemm::SgemmBuild {
        kernel,
        config: build.config,
        problem,
    };
    let run = run_sgemm(&mut gpu, &rebuilt, &a, &b, &c0, 1.0, 0.0).unwrap();
    let expect = reference(&problem, &a, &b, &c0, 1.0, 0.0);
    assert_eq!(bits(&run.c), bits(&expect));
}

/// The bits of every element.
fn bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|v| v.to_bits()).collect()
}

/// Every variant of every preset and of the naive kernel, on Kepler (with
/// control notation) and Fermi, with and without α/β scaling, computes
/// exactly the bits of the CPU reference: the same fused multiply-adds in
/// the same order.
#[test]
fn variants_agree_across_generations_and_kernels() {
    for generation in [Generation::Fermi, Generation::Kepler] {
        for variant in [Variant::NN, Variant::NT, Variant::TN, Variant::TT] {
            let problem = SgemmProblem {
                variant,
                m: 96,
                n: 96,
                k: 32,
            };
            let (ar, ac) = problem.a_shape();
            let (br, bc) = problem.b_shape();
            let a = Matrix::random(ar, ac, 10);
            let b = Matrix::random(br, bc, 20);
            let c0 = Matrix::random(96, 96, 30);
            let builds = Preset::ALL
                .map(|preset| (preset.name(), build_preset(generation, &problem, preset)));
            let naive = ("naive", build_naive(generation, &problem));
            for (name, build) in builds.into_iter().chain([naive]) {
                let build = build.unwrap();
                for (alpha, beta) in [(1.0, 0.0), (2.0, 0.5)] {
                    let expect = reference(&problem, &a, &b, &c0, alpha, beta);
                    let mut gpu = Gpu::new(generation);
                    let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, alpha, beta).unwrap();
                    assert_eq!(
                        bits(&run.c),
                        bits(&expect),
                        "{name} {generation:?} {} alpha {alpha} beta {beta}",
                        variant.name()
                    );
                }
            }
        }
    }
}

/// The kernel's executed instruction mix matches Section 4's numbers: with
/// a large enough K, FFMA dominates at roughly 80% and LDS.64 at ~13%.
#[test]
fn executed_mix_matches_section_4() {
    let problem = SgemmProblem {
        variant: Variant::NN,
        m: 96,
        n: 96,
        k: 512,
    };
    let build = build_preset(Generation::Fermi, &problem, Preset::AsmOpt).unwrap();
    let a = Matrix::random(96, 512, 1);
    let b = Matrix::random(512, 96, 2);
    let c0 = Matrix::zeros(96, 96);
    let mut gpu = Gpu::new(Generation::Fermi);
    let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, 1.0, 0.0).unwrap();
    let ffma = run.stats.mix.fraction_prefix("FFMA");
    let lds = run.stats.mix.fraction_prefix("LDS");
    // Paper (1024^2): 80.5% FFMA, 13.4% LDS.64.
    assert!(
        (0.78..=0.85).contains(&ffma),
        "FFMA fraction {ffma} outside band"
    );
    assert!(
        (0.11..=0.16).contains(&lds),
        "LDS fraction {lds} outside band"
    );
}

/// 63 registers, no spilling: the optimized kernel hits the paper's exact
/// register budget on both generations (Section 5.2).
#[test]
fn register_budget_is_exactly_63() {
    for generation in [Generation::Fermi, Generation::Kepler] {
        let problem = SgemmProblem::square(Variant::NN, 96);
        let build = build_preset(generation, &problem, Preset::AsmOpt).unwrap();
        assert!(build.kernel.num_regs <= 63);
        assert_eq!(build.kernel.local_bytes, 0, "no spills");
        // The MAGMA-like build does spill.
        let magma = build_preset(generation, &problem, Preset::MagmaLike).unwrap();
        assert_eq!(magma.kernel.local_bytes, 40);
    }
}
