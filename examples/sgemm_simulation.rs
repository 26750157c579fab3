//! Build the register-blocked assembly SGEMM, verify it against the CPU
//! reference, and time it on the cycle-level simulator.
//!
//! ```sh
//! cargo run --release --example sgemm_simulation
//! ```

use peakperf::arch::GpuConfig;
use peakperf::bound::UpperBoundModel;
use peakperf::kernels::cpu;
use peakperf::kernels::matrix::Matrix;
use peakperf::kernels::sgemm::{
    build_preset, launch_params, run_sgemm, upload_problem, Preset, SgemmProblem, Variant,
};
use peakperf::sim::timing::time_kernel;
use peakperf::sim::{GlobalMemory, Gpu};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu_config = GpuConfig::gtx580();

    // --- Correctness: 192x192x64, all four variants -----------------------
    println!("verifying the generated kernels against the CPU reference...");
    for variant in Variant::ALL {
        let problem = SgemmProblem {
            variant,
            m: 192,
            n: 192,
            k: 64,
        };
        let build = build_preset(gpu_config.generation, &problem, Preset::AsmOpt)?;
        let (ar, ac) = problem.a_shape();
        let (br, bc) = problem.b_shape();
        let a = Matrix::random(ar, ac, 1);
        let b = Matrix::random(br, bc, 2);
        let c0 = Matrix::random(192, 192, 3);
        let (alpha, beta) = (0.75f32, -0.25f32);

        let mut gpu = Gpu::new(gpu_config.generation);
        let run = run_sgemm(&mut gpu, &build, &a, &b, &c0, alpha, beta)?;

        let mut c_ref = c0.data.clone();
        cpu::sgemm(
            variant,
            192,
            192,
            64,
            alpha,
            &a.data,
            problem.lda() as usize,
            &b.data,
            problem.ldb() as usize,
            beta,
            &mut c_ref,
            192,
        );
        let reference = Matrix {
            rows: 192,
            cols: 192,
            ld: 192,
            data: c_ref,
        };
        let diff = run.c.max_abs_diff(&reference);
        println!(
            "  {}: max |diff| = {diff:.2e} over {} executed warp instructions \
             ({:.1}% FFMA)",
            variant.name(),
            run.stats.warp_instructions,
            100.0 * run.stats.mix.fraction_prefix("FFMA"),
        );
        assert!(diff < 1e-3);
    }

    // --- Performance: 960^3 on the cycle-level engine ---------------------
    println!(
        "\ntiming SGEMM NN 960x960x960 on the simulated {}...",
        gpu_config.name
    );
    let problem = SgemmProblem::square(Variant::NN, 960);
    let bound = UpperBoundModel::new(&gpu_config).best_sgemm_bound();
    for preset in [Preset::AsmOpt, Preset::CublasLike, Preset::MagmaLike] {
        let build = build_preset(gpu_config.generation, &problem, preset)?;
        let mut memory = GlobalMemory::new();
        let params = launch_params(upload_problem(&mut memory, &problem, 42)?, 1.0, 0.0);
        let timing = time_kernel(
            &gpu_config,
            &build.kernel,
            build.config,
            &params,
            &mut memory,
            Some(problem.flops()),
        )?;
        println!(
            "  {:<12} {:>7.1} GFLOPS  ({:.1}% of peak, {:.1}% of the {:.0} GFLOPS bound)",
            preset.name(),
            timing.gflops,
            100.0 * timing.gflops / gpu_config.theoretical_peak_gflops(),
            100.0 * timing.gflops / bound.gflops,
            bound.gflops,
        );
    }
    println!(
        "\npaper reference on real silicon: ~74.2% of peak for the assembly \
         kernel, ~70% for CUBLAS 4.1"
    );
    Ok(())
}
