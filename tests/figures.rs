//! Figure-shape assertions: the claims the reproduction must preserve from
//! the paper's evaluation (who wins, saturation points, conflict effects),
//! measured on the simulator — and the analytic tables, pinned to the
//! checked-in `reproduce all` output.

use peakperf::arch::{GpuConfig, LdsWidth};
use peakperf::bound::UpperBoundModel;
use peakperf::kernels::microbench::{family, math, mix, saturating_launch, threads};
use peakperf::kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf::regalloc::analyze_ffma_conflicts;
use peakperf::sass::Kernel;
use peakperf::sim::timing::{time_kernel, TimingSim};
use peakperf::sim::{GlobalMemory, LaunchConfig};
use peakperf_bench::experiments;

fn gflops(gpu: &GpuConfig, preset: Preset, size: u32) -> f64 {
    let problem = SgemmProblem {
        variant: Variant::NN,
        m: size,
        n: size,
        k: 480,
    };
    let build = build_preset(gpu.generation, &problem, preset).unwrap();
    let mut memory = GlobalMemory::new();
    let (a, b, c) = upload_problem(&mut memory, &problem, 1).unwrap();
    time_kernel(
        gpu,
        &build.kernel,
        build.config,
        &[a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()],
        &mut memory,
        Some(problem.flops()),
    )
    .unwrap()
    .gflops
}

/// Figure 5/6/7 headline: the assembly kernel beats the CUBLAS-like build,
/// which beats the MAGMA-like build, on both GPUs.
#[test]
fn asm_beats_cublas_beats_magma() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let asm = gflops(&gpu, Preset::AsmOpt, 960);
        let cublas = gflops(&gpu, Preset::CublasLike, 960);
        let magma = gflops(&gpu, Preset::MagmaLike, 960);
        assert!(
            asm > cublas && cublas > magma * 0.98,
            "{}: asm {asm:.0} cublas {cublas:.0} magma {magma:.0}",
            gpu.name
        );
    }
}

/// Section 5.4: on Kepler, the bank-optimized registers buy a significant
/// speedup over the naive assignment (the paper's 1100 -> 1300 GFLOPS);
/// on Fermi (no banks) the two are identical.
#[test]
fn bank_optimization_only_matters_on_kepler() {
    let kepler = GpuConfig::gtx680();
    let opt = gflops(&kepler, Preset::AsmOpt, 960);
    let naive = gflops(&kepler, Preset::AsmNaiveRegs, 960);
    assert!(
        opt > naive * 1.1,
        "Kepler: optimized {opt:.0} should be >10% over naive {naive:.0}"
    );

    let fermi = GpuConfig::gtx580();
    let opt = gflops(&fermi, Preset::AsmOpt, 960);
    let naive = gflops(&fermi, Preset::AsmNaiveRegs, 960);
    assert!(
        (opt - naive).abs() < 1e-6,
        "Fermi has no register banks: {opt} vs {naive}"
    );
}

/// The achieved/bound relationship holds in character: the simulated asm
/// kernel lands within (55%, 100%) of its estimated upper bound and the
/// bound is never exceeded — the definition of an upper bound.
#[test]
fn achieved_stays_below_the_bound() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let bound = UpperBoundModel::new(&gpu).best_sgemm_bound().gflops;
        let asm = gflops(&gpu, Preset::AsmOpt, 1920);
        let frac = asm / bound;
        assert!(
            (0.55..1.0).contains(&frac),
            "{}: asm {asm:.0} vs bound {bound:.0} ({frac:.2})",
            gpu.name
        );
    }
}

/// Figure 2 shape: throughput grows with the FFMA:LDS ratio and saturates
/// near each generation's issue limit.
#[test]
fn fig2_shape_holds() {
    for (gpu, cap) in [(GpuConfig::gtx580(), 32.0), (GpuConfig::gtx680(), 132.0)] {
        let low = mix::measure_mix(&gpu, 1, LdsWidth::B64).unwrap().throughput;
        let high = mix::measure_mix(&gpu, 24, LdsWidth::B64)
            .unwrap()
            .throughput;
        assert!(low < high, "{}: {low} !< {high}", gpu.name);
        assert!(high <= cap * 1.02, "{}: {high} above cap {cap}", gpu.name);
        assert!(
            high >= cap * 0.80,
            "{}: {high} too far below cap {cap}",
            gpu.name
        );
    }
}

/// Figure 4 shape: Kepler is much farther from saturation at 512 threads
/// than Fermi (the increasing need for active threads).
#[test]
fn fig4_kepler_needs_more_threads() {
    let fermi = GpuConfig::gtx580();
    let kepler = GpuConfig::gtx680();
    let sat = |gpu: &GpuConfig, t: u32| {
        threads::measure_threads(gpu, threads::Dependence::Dependent, t)
            .unwrap()
            .throughput
    };
    let fermi_ratio = sat(&fermi, 512) / sat(&fermi, 1536);
    let kepler_ratio = sat(&kepler, 512) / sat(&kepler, 2048);
    assert!(
        fermi_ratio > 0.85,
        "Fermi at 512 threads should be near saturation: {fermi_ratio:.2}"
    );
    assert!(
        kepler_ratio < fermi_ratio,
        "Kepler ({kepler_ratio:.2}) must need more threads than Fermi ({fermi_ratio:.2})"
    );
}

/// Every microbenchmark row's simulated wave holds the active threads the
/// row reports: each Figure 4 point on both GPUs, and the saturating
/// launch of every Table 2, Figure 2 and `family::standard_specs` kernel.
/// The SM places the wave (Section 4.4's occupancy), so a kernel whose
/// registers, shared memory or block size do not let that many threads
/// fit on the SM fails here rather than printing a figure the SM could
/// not hold.
#[test]
fn every_microbenchmark_wave_holds_the_threads_it_reports() {
    let mut short = Vec::new();
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let wave_threads = |kernel: &Kernel, (threads, blocks): (u32, u32)| {
            let config = LaunchConfig::linear(blocks, threads);
            let sim = TimingSim::new(&gpu, kernel, config, &[]).unwrap();
            sim.occupancy().1 * threads
        };
        for dep in [
            threads::Dependence::Dependent,
            threads::Dependence::Independent,
        ] {
            let kernel = threads::build_threads_kernel(gpu.generation, dep, 12, 16).unwrap();
            for count in threads::sweep(&gpu) {
                let held = wave_threads(&kernel, threads::launch(count));
                if held != count {
                    let regs = kernel.num_regs;
                    let at = format!("{} fig4 {} {count}", gpu.name, dep.name());
                    short.push(format!("{at}: {held} held, {regs} registers each"));
                }
            }
        }
        // The kernels `measure_math`, `measure_mix` and `measure_spec` time.
        let mut kernels = Vec::new();
        for pattern in math::table2_patterns() {
            kernels.push((pattern.label(), math::math_kernel(gpu.generation, &pattern)));
        }
        for ratio in 0..=32 {
            for width in LdsWidth::ALL {
                let kernel = mix::build_mix_kernel(gpu.generation, ratio, width, 12, 16);
                kernels.push((format!("fig2 {ratio}:1 {width:?}"), kernel));
            }
        }
        for spec in family::standard_specs() {
            let kernel = family::generate(gpu.generation, &spec, spec.groups(), 12);
            kernels.push((spec.label(), kernel));
        }
        let (threads, blocks) = saturating_launch(&gpu);
        for (at, kernel) in kernels {
            let kernel = kernel.unwrap();
            let held = wave_threads(&kernel, (threads, blocks));
            if held != threads * blocks {
                let regs = kernel.num_regs;
                short.push(format!(
                    "{} {at}: {held} held, {regs} registers each",
                    gpu.name
                ));
            }
        }
    }
    assert!(
        short.is_empty(),
        "waves short of their rows:\n{}",
        short.join("\n")
    );
}

/// Table 2 reproduction: every measured point within 12% of the paper's
/// value (the conflict levels and the IMUL path are the claims).
#[test]
fn table2_within_tolerance() {
    let gpu = GpuConfig::gtx680();
    let rows = math::measure_table2(&gpu).unwrap();
    let paper = [
        128.7, 132.0, 66.2, 129.0, 132.0, 66.2, 129.0, 132.0, 66.2, 44.2, 128.7, 132.4, 66.2, 33.2,
        33.2, 33.2, 33.2, 33.1, 33.2, 26.5,
    ];
    for (row, &expect) in rows.iter().zip(paper.iter()) {
        let rel = (row.throughput - expect).abs() / expect;
        assert!(
            rel < 0.12,
            "{}: measured {:.1}, paper {expect} ({:.0}% off)",
            row.pattern.label(),
            row.throughput,
            rel * 100.0
        );
    }
}

/// Section 5.5 database: a reference counts the spec's own stream, every
/// group of every iteration in every warp, and not the loop counter.
#[test]
fn throughput_references_count_only_the_spec_stream() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        for spec in family::standard_specs() {
            let r = family::measure_spec(&gpu, &spec).unwrap();
            let warps = u64::from(r.threads / 32);
            let stream = u64::from(spec.groups() * spec.group_len()) * 12 * warps;
            assert_eq!(r.warp_insts, stream, "{}/{}", gpu.name, spec.label());
        }
    }
}

/// Figure 8: the static conflict census separates the three register
/// plans the way the paper's bars do.
#[test]
fn fig8_census_ordering() {
    let problem = SgemmProblem::square(Variant::NN, 96);
    let census = |preset: Preset| {
        let build = build_preset(peakperf::arch::Generation::Kepler, &problem, preset).unwrap();
        analyze_ffma_conflicts(&build.kernel.code)
    };
    let opt = census(Preset::AsmOpt);
    let naive = census(Preset::AsmNaiveRegs);
    let magma = census(Preset::MagmaLike);
    // Optimized: (near) conflict-free main loop.
    assert!(
        opt.two_way_fraction() + opt.three_way_fraction() < 0.10,
        "optimized: {opt}"
    );
    // MAGMA-like: a noticeable minority conflicted (paper ~30%).
    let magma_frac = magma.two_way_fraction() + magma.three_way_fraction();
    assert!((0.10..=0.55).contains(&magma_frac), "magma-like: {magma}");
    // Naive: the worst (paper's first version: ~79%).
    assert!(
        naive.two_way_fraction() + naive.three_way_fraction() > magma_frac,
        "naive {naive} should conflict more than magma-like {magma}"
    );
}

/// Section 5.5: the automatic register-renaming optimizer removes the
/// naive plan's conflicts while preserving the kernel's results exactly.
#[test]
fn optimizer_fixes_naive_kernel_and_preserves_semantics() {
    use peakperf::kernels::matrix::Matrix;
    use peakperf::kernels::sgemm::run_sgemm;
    use peakperf::regalloc::optimize_banks;
    use peakperf::sim::Gpu;

    let generation = peakperf::arch::Generation::Kepler;
    let problem = SgemmProblem {
        variant: Variant::NN,
        m: 96,
        n: 96,
        k: 32,
    };
    let build = build_preset(generation, &problem, Preset::AsmNaiveRegs).unwrap();
    let out = optimize_banks(&build.kernel).unwrap();
    assert!(out.before.two_way + out.before.three_way > 0);
    assert_eq!(out.after.two_way + out.after.three_way, 0, "{}", out.after);

    let a = Matrix::random(96, 32, 7);
    let b = Matrix::random(32, 96, 8);
    let c0 = Matrix::random(96, 96, 9);
    let mut gpu = Gpu::new(generation);
    let original = run_sgemm(&mut gpu, &build, &a, &b, &c0, 1.5, 0.5).unwrap();
    let rewritten_build = peakperf::kernels::sgemm::SgemmBuild {
        kernel: out.kernel,
        config: build.config,
        problem,
    };
    let mut gpu = Gpu::new(generation);
    let rewritten = run_sgemm(&mut gpu, &rewritten_build, &a, &b, &c0, 1.5, 0.5).unwrap();
    // Bit-identical: a register permutation changes nothing numerically.
    assert_eq!(original.c.data, rewritten.c.data);
}

#[test]
fn analytic_tables_match_the_checked_in_output() {
    // Table 1, Figure 3, the Section 4.5 bounds and the register-limit
    // ablation simulate nothing, so any drift in the bound's inputs (`F_T`
    // included) shows here without running `reproduce all`.
    let output = include_str!("../reproduce_output.txt");
    for (name, table) in [
        ("table1", experiments::table1()),
        ("fig3", experiments::fig3()),
        ("upperbound", experiments::upperbound()),
        ("ablation", experiments::ablation()),
    ] {
        assert!(
            output.contains(&table),
            "`{name}` no longer prints what reproduce_output.txt holds:\n{table}"
        );
    }
}
