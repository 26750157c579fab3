//! Determinism, cross-generation sanity and launch-check tests.

use peakperf::arch::{Generation, GpuConfig};
use peakperf::kernels::microbench::mix;
use peakperf::kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf::sass::KernelBuilder;
use peakperf::sim::timing::{time_kernel, TimingSim};
use peakperf::sim::{GlobalMemory, Gpu, LaunchConfig, SimError};

/// The simulator is a pure function of its inputs: identical launches
/// produce identical cycle counts and results, run after run.
#[test]
fn timing_simulation_is_deterministic() {
    let gpu = GpuConfig::gtx580();
    let problem = SgemmProblem {
        variant: Variant::NN,
        m: 192,
        n: 96,
        k: 64,
    };
    let build = build_preset(gpu.generation, &problem, Preset::AsmOpt).unwrap();
    let run = || {
        let mut memory = GlobalMemory::new();
        let (a, b, c) = upload_problem(&mut memory, &problem, 99).unwrap();
        let t = time_kernel(
            &gpu,
            &build.kernel,
            build.config,
            &[a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()],
            &mut memory,
            Some(problem.flops()),
        )
        .unwrap();
        (t.total_cycles, t.sm.warp_instructions, t.sm.flops)
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

/// Microbenchmark measurements are reproducible to the cycle.
#[test]
fn microbenchmarks_are_deterministic() {
    let gpu = GpuConfig::gtx680();
    let a = mix::measure_mix(&gpu, 6, peakperf::arch::LdsWidth::B64).unwrap();
    let b = mix::measure_mix(&gpu, 6, peakperf::arch::LdsWidth::B64).unwrap();
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
}

/// GT200 has no timing model: the paper measures only Fermi and Kepler,
/// so the timing engine refuses a GT200 card with a typed launch error.
#[test]
fn gt200_has_no_timing_model() {
    let mut b = KernelBuilder::new("gt200_exit", Generation::Gt200);
    b.exit();
    let kernel = b.finish().unwrap();
    let config = LaunchConfig::linear(1, 32);
    let err = TimingSim::new(&GpuConfig::gtx280(), &kernel, config, &[], 1).err();
    assert!(
        matches!(&err, Some(SimError::Launch { message }) if message.contains("only Fermi and Kepler")),
        "{err:?}"
    );
}

/// The functional and the timing engine make one launch check: an empty
/// block, a block over Table 1's 1024 threads, or the wrong parameter
/// count is a typed launch error from both, and a full block is not.
#[test]
fn both_engines_reject_the_same_launches() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let mut b = KernelBuilder::new("one_param", gpu.generation);
        b.param("out");
        b.exit();
        let kernel = b.finish().unwrap();
        for (threads, params) in [(0, &[0u32][..]), (1025, &[0]), (32, &[])] {
            let config = LaunchConfig::linear(1, threads);
            let func = Gpu::from_config(&gpu).launch(&kernel, config, params).err();
            let timing = TimingSim::new(&gpu, &kernel, config, params, 1).err();
            for (engine, err) in [("functional", func), ("timing", timing)] {
                assert!(
                    matches!(err, Some(SimError::Launch { .. })),
                    "{} {engine}: {threads} threads, {} params: {err:?}",
                    gpu.name,
                    params.len()
                );
            }
        }
        let config = LaunchConfig::linear(1, 1024);
        assert!(Gpu::from_config(&gpu).launch(&kernel, config, &[0]).is_ok());
        assert!(TimingSim::new(&gpu, &kernel, config, &[0], 1).is_ok());
    }
}

/// The three generations order as Table 1 says for the same SGEMM: Kepler
/// above Fermi in absolute GFLOPS (more SPs), both far above their naive
/// kernels.
#[test]
fn generations_order_sanely() {
    let problem = SgemmProblem::square(Variant::NN, 960);
    let mut results = Vec::new();
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let build = build_preset(gpu.generation, &problem, Preset::AsmOpt).unwrap();
        let mut memory = GlobalMemory::new();
        let (a, b, c) = upload_problem(&mut memory, &problem, 5).unwrap();
        let t = time_kernel(
            &gpu,
            &build.kernel,
            build.config,
            &[a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()],
            &mut memory,
            Some(problem.flops()),
        )
        .unwrap();
        results.push((gpu.name, t.gflops));
    }
    assert!(
        results[1].1 > results[0].1,
        "Kepler ({:.0}) should outrun Fermi ({:.0}) in absolute GFLOPS",
        results[1].1,
        results[0].1
    );
}
