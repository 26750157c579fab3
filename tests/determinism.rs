//! Determinism, cross-generation sanity and launch-check tests.

use peakperf::arch::{Generation, GpuConfig};
use peakperf::kernels::microbench::mix;
use peakperf::kernels::sgemm::{
    alloc_problem, build_preset, launch_params, upload_problem, Preset, SgemmProblem, Variant,
};
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
        let params = launch_params(upload_problem(&mut memory, &problem, 99).unwrap(), 1.0, 0.0);
        let t = time_kernel(
            &gpu,
            &build.kernel,
            build.config,
            &params,
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

/// Simulated time does not read operand values: every preset and variant
/// on both GPUs times the same on seeded random operands
/// (`upload_problem`) as on the zeros `alloc_problem` leaves, to the cycle
/// and the last bit. Timing-only callers rely on this to skip generating
/// operands, and the timing cache's key omits memory contents for the
/// same reason.
#[test]
fn timing_does_not_read_operand_values() {
    let mut cases = Vec::new();
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        for preset in Preset::ALL {
            for variant in Variant::ALL {
                cases.push((gpu.clone(), preset, SgemmProblem::square(variant, 96)));
            }
        }
        cases.push((gpu, Preset::AsmOpt, SgemmProblem::square(Variant::NN, 192)));
    }
    for (gpu, preset, problem) in &cases {
        let build = build_preset(gpu.generation, problem, *preset).unwrap();
        let time = |random: bool| {
            let mut memory = GlobalMemory::new();
            let params = launch_params(
                if random {
                    upload_problem(&mut memory, problem, 0xC0FFEE)
                } else {
                    alloc_problem(&mut memory, problem)
                }
                .unwrap(),
                1.0,
                0.0,
            );
            time_kernel(
                gpu,
                &build.kernel,
                build.config,
                &params,
                &mut memory,
                Some(problem.flops()),
            )
            .unwrap()
        };
        let (random, zero) = (time(true), time(false));
        let at = format!(
            "{} {} {} {}³",
            gpu.name,
            preset.name(),
            problem.variant.name(),
            problem.m
        );
        assert_eq!(zero.sm, random.sm, "{at}");
        assert_eq!(zero.total_cycles, random.total_cycles, "{at}");
        assert_eq!(zero.waves, random.waves, "{at}");
        assert_eq!(zero.gflops.to_bits(), random.gflops.to_bits(), "{at}");
    }
}

/// `alloc_problem` and `upload_problem` put A, B and C where three
/// allocations in a row put them: the same three addresses and the same
/// backing size, for shapes whose matrices end off the 128-byte
/// allocation grid and on a memory that already holds an allocation.
#[test]
fn sgemm_operands_sit_where_three_allocations_put_them() {
    let odd = SgemmProblem {
        variant: Variant::NN,
        m: 33,
        n: 17,
        k: 5,
    };
    let bytes = |(rows, cols): (usize, usize)| (4 * rows * cols) as u32;
    let fresh = || {
        let mut memory = GlobalMemory::new();
        memory.alloc_zeroed(4).unwrap();
        memory
    };
    for variant in Variant::ALL {
        for problem in [
            SgemmProblem { variant, ..odd },
            SgemmProblem::square(variant, 96),
        ] {
            let mut memory = fresh();
            let a = memory.alloc_zeroed(bytes(problem.a_shape())).unwrap();
            let b = memory.alloc_zeroed(bytes(problem.b_shape())).unwrap();
            let c = memory.alloc_zeroed(problem.m * problem.n * 4).unwrap();
            let want = ((a, b, c), memory.size());
            let mut memory = fresh();
            let zeroed = alloc_problem(&mut memory, &problem).unwrap();
            assert_eq!((zeroed, memory.size()), want, "{problem:?}");
            let mut memory = fresh();
            let uploaded = upload_problem(&mut memory, &problem, 0xC0FFEE).unwrap();
            assert_eq!((uploaded, memory.size()), want, "{problem:?}");
        }
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
    let err = TimingSim::new(&GpuConfig::gtx280(), &kernel, config, &[]).err();
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
            let timing = TimingSim::new(&gpu, &kernel, config, params).err();
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
        assert!(TimingSim::new(&gpu, &kernel, config, &[0]).is_ok());
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
        let params = launch_params(upload_problem(&mut memory, &problem, 5).unwrap(), 1.0, 0.0);
        let t = time_kernel(
            &gpu,
            &build.kernel,
            build.config,
            &params,
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
