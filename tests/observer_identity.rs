//! Hooks are pure observers: every observer, token and cycle-limit
//! configuration of `TimingSim::run` must produce the `TimingReport` of a
//! bare run, field for field. The same wave, run in full, computes and
//! counts what the functional simulator computes and counts.

use peakperf::arch::GpuConfig;
use peakperf::kernels::microbench::math::{math_kernel, table2_patterns};
use peakperf::kernels::microbench::saturating_launch;
use peakperf::kernels::sgemm::{
    build_preset, launch_params, upload_problem, Preset, SgemmProblem, Variant,
};
use peakperf::sass::Kernel;
use peakperf::sim::timing::{
    Hooks, Observer, ProfileBuilder, TimingReport, TimingSim, TraceBuffer,
};
use peakperf::sim::{CancelToken, GlobalMemory, Gpu, LaunchConfig, SimError};

/// The problem of one resident wave of the tuned SGEMM kernel.
const PROBLEM: SgemmProblem = SgemmProblem {
    variant: Variant::NN,
    m: 192,
    n: 96,
    k: 64,
};

/// One resident wave of the tuned SGEMM kernel: `BAR.SYNC`, global and
/// shared loads on both generations, dual issue on Kepler. The grid's two
/// blocks fit on one SM, so the wave is the whole launch.
fn run_wave<O: Observer>(gpu: &GpuConfig, hooks: Hooks<'_, O>) -> TimingReport {
    let mut memory = GlobalMemory::new();
    let build = build_preset(gpu.generation, &PROBLEM, Preset::AsmOpt).unwrap();
    let params = launch_params(upload_problem(&mut memory, &PROBLEM, 99).unwrap(), 1.0, 0.0);
    let sim = TimingSim::new(gpu, &build.kernel, build.config, &params).unwrap();
    assert_eq!(sim.occupancy().1 as u64, build.config.total_blocks());
    sim.run(&mut memory, hooks).unwrap()
}

/// Run one launch through `TimingSim::run` and `Gpu::launch` and hold
/// the two engines equal: the same global memory word for word, and the
/// same instruction mix, warp and thread instructions and flops. The
/// launch must fit one resident wave, so both engines run every block.
fn assert_engines_agree(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
    problem: Option<&SgemmProblem>,
    what: &str,
) {
    let params = |memory: &mut GlobalMemory| match problem {
        Some(p) => launch_params(upload_problem(memory, p, 99).unwrap(), 1.0, 0.0).to_vec(),
        None => Vec::new(),
    };
    let mut timed = GlobalMemory::new();
    let sim = TimingSim::new(gpu, kernel, config, &params(&mut timed)).unwrap();
    assert_eq!(sim.occupancy().1 as u64, config.total_blocks(), "{what}");
    let report = sim.run(&mut timed, Hooks::default()).unwrap();

    let mut func = Gpu::from_config(gpu);
    let func_params = params(func.memory_mut());
    let stats = func.launch(kernel, config, &func_params).unwrap();
    let counts = (
        &stats.mix,
        stats.warp_instructions,
        stats.thread_instructions,
        stats.flops,
    );
    assert_eq!(
        (
            &report.mix,
            report.warp_instructions,
            report.thread_instructions,
            report.flops
        ),
        counts,
        "{what}: timed and launched counts"
    );

    let launched = func.memory();
    assert_eq!(timed.size(), launched.size(), "{what}");
    let word = |m: &GlobalMemory, addr| m.read_u32(addr).unwrap();
    let first = (4..timed.size())
        .step_by(4)
        .find(|&addr| word(&timed, addr) != word(launched, addr));
    if let Some(addr) = first {
        panic!(
            "{what}: first differing word at {addr:#x}: timed {:#010x}, launched {:#010x}",
            word(&timed, addr),
            word(launched, addr)
        );
    }
}

/// On both GPUs, the two-block wave above, every SGEMM preset and variant
/// on a one-block 96×96×64 grid and every Table 2 kernel at its
/// saturating launch compute and count the same through both engines.
/// A size the 96-wide tile does not divide is refused, not run.
#[test]
fn the_wave_computes_what_the_functional_simulator_computes() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let name = gpu.name;
        let build = build_preset(gpu.generation, &PROBLEM, Preset::AsmOpt).unwrap();
        let what = format!("{name} two-block wave");
        assert_engines_agree(&gpu, &build.kernel, build.config, Some(&PROBLEM), &what);

        for preset in Preset::ALL {
            for variant in Variant::ALL {
                let what = format!("{name} {} {}", preset.name(), variant.name());
                let problem = SgemmProblem {
                    variant,
                    m: 96,
                    n: 96,
                    k: 64,
                };
                let build = build_preset(gpu.generation, &problem, preset).unwrap();
                assert_engines_agree(&gpu, &build.kernel, build.config, Some(&problem), &what);

                let off_tile = SgemmProblem::square(variant, 100);
                let refused = build_preset(gpu.generation, &off_tile, preset);
                assert!(
                    matches!(refused, Err(SimError::Launch { .. })),
                    "{what} at 100³: {:?}",
                    refused.map(|b| b.config)
                );
            }
        }

        let (threads, blocks) = saturating_launch(&gpu);
        for pattern in table2_patterns() {
            let kernel = math_kernel(gpu.generation, &pattern).unwrap();
            let what = format!("{name} {}", pattern.label());
            let config = LaunchConfig::linear(blocks, threads);
            assert_engines_agree(&gpu, &kernel, config, None, &what);
        }
    }
}

#[test]
fn every_hook_configuration_is_cycle_identical() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let name = gpu.name;
        let plain = run_wave(&gpu, Hooks::default());
        assert!(plain.global_transactions > 0 && plain.mix.count("BAR.SYNC") > 0);

        let mut buffer = TraceBuffer::new();
        assert_eq!(
            run_wave(&gpu, Hooks::observe(&mut buffer)),
            plain,
            "{name} buffer"
        );
        assert!(!buffer.is_empty());

        let mut builder = ProfileBuilder::new();
        assert_eq!(
            run_wave(&gpu, Hooks::observe(&mut builder)),
            plain,
            "{name} profile"
        );
        let kernel = build_preset(gpu.generation, &PROBLEM, Preset::AsmOpt)
            .unwrap()
            .kernel;
        let alone = builder.finish(&kernel, &plain);
        assert!(alone.idle_cycles <= plain.cycles);

        let mut paired = (TraceBuffer::new(), ProfileBuilder::new());
        assert_eq!(
            run_wave(&gpu, Hooks::observe(&mut paired)),
            plain,
            "{name} pair"
        );
        // Each side of the pair saw what it sees alone.
        assert_eq!(paired.0.events(), buffer.events());
        let profile = paired.1.finish(&kernel, &plain);
        assert_eq!(profile.to_json(), alone.to_json(), "{name} pair profile");

        let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let hooks = Hooks::default()
            .cancel(Some(&token))
            .cycle_limit(plain.cycles);
        assert_eq!(run_wave(&gpu, hooks), plain, "{name} token + cycle limit");
    }
}
