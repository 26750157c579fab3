//! Hooks are pure observers: every observer, token and cycle-limit
//! configuration of `TimingSim::run` must produce the `TimingReport` of a
//! bare run, field for field. The same wave, run in full, computes what
//! the functional simulator computes.

use peakperf::arch::GpuConfig;
use peakperf::kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf::sim::timing::{
    Hooks, Observer, ProfileBuilder, TimingReport, TimingSim, TraceBuffer,
};
use peakperf::sim::{CancelToken, GlobalMemory, Gpu};

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
    run_wave_on(gpu, &mut GlobalMemory::new(), hooks)
}

/// [`run_wave`] on `memory`, which receives the operands and the result.
fn run_wave_on<O: Observer>(
    gpu: &GpuConfig,
    memory: &mut GlobalMemory,
    hooks: Hooks<'_, O>,
) -> TimingReport {
    let build = build_preset(gpu.generation, &PROBLEM, Preset::AsmOpt).unwrap();
    let (a, b, c) = upload_problem(memory, &PROBLEM, 99).unwrap();
    let params = [a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()];
    let sim = TimingSim::new(gpu, &build.kernel, build.config, &params).unwrap();
    assert_eq!(sim.occupancy().1 as u64, build.config.total_blocks());
    sim.run(memory, hooks).unwrap()
}

/// The wave through `TimingSim::run` leaves global memory exactly as
/// `Gpu::launch` of the same launch does, on both GPUs: both engines
/// compute both blocks, so every word of A, B and C agrees.
#[test]
fn the_wave_computes_what_the_functional_simulator_computes() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let mut timed = GlobalMemory::new();
        run_wave_on(&gpu, &mut timed, Hooks::default());

        let build = build_preset(gpu.generation, &PROBLEM, Preset::AsmOpt).unwrap();
        let mut func = Gpu::from_config(&gpu);
        let (a, b, c) = upload_problem(func.memory_mut(), &PROBLEM, 99).unwrap();
        let params = [a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()];
        func.launch(&build.kernel, build.config, &params).unwrap();
        let launched = func.memory();

        assert_eq!(timed.size(), launched.size(), "{}", gpu.name);
        let word = |m: &GlobalMemory, addr| m.read_u32(addr).unwrap();
        let first = (4..timed.size())
            .step_by(4)
            .find(|&addr| word(&timed, addr) != word(launched, addr));
        if let Some(addr) = first {
            panic!(
                "{}: first differing word at {addr:#x}: timed {:#010x}, launched {:#010x}",
                gpu.name,
                word(&timed, addr),
                word(launched, addr)
            );
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
