//! Hooks are pure observers: every observer, token and cycle-limit
//! configuration of `TimingSim::run` must produce the `TimingReport` of a
//! bare run, field for field.

use peakperf::arch::GpuConfig;
use peakperf::kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf::sim::perfmon::{HostProf, Phase};
use peakperf::sim::timing::{
    Hooks, Observer, ProfileBuilder, TimingReport, TimingSim, TraceBuffer,
};
use peakperf::sim::{CancelToken, GlobalMemory};

/// One resident wave of the tuned SGEMM kernel: `BAR.SYNC`, global and
/// shared loads on both generations, dual issue on Kepler.
fn run_wave<O: Observer>(gpu: &GpuConfig, hooks: Hooks<'_, O>) -> TimingReport {
    let problem = SgemmProblem {
        variant: Variant::NN,
        m: 192,
        n: 96,
        k: 64,
    };
    let build = build_preset(gpu.generation, &problem, Preset::AsmOpt).unwrap();
    let mut memory = GlobalMemory::new();
    let (a, b, c) = upload_problem(&mut memory, &problem, 99).unwrap();
    let params = [a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()];
    let sim = TimingSim::new(gpu, &build.kernel, build.config, &params, 1).unwrap();
    sim.run(&mut memory, hooks).unwrap()
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

        let mut prof = HostProf::new();
        assert_eq!(
            run_wave(&gpu, Hooks::observe(&mut prof)),
            plain,
            "{name} hostprof"
        );
        // The profiler saw a coherent stream: every simulated cycle, wall
        // shares that sum to the total, and no trace consumer to price.
        assert_eq!(prof.cycles(), plain.cycles);
        let shares: u64 = Phase::ALL.into_iter().map(|p| prof.phase_nanos(p)).sum();
        assert_eq!(shares, prof.total_nanos());
        assert_eq!(prof.phase_nanos(Phase::TraceEmit), 0);
        assert!(prof.idle_cycles() <= plain.cycles);

        let mut paired = (TraceBuffer::new(), HostProf::new());
        assert_eq!(
            run_wave(&gpu, Hooks::observe(&mut paired)),
            plain,
            "{name} pair"
        );
        assert_eq!(paired.0.events(), buffer.events());
        assert!(paired.1.phase_nanos(Phase::TraceEmit) > 0);

        let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let hooks = Hooks::default()
            .cancel(Some(&token))
            .cycle_limit(plain.cycles);
        assert_eq!(run_wave(&gpu, hooks), plain, "{name} token + cycle limit");
    }
}
