//! Timing-only runs (`run_cached`, `time_kernel`, `run_on_sm`) skip the
//! steady-state periods of a loop that finishes, moving the control
//! slice by its per-period deltas (DESIGN.md §5.1). The skip must be
//! exact: every `TimingReport` field, or the error, is what a run that
//! steps every cycle gives.

use peakperf::arch::{GpuConfig, LdsWidth};
use peakperf::kernels::microbench::{math, mix, run_on_sm, saturating_launch, threads};
use peakperf::kernels::sgemm::{
    alloc_problem, build_preset, launch_params, Preset, SgemmProblem, Variant,
};
use peakperf::sass::{CmpOp, Kernel, KernelBuilder, LogicOp, MemSpace, MemWidth, Operand};
use peakperf::sass::{Pred, Reg, SpecialReg};
use peakperf::sim::timing::cache::run_cached;
use peakperf::sim::timing::{time_kernel, Hooks, TimingReport, TimingSim};
use peakperf::sim::{with_counter_scope, GlobalMemory, LaunchConfig, SimError};

/// What `sim` reports when it steps every cycle.
fn stepped(sim: &TimingSim, memory: &mut GlobalMemory) -> Result<TimingReport, SimError> {
    sim.run(memory, Hooks::default().step_every_cycle())
}

/// Every SGEMM preset and variant at `size`³ on `gpu`: the timing-only
/// report of `time_kernel` against stepping; returns the cycles skipped
/// and simulated per case.
fn sgemm_cases(gpu: &GpuConfig, size: u32) -> Vec<(String, u64, u64)> {
    let mut skips = Vec::new();
    for preset in Preset::ALL {
        for variant in Variant::ALL {
            let problem = SgemmProblem::square(variant, size);
            let build = build_preset(gpu.generation, &problem, preset).unwrap();
            let at = format!("{} {} {} {size}³", gpu.name, preset.name(), variant.name());
            let mut memory = GlobalMemory::new();
            let params = launch_params(alloc_problem(&mut memory, &problem).unwrap(), 1.0, 0.0);
            let fresh = memory.clone();
            let (timing, counters) = with_counter_scope(|| {
                time_kernel(gpu, &build.kernel, build.config, &params, &mut memory, None)
            });
            let timing = timing.unwrap();
            let sim = TimingSim::new(gpu, &build.kernel, build.config, &params).unwrap();
            let want = stepped(&sim, &mut fresh.clone()).unwrap();
            assert_eq!(timing.sm, want, "{at}");
            skips.push((at, counters.skipped_cycles, want.cycles));
        }
    }
    skips
}

#[test]
fn timing_only_sgemm_reports_what_stepping_reports_on_gtx580() {
    let gpu = GpuConfig::gtx580();
    let skips: Vec<_> = [96, 192, 576]
        .iter()
        .flat_map(|&n| sgemm_cases(&gpu, n))
        .collect();
    let (_, skipped, cycles) = (skips.iter())
        .find(|(at, ..)| at == "GTX580 asm NN 576³")
        .unwrap_or_else(|| panic!("no asm NN 576³ case in {skips:?}"));
    assert!(
        2 * skipped > *cycles,
        "skipped {skipped} of {cycles} cycles"
    );
}

#[test]
fn timing_only_sgemm_reports_what_stepping_reports_on_gtx680() {
    let gpu = GpuConfig::gtx680();
    for size in [96, 192, 576] {
        sgemm_cases(&gpu, size);
    }
}

/// A microbenchmark kernel through `run_on_sm` against stepping.
fn check_micro(gpu: &GpuConfig, kernel: &Kernel, threads: u32, blocks: u32, at: &str) {
    let got = run_on_sm(gpu, kernel, threads, blocks);
    let config = LaunchConfig::linear(blocks, threads);
    let sim = TimingSim::new(gpu, kernel, config, &[]).unwrap();
    assert_eq!(
        got,
        stepped(&sim, &mut GlobalMemory::new()),
        "{} {at}",
        gpu.name
    );
}

#[test]
fn timing_only_microbenchmarks_report_what_stepping_reports() {
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let (saturating, blocks) = saturating_launch(&gpu);
        for pattern in math::table2_patterns() {
            let kernel = math::math_kernel(gpu.generation, &pattern).unwrap();
            check_micro(&gpu, &kernel, saturating, blocks, &pattern.label());
        }
        for width in [LdsWidth::B32, LdsWidth::B64, LdsWidth::B128] {
            for ratio in 0..=32 {
                let kernel = mix::build_mix_kernel(gpu.generation, ratio, width, 12, 16).unwrap();
                let at = format!("mix {ratio}:1 {width:?}");
                check_micro(&gpu, &kernel, saturating, blocks, &at);
            }
        }
        for dep in [
            threads::Dependence::Dependent,
            threads::Dependence::Independent,
        ] {
            let kernel = threads::build_threads_kernel(gpu.generation, dep, 12, 16).unwrap();
            for count in threads::sweep(&gpu) {
                let (per_block, blocks) = threads::launch(count);
                let at = format!("threads {} {count}", dep.name());
                check_micro(&gpu, &kernel, per_block, blocks, &at);
            }
        }
    }
}

/// `body` after a prologue that sets R1 to the thread index and R2 to
/// its word address in `out`, a 64 KiB buffer, timed only and stepping on
/// both GPUs with one warp and 24 KiB of shared memory; returns the
/// cycles the timing-only runs skipped.
fn check_loop(name: &str, body: &dyn Fn(&mut KernelBuilder, Reg)) -> [u64; 2] {
    [GpuConfig::gtx580(), GpuConfig::gtx680()].map(|gpu| {
        let mut b = KernelBuilder::new(name, gpu.generation);
        let out = b.param("out");
        b.shared_bytes(24 * 1024);
        b.s2r(Reg::r(1), SpecialReg::TidX);
        b.mov(Reg::r(2), out);
        b.iscadd(Reg::r(2), Reg::r(1), Reg::r(2), 2);
        body(&mut b, Reg::r(2));
        b.exit();
        let kernel = b.finish().unwrap();
        let mut memory = GlobalMemory::new();
        let out = memory.alloc_zeroed(64 * 1024).unwrap();
        let config = LaunchConfig::linear(1, 32);
        let sim = TimingSim::new(&gpu, &kernel, config, &[out]).unwrap();
        let want = stepped(&sim, &mut memory.clone());
        let (got, counters) = with_counter_scope(|| run_cached(&sim, &mut memory.clone()));
        assert_eq!(got, want, "{name} on {}", gpu.name);
        counters.skipped_cycles
    })
}

/// A loop that counts its iterations from 1 in R3, runs `step`, which
/// sets P0 for the back-edge, then eight FFMAs.
fn counted(b: &mut KernelBuilder, step: &dyn Fn(&mut KernelBuilder)) {
    counted_long(b, 8, step);
}

/// [`counted`] with `ffmas` FFMAs.
fn counted_long(b: &mut KernelBuilder, ffmas: u8, step: &dyn Fn(&mut KernelBuilder)) {
    let top = b.label_here();
    b.iadd(Reg::r(3), Reg::r(3), 1);
    step(b);
    for k in 0..ffmas {
        b.ffma(
            Reg::r(8 + k % 4),
            Reg::r(4),
            Operand::reg(5),
            Reg::r(8 + k % 4),
        );
    }
    b.bra_if(Pred::p(0), false, top);
}

#[test]
fn a_counted_loop_skips_its_steady_state_exactly() {
    let skipped = check_loop("counted", &|b, _| {
        counted(b, &|b| {
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), 3000);
        });
    });
    assert!(skipped.iter().all(|&n| n > 0), "skipped {skipped:?}");
}

#[test]
fn a_counter_that_reaches_its_exit_through_lop_or_shr_is_exact() {
    // Neither form is affine: the compare sees a value whose deltas are
    // unknown, and nothing is skipped.
    let skipped = check_loop("lop_and", &|b, _| {
        counted(b, &|b| {
            b.lop(LogicOp::And, Reg::r(6), Reg::r(3), 4095);
            b.isetp(Pred::p(0), CmpOp::Ne, Reg::r(6), 3000);
        });
    });
    assert_eq!(skipped, [0, 0]);
    check_loop("shr", &|b, _| {
        counted(b, &|b| {
            b.shr(Reg::r(6), Reg::r(3), 3);
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(6), 375);
        });
    });
}

#[test]
fn a_loop_whose_bound_is_loaded_from_memory_is_exact() {
    // The kernel stores its bound and reloads it every iteration. A
    // timing-only run leaves the stores of skipped periods undone, so a
    // kernel whose loads feed a compare or an address skips no period
    // whose slice moves.
    let skipped = check_loop("loaded_bound", &|b, out| {
        b.mov32i(Reg::r(7), 3000);
        b.st(MemSpace::Global, MemWidth::B32, Reg::r(7), out, 0);
        counted(b, &|b| {
            b.ld(MemSpace::Global, MemWidth::B32, Reg::r(6), out, 0);
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), Reg::r(6));
        });
    });
    assert_eq!(skipped, [0, 0]);
}

#[test]
fn a_counter_stored_in_the_loop_and_reloaded_after_it_steers_as_stepping_does() {
    // The loop stores its counter one segment further each iteration.
    // After it, the value stored by iteration 200, in the loop's steady
    // state, decides whether a second loop of 3000 iterations runs: had
    // a skip left that store undone, the run would take the short way.
    let skipped = check_loop("stored_counter", &|b, out| {
        b.mov(Reg::r(7), out);
        counted(b, &|b| {
            b.iadd(Reg::r(7), Reg::r(7), 128);
            b.st(MemSpace::Global, MemWidth::B32, Reg::r(3), Reg::r(7), 0);
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), 400);
        });
        b.ld(MemSpace::Global, MemWidth::B32, Reg::r(6), out, 200 * 128);
        b.isetp(Pred::p(1), CmpOp::Ne, Reg::r(6), 200);
        let done = b.new_label();
        b.bra_if(Pred::p(1), false, done);
        b.mov32i(Reg::r(3), 0);
        counted(b, &|b| {
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), 3000);
        });
        b.bind(done);
    });
    assert_eq!(skipped, [0, 0]);
}

#[test]
fn an_address_moving_by_part_of_a_bank_row_or_segment_is_exact() {
    // Even lanes read shared byte 0, odd lanes byte 252, then 4 bytes
    // further each iteration: on Kepler's 8-byte banks the two words
    // conflict at every other step, so only two iterations recur.
    check_loop("shared_walk", &|b, _| {
        b.lop(LogicOp::And, Reg::r(7), Reg::r(1), 1);
        b.imul(Reg::r(7), Reg::r(7), 252);
        counted(b, &|b| {
            b.iadd(Reg::r(7), Reg::r(7), 4);
            b.ld(MemSpace::Shared, MemWidth::B32, Reg::r(9), Reg::r(7), 0);
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), 3000);
        });
    });
    // A warp's 128 contiguous bytes, 4 bytes further each iteration: one
    // segment in every 32nd iteration, two in the others. The FFMAs hide
    // each load's latency and leave the memory interface idle at every
    // back-edge, so the timing state recurs across the change and only
    // the access itself shows it.
    check_loop("global_walk", &|b, out| {
        counted_long(b, 192, &|b| {
            b.iadd(out, out, 4);
            b.ld(MemSpace::Global, MemWidth::B32, Reg::r(9), out, 0);
            b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), 3000);
        });
    });
}

#[test]
fn a_pointer_that_leaves_its_allocation_in_a_later_period_faults_as_stepping_does() {
    // 128 bytes a period: the load of iteration 512 runs off the end of
    // global memory, long after the loop's steady state begins, and the
    // skip must stop short of it. Enough FFMAs follow each load to hide
    // its latency, so the loop settles into a period. The same loop
    // stopping at iteration 511 completes, having skipped.
    for (iterations, faults) in [(20_000, true), (511, false)] {
        let skipped = check_loop("runaway_pointer", &|b, out| {
            counted_long(b, 192, &|b| {
                b.iadd(out, out, 128);
                b.ld(MemSpace::Global, MemWidth::B32, Reg::r(9), out, 0);
                b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(3), iterations);
            });
        });
        assert_eq!(
            skipped.iter().all(|&n| n > 0),
            !faults,
            "skipped {skipped:?}"
        );
    }
}
