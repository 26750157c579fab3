//! A run whose whole state recurs can only end at its watchdog, and both
//! simulators skip the repeated periods to get there. The skip must be
//! exact: the error, its per-warp snapshot, the step or cycle it reports
//! and global memory are what simulating every step or cycle gives.

use std::time::{Duration, Instant};

use peakperf::arch::{Generation, GpuConfig};
use peakperf::kernels::sgemm;
use peakperf::sass::{CmpOp, Kernel, KernelBuilder, LogicOp, MemSpace, MemWidth, Pred, Reg};
use peakperf::sass::{Operand, SpecialReg};
use peakperf::sim::cancel::CHECK_INTERVAL_CYCLES;
use peakperf::sim::exec::{step_warp, BlockCtx, MemCtx};
use peakperf::sim::timing::{Hooks, Observer, TimingSim, TraceBuffer};
use peakperf::sim::with_counter_scope;
use peakperf::sim::{CancelToken, Dim3, GlobalMemory, Gpu, HangSnapshot, LaunchConfig};
use peakperf::sim::{SimError, StepEvent, WarpHang, WarpState};
use peakperf_bench::fault::{campaign_cases, mutant_kernel, CampaignConfig, FuzzCase};
use peakperf_bench::fault::{FUZZ_CYCLE_LIMIT, FUZZ_STEP_LIMIT};

mod common;
use common::{fnv64, FNV_OFFSET};

/// Timing runs here stop after this many cycles: enough for the detector
/// to find and skip periods, few enough for a debug build to simulate
/// every cycle of the stepping reference runs.
const CYCLE_LIMIT: u64 = 100_000;

/// A digest of every mapped word of `memory`.
fn memory_digest(memory: &GlobalMemory) -> u64 {
    (4..memory.size()).step_by(4).fold(FNV_OFFSET, |h, addr| {
        fnv64(h, &memory.read_u32(addr).unwrap().to_le_bytes())
    })
}

/// A kernel that writes `out[tid] = tid` and then spins in a `BRA` to
/// itself.
fn spin_kernel(generation: Generation) -> Kernel {
    let mut b = KernelBuilder::new("spin", generation);
    let out = b.param("out");
    b.s2r(Reg::r(0), SpecialReg::TidX);
    b.mov(Reg::r(1), out);
    b.iscadd(Reg::r(1), Reg::r(0), Reg::r(1), 2);
    b.st(MemSpace::Global, MemWidth::B32, Reg::r(0), Reg::r(1), 0);
    let top = b.label_here();
    b.bra(top);
    b.exit();
    b.finish().unwrap()
}

/// One-warp hang kernels, each taking an `out` buffer of 32 words.
fn hang_kernels() -> Vec<(&'static str, Kernel)> {
    let mut kernels = vec![("spin", spin_kernel(Generation::Fermi))];
    let build = |name: &'static str, body: &dyn Fn(&mut KernelBuilder, Operand)| {
        let mut b = KernelBuilder::new(name, Generation::Fermi);
        let out = b.param("out");
        body(&mut b, out);
        b.exit();
        (name, b.finish().unwrap())
    };
    // Period 2: a register toggles.
    kernels.push(build("toggle", &|b, _| {
        let top = b.label_here();
        b.lop(LogicOp::Xor, Reg::r(0), Reg::r(0), 1);
        b.bra(top);
    }));
    // Period 8 after a counter wraps.
    kernels.push(build("counter_mod_8", &|b, _| {
        let top = b.label_here();
        b.iadd(Reg::r(1), Reg::r(1), 1);
        b.lop(LogicOp::And, Reg::r(1), Reg::r(1), 7);
        b.bra(top);
    }));
    // A transient of ~50 iterations: x <- x/2 + 1 reaches 2.0 exactly.
    kernels.push(build("converging_ffma", &|b, _| {
        b.mov_f32(Reg::r(3), 0.5);
        b.mov_f32(Reg::r(4), 1.0);
        let top = b.label_here();
        b.ffma(Reg::r(2), Reg::r(2), Operand::reg(3), Reg::r(4));
        b.bra(top);
    }));
    // A store every iteration: never a recurrence, however equal the
    // registers.
    kernels.push(build("store_in_loop", &|b, out| {
        b.mov(Reg::r(5), out);
        let top = b.label_here();
        b.iadd(Reg::r(0), Reg::r(0), 1);
        b.lop(LogicOp::And, Reg::r(0), Reg::r(0), 3);
        b.st(MemSpace::Global, MemWidth::B32, Reg::r(0), Reg::r(5), 0);
        b.bra(top);
    }));
    // Divergent: the lanes at the lower PC loop, the others wait there.
    kernels.push(build("divergent", &|b, _| {
        b.s2r(Reg::r(0), SpecialReg::TidX);
        b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(0), 16);
        let high = b.new_label();
        b.bra_if(Pred::p(0), false, high);
        let low = b.label_here();
        b.iadd(Reg::r(1), Reg::r(1), 1);
        b.lop(LogicOp::And, Reg::r(1), Reg::r(1), 3);
        b.bra(low);
        b.bind(high);
        b.bra(high);
    }));
    kernels
}

/// What `Gpu::launch` does with a one-warp block that never reaches a
/// barrier, one `step_warp` at a time: the oracle the skip is held to.
fn step_by_step(
    kernel: &Kernel,
    memory: &mut GlobalMemory,
    params: &[u32],
    limit: u64,
) -> Result<(), SimError> {
    let mut warp = WarpState::new(0, 32);
    let block = BlockCtx {
        ctaid: Dim3::new_1d(0),
        ntid: Dim3::new_1d(32),
        nctaid: Dim3::new_1d(1),
    };
    let (mut shared, mut local) = (vec![0; kernel.shared_bytes as usize], vec![]);
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > limit {
            let pc = warp.current_group().map(|(pc, _)| pc);
            let hang = WarpHang {
                warp: 0,
                pc,
                state: "runnable",
            };
            let snapshot = HangSnapshot {
                at: steps,
                warps: vec![hang],
            };
            return Err(SimError::StepLimit {
                limit,
                snapshot: Some(snapshot),
            });
        }
        let mut mem = MemCtx {
            global: memory,
            shared: &mut shared,
            local: &mut local,
            local_bytes: 0,
            params,
        };
        if matches!(
            step_warp(&kernel.code, &mut warp, &mut mem, &block)?.event,
            StepEvent::Exited { .. }
        ) {
            return Ok(());
        }
    }
}

#[test]
fn functional_skip_matches_stepping_every_instruction() {
    for (name, kernel) in hang_kernels() {
        for limit in [1, 2, 3, 100, 12_345, FUZZ_STEP_LIMIT] {
            let mut gpu = Gpu::new(Generation::Fermi);
            gpu.set_step_limit(limit);
            let out = gpu.memory_mut().alloc_zeroed(32 * 4).unwrap();
            let mut memory = gpu.memory().clone();
            let want = step_by_step(&kernel, &mut memory, &[out], limit);
            let got = gpu.launch(&kernel, LaunchConfig::linear(1, 32), &[out]);
            assert!(matches!(got, Err(SimError::StepLimit { .. })), "{name}");
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{name}, limit {limit}"
            );
            assert_eq!(
                memory_digest(gpu.memory()),
                memory_digest(&memory),
                "{name}, limit {limit}"
            );
        }
    }
}

#[test]
fn a_counter_kept_in_memory_is_not_a_recurrence() {
    // Registers and predicates are equal at every back-edge; only the
    // stores tell the iterations apart, and the loop exits after 1000.
    let kernel = |generation| {
        let mut b = KernelBuilder::new("memory_counter", generation);
        let out = b.param("out");
        b.mov(Reg::r(5), out);
        let top = b.label_here();
        b.ld(MemSpace::Global, MemWidth::B32, Reg::r(1), Reg::r(5), 0);
        b.iadd(Reg::r(1), Reg::r(1), 1);
        b.st(MemSpace::Global, MemWidth::B32, Reg::r(1), Reg::r(5), 0);
        b.isetp(Pred::p(0), CmpOp::Ge, Reg::r(1), 1000);
        b.with_pred(Pred::p(0), false).exit();
        b.mov(Reg::r(1), Reg::RZ);
        b.bra(top);
        b.exit();
        b.finish().unwrap()
    };
    let config = LaunchConfig::linear(1, 32);
    let mut gpu = Gpu::new(Generation::Fermi);
    let out = gpu.memory_mut().alloc_zeroed(4).unwrap();
    gpu.launch(&kernel(Generation::Fermi), config, &[out])
        .unwrap();
    assert_eq!(gpu.memory().read_u32(out).unwrap(), 1000);
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let mut memory = GlobalMemory::new();
        let out = memory.alloc_zeroed(4).unwrap();
        let sim = TimingSim::new(&gpu, &kernel(gpu.generation), config, &[out]).unwrap();
        let report = sim.run(&mut memory, Hooks::default());
        assert!(report.is_ok(), "{}: {report:?}", gpu.name);
        assert_eq!(memory.read_u32(out).unwrap(), 1000, "{}", gpu.name);
    }
}

/// The first 300 seed-1 campaign mutants that build, as timing runs:
/// each case, its simulation and global memory before the run.
fn campaign_sims() -> impl Iterator<Item = (FuzzCase, TimingSim, GlobalMemory)> {
    let cfg = CampaignConfig {
        iters: 300,
        ..CampaignConfig::default()
    };
    campaign_cases(&cfg).into_iter().filter_map(|case| {
        let (seed, kernel, _) = mutant_kernel(&case, &[]).unwrap();
        let gpu = GpuConfig::preset(case.generation);
        let mut memory = GlobalMemory::new();
        let params = match &seed.problem {
            Some(p) => {
                let addrs = sgemm::upload_problem(&mut memory, p, 7).unwrap();
                sgemm::launch_params(addrs, 1.0, 0.0).to_vec()
            }
            None => Vec::new(),
        };
        let sim = TimingSim::new(&gpu, &kernel, seed.config, &params).ok()?;
        Some((case, sim, memory))
    })
}

/// Run `sim` on a copy of `memory` under `hooks`, to at most
/// [`CYCLE_LIMIT`] cycles: the result's `Debug` and a memory digest.
fn run_to_limit<O: Observer>(
    sim: &TimingSim,
    memory: &GlobalMemory,
    hooks: Hooks<'_, O>,
) -> (String, u64) {
    let mut memory = memory.clone();
    let result = sim.run(&mut memory, hooks.cycle_limit(CYCLE_LIMIT));
    (format!("{result:?}"), memory_digest(&memory))
}

#[test]
fn untraced_timing_of_every_campaign_hang_matches_a_stepping_run() {
    // A token turns the skip off, and one that never fires leaves the run
    // cycle-identical: the reference simulates every cycle.
    let never = CancelToken::new();
    let mut hangs = [0; 2];
    for (case, sim, memory) in campaign_sims() {
        let untraced = run_to_limit(&sim, &memory, Hooks::default());
        if !untraced.0.starts_with("Err(StepLimit") {
            continue;
        }
        hangs[(case.generation == Generation::Kepler) as usize] += 1;
        let stepped = run_to_limit(&sim, &memory, Hooks::default().cancel(Some(&never)));
        assert_eq!(untraced, stepped, "{case:?}");
    }
    assert!(
        hangs.iter().all(|&n| n >= 5),
        "too few hangs per GPU: {hangs:?}"
    );
}

#[test]
fn traced_timing_of_every_campaign_hang_delivers_the_stepped_event_stream() {
    // A traced run skips by replaying one recorded period per skipped
    // period; a never-firing token makes the reference step every cycle.
    let never = CancelToken::new();
    let mut hangs = [0; 2];
    for (case, sim, memory) in campaign_sims() {
        for limit in [0, 1000, usize::MAX] {
            let (mut skipped, mut stepped) = (
                TraceBuffer::with_limit(limit),
                TraceBuffer::with_limit(limit),
            );
            let got = run_to_limit(&sim, &memory, Hooks::observe(&mut skipped));
            if !got.0.starts_with("Err(StepLimit") {
                break;
            }
            let hooks = Hooks::observe(&mut stepped).cancel(Some(&never));
            let want = run_to_limit(&sim, &memory, hooks);
            let at = format!("{case:?}, trace limit {limit}");
            assert_eq!(got, want, "{at}");
            assert_eq!(skipped.len(), stepped.len(), "{at}");
            assert_eq!(skipped.dropped(), stepped.dropped(), "{at}");
            let mut pairs = skipped.events().iter().zip(stepped.events());
            if let Some((got, want)) = pairs.find(|(got, want)| got != want) {
                panic!("{at}: first differing event {got:?}, stepping gives {want:?}");
            }
            hangs[(case.generation == Generation::Kepler) as usize] += usize::from(limit == 0);
        }
    }
    assert!(
        hangs.iter().all(|&n| n >= 5),
        "too few hangs per GPU: {hangs:?}"
    );
}

#[test]
fn a_period_too_long_to_tape_is_stepped_in_a_traced_run() {
    // Warp 0 counts modulo 256 while the block's other 31 warps wait at a
    // barrier it never reaches: each period of thousands of cycles
    // delivers a barrier stall for every waiting warp a scheduler passes,
    // more events than one period's tape holds. The untraced run skips;
    // the traced one must step, or it would replay a truncated tape.
    let mut b = KernelBuilder::new("long_period", Generation::Fermi);
    b.s2r(Reg::r(0), SpecialReg::TidX);
    b.isetp(Pred::p(0), CmpOp::Lt, Reg::r(0), 32);
    let count = b.new_label();
    b.bra_if(Pred::p(0), false, count);
    b.bar();
    b.exit();
    b.bind(count);
    b.iadd(Reg::r(1), Reg::r(1), 1);
    b.lop(LogicOp::And, Reg::r(1), Reg::r(1), 255);
    b.bra(count);
    let kernel = b.finish().unwrap();
    let gpu = GpuConfig::gtx580();
    let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 1024), &[]).unwrap();
    let memory = GlobalMemory::new();
    let never = CancelToken::new();
    let (mut skipped, mut stepped) = (TraceBuffer::with_limit(0), TraceBuffer::with_limit(0));
    let got = run_to_limit(&sim, &memory, Hooks::observe(&mut skipped));
    let want = run_to_limit(
        &sim,
        &memory,
        Hooks::observe(&mut stepped).cancel(Some(&never)),
    );
    assert!(want.0.starts_with("Err(StepLimit"), "{want:?}");
    assert_eq!(got, want);
    assert_eq!(run_to_limit(&sim, &memory, Hooks::default()), want);
    assert_eq!(skipped.dropped(), stepped.dropped());
}

#[test]
fn hangs_reach_the_default_watchdogs_in_well_under_a_second() {
    let t0 = Instant::now();
    let config = LaunchConfig::linear(1, 64);
    let mut gpu = Gpu::new(Generation::Fermi);
    let out = gpu.memory_mut().alloc_zeroed(64 * 4).unwrap();
    match gpu.launch(&spin_kernel(Generation::Fermi), config, &[out]) {
        Err(SimError::StepLimit { limit, snapshot }) => {
            assert_eq!(limit, 1 << 34);
            assert_eq!(snapshot.unwrap().at, (1 << 34) + 1);
        }
        other => panic!("expected StepLimit, got {other:?}"),
    }
    // Warp 0 spins, so warp 1 never ran.
    assert_eq!(gpu.memory().read_u32(out + 4 * 33).unwrap(), 0);
    assert_eq!(gpu.memory().read_u32(out + 4 * 31).unwrap(), 31);

    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let mut memory = GlobalMemory::new();
        let out = memory.alloc_zeroed(64 * 4).unwrap();
        let kernel = spin_kernel(gpu.generation);
        let sim = TimingSim::new(&gpu, &kernel, config, &[out]).unwrap();
        match sim.run(&mut memory, Hooks::default()) {
            Err(SimError::StepLimit { limit, snapshot }) => {
                assert_eq!(limit, 200_000_000, "{}", gpu.name);
                let snapshot = snapshot.unwrap();
                assert_eq!(snapshot.at, 200_000_001, "{}", gpu.name);
                assert!(snapshot.warps.iter().all(|w| w.pc == Some(4)));
            }
            other => panic!("{}: expected StepLimit, got {other:?}", gpu.name),
        }
        assert_eq!(memory.read_u32(out + 4 * 63).unwrap(), 63);
        // No limit at all: the run skips to the last cycle its tick counts
        // allow and stops there.
        let unbounded = sim.run(&mut memory, Hooks::default().cycle_limit(u64::MAX));
        assert!(
            matches!(unbounded, Err(SimError::StepLimit { .. })),
            "{}: {unbounded:?}",
            gpu.name
        );
    }
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

#[test]
fn a_period_long_against_its_start_cycle_is_skipped() {
    // Seed-1 campaign case 97, a GTX680 `table2:10` mutant, first
    // confirms a 73,728-cycle period at cycle 221,095: two whole periods
    // are left before the fuzzer's limit.
    let case = campaign_cases(&CampaignConfig::default())[97];
    assert_eq!(
        (case.generation, case.seed.id()),
        (Generation::Kepler, "table2:10".into())
    );
    let (seed, kernel, _) = mutant_kernel(&case, &[]).unwrap();
    let sim = TimingSim::new(&GpuConfig::gtx680(), &kernel, seed.config, &[]).unwrap();
    let run = |hooks: Hooks<'_>| {
        let mut memory = GlobalMemory::new();
        let result = sim.run(&mut memory, hooks.cycle_limit(FUZZ_CYCLE_LIMIT));
        (format!("{result:?}"), memory_digest(&memory))
    };
    let (untraced, counters) = with_counter_scope(|| run(Hooks::default()));
    assert!(untraced.0.starts_with("Err(StepLimit"), "{untraced:?}");
    assert!(counters.skipped_cycles > 0, "{case:?} skipped nothing");
    let never = CancelToken::new();
    assert_eq!(untraced, run(Hooks::default().cancel(Some(&never))));
}

#[test]
fn a_cycle_armed_cancel_still_stops_at_its_poll_boundary() {
    // A token turns the skip off, so a spin kernel stops where the token
    // fires, far past the point where an untokened run starts skipping.
    let armed = 300_000 + 7;
    let gpu = GpuConfig::gtx680();
    let kernel = spin_kernel(gpu.generation);
    let mut memory = GlobalMemory::new();
    let out = memory.alloc_zeroed(64 * 4).unwrap();
    let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[out]).unwrap();
    let token = CancelToken::new();
    token.cancel_at_cycle(armed);
    match sim.run(&mut memory, Hooks::default().cancel(Some(&token))) {
        Err(SimError::Cancelled { at_cycle, snapshot }) => {
            assert_eq!(at_cycle, armed.next_multiple_of(CHECK_INTERVAL_CYCLES));
            assert_eq!(snapshot.unwrap().at, at_cycle);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}
