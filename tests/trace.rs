//! Integration tests for the observability subsystem (that tracing does
//! not perturb timing is `observer_identity.rs`): stall attribution must
//! account for every stall the report counts, the Chrome-trace export must stay byte-stable on a
//! golden kernel, the `StallKind` string/index views must stay in
//! sync (property-tested with the in-repo deterministic PRNG, in the
//! style of `proptests.rs`), and the issue events of traced fuzz mutants
//! must never put more instructions on the SP pipe in a cycle than its
//! SPs take. A profile target's run is the run its table reports.

use peakperf::arch::{Generation, GpuConfig};
use peakperf::kernels::microbench::math::{build_math_kernel, measure_math, table2_patterns};
use peakperf::kernels::microbench::throughput_of;
use peakperf::kernels::rng::Rng;
use peakperf::kernels::sgemm::{
    alloc_problem, build_preset, launch_params, Preset, SgemmProblem, Variant,
};
use peakperf::sass::{CtlInfo, Kernel, KernelBuilder, OpClass, Operand, Reg};
use peakperf::sim::timing::{
    chrome_trace, time_kernel, Hooks, Observer, Profile, ProfileBuilder, StallKind, TimingReport,
    TimingSim, TraceBuffer, TraceEvent, TraceEventKind,
};
use peakperf::sim::{CancelToken, GlobalMemory, Json, LaunchConfig};
use peakperf_bench::fault::{campaign_cases, mutant_kernel, CampaignConfig, FUZZ_CYCLE_LIMIT};
use peakperf_bench::profiling::{run_target, TARGETS};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// A tiny two-warp Fermi kernel with a barrier: enough structure to
/// exercise issue, scoreboard/ctl stalls, a barrier release, and exits.
fn two_warp_kernel() -> Kernel {
    let mut b = KernelBuilder::new("golden2w", Generation::Fermi);
    b.mov_f32(Reg::r(1), 1.5);
    b.mov_f32(Reg::r(4), 2.5);
    for k in 0..4 {
        b.ffma(Reg::r(8 + k), Reg::r(1), Operand::reg(4), Reg::r(8 + k));
    }
    b.bar();
    b.ffma(Reg::r(8), Reg::r(1), Operand::reg(4), Reg::r(8));
    b.exit();
    b.finish().unwrap()
}

fn traced_run(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
) -> (TimingReport, TraceBuffer, Profile) {
    let mut mem = GlobalMemory::new();
    let sim = TimingSim::new(gpu, kernel, config, &[]).unwrap();
    let mut buffer = TraceBuffer::new();
    let mut builder = ProfileBuilder::new();
    let hooks = Hooks::observe((&mut buffer, &mut builder));
    let report = sim.run(&mut mem, hooks).unwrap();
    let profile = builder.finish(kernel, &report);
    (report, buffer, profile)
}

// ---------------------------------------------------------------------
// Stall attribution accounting
// ---------------------------------------------------------------------

/// A Kepler chain of dependent FFMAs without control notation (every
/// stall field 0): each one replays on the hazard its producer left.
fn unannotated_kepler_kernel() -> Kernel {
    let mut b = KernelBuilder::new("unannotated", Generation::Kepler);
    b.mov_f32(Reg::r(1), 1.5);
    b.mov_f32(Reg::r(4), 2.5);
    for _ in 0..8 {
        b.ffma(Reg::r(8), Reg::r(1), Operand::reg(4), Reg::r(8));
    }
    b.exit();
    b.finish().unwrap()
}

#[test]
fn trace_stalls_account_for_every_reported_stall() {
    let gpu = GpuConfig::gtx680();
    let pattern = &table2_patterns()[7]; // FFMA R0,R1,R4,R5
    let table2 = build_math_kernel(gpu.generation, pattern, 16, 8).unwrap();
    for kernel in [table2, unannotated_kepler_kernel()] {
        let (report, buffer, profile) = traced_run(&gpu, &kernel, LaunchConfig::linear(4, 256));

        let reported: u64 = report.stalls.values().sum();
        assert_eq!(profile.stalled_cycles(), reported);
        for kind in StallKind::ALL {
            let traced = profile.stall_totals[kind.index()];
            let counted = report.stalls.get(&kind).copied().unwrap_or(0);
            assert_eq!(traced, counted, "stall kind {}", kind.as_str());
        }
        // The trace-event view agrees with the aggregated view.
        let mut from_events = [0u64; StallKind::COUNT];
        for e in buffer.events() {
            if let peakperf::sim::timing::TraceEventKind::Stall(k) = e.kind {
                from_events[k.index()] += 1;
            }
        }
        assert_eq!(from_events, profile.stall_totals);
        // Every issued warp instruction appears in the trace.
        assert_eq!(profile.issues, report.warp_instructions);
        if kernel.name == "unannotated" {
            let replays = profile.stall_totals[StallKind::HazardReplay.index()];
            assert!(report.hazard_replays > 0 && replays > 0, "no hazard replay");
        }
    }
}

#[test]
fn per_warp_and_per_scheduler_stalls_sum_to_total() {
    let gpu = GpuConfig::gtx680();
    let kernel = build_math_kernel(gpu.generation, &table2_patterns()[9], 16, 8).unwrap();
    let (_, _, profile) = traced_run(&gpu, &kernel, LaunchConfig::linear(4, 256));
    let per_warp: u64 = profile.per_warp.iter().map(|w| w.stalled()).sum();
    let per_sched: u64 = profile.per_sched.iter().map(|s| s.stalls).sum();
    assert_eq!(per_warp, profile.stalled_cycles());
    assert_eq!(per_sched, profile.stalled_cycles());
    let issues: u64 = profile.per_warp.iter().map(|w| w.issues).sum();
    assert_eq!(issues, profile.issues);
}

// ---------------------------------------------------------------------
// Golden Chrome-trace export
// ---------------------------------------------------------------------

#[test]
fn chrome_trace_of_two_warp_kernel_matches_golden_file() {
    let gpu = GpuConfig::gtx580();
    let kernel = two_warp_kernel();
    let mut mem = GlobalMemory::new();
    let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[]).unwrap();
    let mut buffer = TraceBuffer::new();
    sim.run(&mut mem, Hooks::observe(&mut buffer)).unwrap();
    assert_eq!(buffer.dropped(), 0);
    let json = chrome_trace(&buffer, &kernel, 2);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace_2warp.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "Chrome-trace export drifted from tests/golden_trace_2warp.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1 cargo test"
    );
}

// ---------------------------------------------------------------------
// StallKind view-sync properties (satellite: lock serialization order)
// ---------------------------------------------------------------------

#[test]
fn stallkind_all_matches_declaration_and_index() {
    assert_eq!(StallKind::ALL.len(), StallKind::COUNT);
    for (i, kind) in StallKind::ALL.into_iter().enumerate() {
        assert_eq!(kind.index(), i, "ALL[{i}] = {} out of place", kind.as_str());
    }
    // Declaration order is the Ord order; ALL must follow it so the
    // serialized order (JSON reports) equals the enum order.
    let mut sorted = StallKind::ALL;
    sorted.sort();
    assert_eq!(sorted, StallKind::ALL);
}

#[test]
fn stallkind_strings_round_trip_and_are_unique() {
    for kind in StallKind::ALL {
        assert_eq!(StallKind::parse(kind.as_str()), Some(kind));
    }
    let mut names: Vec<&str> = StallKind::ALL.iter().map(|k| k.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), StallKind::COUNT, "duplicate as_str strings");
}

#[test]
fn stallkind_parse_rejects_non_canonical_strings() {
    // Property: parse() only accepts the exact as_str spellings — sampled
    // mutations of valid names (case flips, prefixes, truncations) fail.
    let mut rng = Rng::seed_from_u64(0x5ca1ab1e);
    for case in 0..200u32 {
        let kind = StallKind::ALL[rng.gen_below(StallKind::COUNT as u64) as usize];
        let name = kind.as_str();
        let mutated = match rng.gen_below(4) {
            0 => name.to_uppercase(),
            1 => format!(" {name}"),
            2 => format!("{name}x"),
            _ => name[..name.len() - 1].to_owned(),
        };
        assert_ne!(mutated, name, "case {case} produced an identity mutation");
        assert_eq!(
            StallKind::parse(&mutated),
            None,
            "case {case}: parse accepted {mutated:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Process-wide stall counters
// ---------------------------------------------------------------------

#[test]
fn counters_accumulate_stall_cycles() {
    use peakperf::sim::Counters;
    let gpu = GpuConfig::gtx680();
    let kernel = build_math_kernel(gpu.generation, &table2_patterns()[7], 16, 8).unwrap();
    let before = Counters::snapshot();
    let mut mem = GlobalMemory::new();
    let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(4, 256), &[]).unwrap();
    let report = sim.run(&mut mem, Hooks::default()).unwrap();
    let delta = Counters::snapshot().delta_since(&before);
    // Other tests run concurrently in this process, so the delta is a
    // lower bound, not an exact match.
    let reported: u64 = report.stalls.values().sum();
    assert!(delta.stalled_cycles() >= reported);
    for (&kind, &n) in &report.stalls {
        assert!(delta.stall_cycles[kind.index()] >= n);
    }
}

// ---------------------------------------------------------------------
// Control-notation kernels keep their ctl-stall attribution
// ---------------------------------------------------------------------

#[test]
fn kepler_ctl_kernel_traces_dual_issues() {
    let gpu = GpuConfig::gtx680();
    let mut b = KernelBuilder::new("dualpair", gpu.generation);
    b.mov_f32(Reg::r(1), 1.0);
    b.mov_f32(Reg::r(4), 2.0);
    b.mov_f32(Reg::r(5), 3.0);
    for k in 0..8 {
        let ctl = if k % 2 == 0 {
            CtlInfo::dual_stall(1)
        } else {
            CtlInfo::stall(1)
        };
        b.with_ctl(ctl);
        b.ffma(Reg::r(24 + (k % 4)), Reg::r(1), Operand::reg(4), Reg::r(5));
    }
    b.exit();
    let kernel = b.finish().unwrap();
    let (_, _, profile) = traced_run(&gpu, &kernel, LaunchConfig::linear(4, 256));
    assert!(
        profile.dual_issues > 0,
        "dual-flagged FFMA pairs should use the second dispatch slot"
    );
    let text = profile.render_text();
    assert!(text.contains("per-instruction issue histogram"));
}

// ---------------------------------------------------------------------
// The SP pipe holds its Table 1 cap in every cycle
// ---------------------------------------------------------------------

/// The most SP-pipe warp instructions (FP32, integer, integer multiply
/// and move classes) a run issues in one cycle.
struct SpIssuesPerCycle<'k> {
    kernel: &'k Kernel,
    cycle: u64,
    count: u32,
    max: u32,
}

impl Observer for SpIssuesPerCycle<'_> {
    const EVENTS: bool = true;

    fn event(&mut self, event: TraceEvent) {
        let TraceEventKind::Issue { .. } = event.kind else {
            return;
        };
        let class = self.kernel.code[event.pc as usize].op.class();
        if matches!(
            class,
            OpClass::Fp32 | OpClass::Int | OpClass::IntMul | OpClass::Move
        ) {
            if event.cycle != self.cycle {
                (self.cycle, self.count) = (event.cycle, 0);
            }
            self.count += 1;
            self.max = self.max.max(self.count);
        }
    }
}

#[test]
fn no_cycle_issues_more_sp_instructions_than_the_sps_take() {
    // The seed-1 campaign mutants that take no SGEMM problem, traced to
    // the fuzzer's cycle limit: 32 SPs take one warp instruction a cycle
    // on GTX580, 192 take six on GTX680.
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let cfg = CampaignConfig {
            seed: 1,
            iters: 200,
            generations: vec![gpu.generation],
        };
        let cap = gpu.sps_per_sm / 32;
        for (i, case) in campaign_cases(&cfg).iter().enumerate() {
            let (seed, kernel, _) = mutant_kernel(case, &[]).unwrap();
            if seed.problem.is_some() {
                continue;
            }
            let Ok(sim) = TimingSim::new(&gpu, &kernel, seed.config, &[]) else {
                continue;
            };
            let mut sp = SpIssuesPerCycle {
                kernel: &kernel,
                cycle: 0,
                count: 0,
                max: 0,
            };
            let hooks = Hooks::observe(&mut sp).cycle_limit(FUZZ_CYCLE_LIMIT);
            let _ = sim.run(&mut GlobalMemory::new(), hooks);
            assert!(
                sp.max <= cap,
                "{} mutant {i:03}: {} > {cap}",
                gpu.name,
                sp.max
            );
        }
    }
}

#[test]
fn profile_targets_run_what_the_tables_report() {
    // Each Table 2 or Fermi target's run achieves, bit for bit, the
    // throughput `measure_math` reports for its row; each SGEMM target simulates the
    // wave `time_kernel` times at 576³.
    let (fermi, kepler) = (GpuConfig::gtx580(), GpuConfig::gtx680());
    let rows = [
        ("table2_ffma", &kepler, 7),
        ("table2_ffma_2way", &kepler, 8),
        ("table2_ffma_3way", &kepler, 9),
        ("table2_imad", &kepler, 17),
        ("fermi_ffma", &fermi, 7),
    ];
    let sgemms = [("sgemm_fermi", &fermi), ("sgemm_kepler", &kepler)];
    let mut names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    names.extend(sgemms.iter().map(|s| s.0));
    assert_eq!(names, TARGETS.map(|t| t.name));

    let patterns = table2_patterns();
    for (name, gpu, row) in rows {
        let profiled = run_target(name, false, None).unwrap();
        let table = measure_math(gpu, &patterns[row]).unwrap().throughput;
        let achieved = throughput_of(&profiled.report, patterns[row].op.mnemonic());
        assert_eq!(achieved.to_bits(), table.to_bits(), "{name}");
        // The document's `achieved` is the same number, rounded.
        assert_eq!(profiled.json["achieved"], Json::from(table), "{name}");
    }
    for (name, gpu) in sgemms {
        let problem = SgemmProblem::square(Variant::NN, 576);
        let build = build_preset(gpu.generation, &problem, Preset::AsmOpt).unwrap();
        let mut memory = GlobalMemory::new();
        let params = launch_params(alloc_problem(&mut memory, &problem).unwrap(), 1.0, 0.0);
        let timed = time_kernel(gpu, &build.kernel, build.config, &params, &mut memory, None);
        let report = run_target(name, false, None).unwrap().report;
        assert_eq!(report, timed.unwrap().sm, "{name}");
    }
}

/// Per profile target: the cycles in which no warp issued on any
/// scheduler, and the run's cycles, as counted by stepping every cycle.
const IDLE_CYCLES: [(&str, u64, u64); 7] = [
    ("table2_ffma", 36, 48_631),
    ("table2_ffma_2way", 123, 96_144),
    ("table2_ffma_3way", 16, 143_659),
    ("table2_imad", 0, 191_321),
    ("fermi_ffma", 0, 100_032),
    ("sgemm_fermi", 80_656, 485_296),
    ("sgemm_kepler", 38_657, 212_317),
];

#[test]
fn profile_targets_count_their_idle_cycles() {
    // A run that skips recurring periods replays their events, so it
    // counts what a stepping run (a token that never fires) counts.
    assert_eq!(IDLE_CYCLES.map(|t| t.0), TARGETS.map(|t| t.name));
    let token = CancelToken::new();
    for (name, idle, cycles) in IDLE_CYCLES {
        for cancel in [None, Some(&token)] {
            let profile = &run_target(name, false, cancel).unwrap().json["profile"];
            assert_eq!(profile.count("cycles"), cycles, "{name}");
            assert_eq!(profile.count("idle_cycles"), idle, "{name}");
        }
    }
}
