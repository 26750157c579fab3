//! The `reproduce profile` subcommand: run one calibration or SGEMM
//! kernel under the event tracer and decompose the bound-vs-achieved gap.
//!
//! The paper explains the gap between the analytical upper bound and the
//! achieved rate qualitatively (Section 6: issue scheduling, instruction
//! fetch); this module turns that into numbers. Each named target runs
//! once on the cycle-level simulator with a [`ProfileBuilder`] (and
//! optionally a [`TraceBuffer`] for the Chrome-trace export) attached,
//! then reports the achieved rate against the model ceiling with the lost
//! throughput attributed to loop-control issue slots and the per-
//! [`StallKind`] stall cycles the trace recorded.
//!
//! Profiled runs always simulate — the timing cache is deliberately not
//! consulted, because a cached result has no events to observe.
//!
//! Each target becomes one entry of a `peakperf-profile-v1` document
//! ([`profile_document`]); [`check`] states what a valid one promises,
//! and is what `reproduce check` runs on it.

use std::fmt::Write as _;

use peakperf_arch::{Generation, GpuConfig};
use peakperf_bound::UpperBoundModel;
use peakperf_kernels::microbench::math::{math_kernel, table2_patterns};
use peakperf_kernels::microbench::{saturating_launch, throughput_of};
use peakperf_kernels::sgemm::{
    alloc_problem, build_preset, launch_params, Preset, SgemmProblem, Variant,
};
use peakperf_sass::Kernel;
use peakperf_sim::timing::{
    chrome_trace, Hooks, Profile, ProfileBuilder, StallKind, TimingReport, TimingSim, TraceBuffer,
};
use peakperf_sim::{ensure, obj, CancelToken, GlobalMemory, Json, LaunchConfig, SimError};

use crate::experiments::TABLE2_PAPER;
use crate::report::envelope;

/// What a profile target runs, and what its rate is measured against.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// A Table 2 row (its index in `table2_patterns()`), the very run
    /// `measure_math` reports; its rate is thread instructions per cycle
    /// of the row's mnemonic, against `bound`.
    Table2 { row: usize, bound: f64 },
    /// The assembly-optimized SGEMM NN at [`SGEMM_PROFILE_SIZE`]³, one
    /// resident wave on one SM, against the SGEMM upper bound.
    Sgemm,
}

/// A named profiling target.
#[derive(Debug, Clone, Copy)]
pub struct ProfileTarget {
    /// Subcommand-level name (`reproduce profile <name>`).
    pub name: &'static str,
    /// The paper GPU it runs on.
    generation: Generation,
    workload: Workload,
}

const fn table2(
    name: &'static str,
    generation: Generation,
    row: usize,
    bound: f64,
) -> ProfileTarget {
    ProfileTarget {
        name,
        generation,
        workload: Workload::Table2 { row, bound },
    }
}

const fn sgemm(name: &'static str, generation: Generation) -> ProfileTarget {
    ProfileTarget {
        name,
        generation,
        workload: Workload::Sgemm,
    }
}

/// Every target `reproduce profile` accepts.
/// Table 2 row indices follow `table2_patterns()`.
pub const TARGETS: [ProfileTarget; 7] = [
    table2("table2_ffma", Generation::Kepler, 7, 132.0),
    table2("table2_ffma_2way", Generation::Kepler, 8, 66.0),
    table2("table2_ffma_3way", Generation::Kepler, 9, 44.0),
    table2("table2_imad", Generation::Kepler, 17, 33.2),
    // Fermi issues one warp instruction per shader cycle per SM.
    table2("fermi_ffma", Generation::Fermi, 7, 32.0),
    sgemm("sgemm_fermi", Generation::Fermi),
    sgemm("sgemm_kepler", Generation::Kepler),
];

/// Matrix size for the SGEMM profiling targets: a multiple of both the
/// Fermi (96) and Kepler (64) assembly-kernel tile sizes, big enough for
/// steady state, small enough that an uncached traced run stays
/// interactive.
const SGEMM_PROFILE_SIZE: u32 = 576;

/// What rate the target is measured in, and the model ceiling for it.
#[derive(Debug, Clone)]
enum RateBasis {
    /// Thread instructions per cycle of one mnemonic (Table 2 rows).
    ThreadIpc {
        mnemonic: &'static str,
        bound: f64,
        paper: Option<f64>,
    },
    /// FP32 flops per cycle per SM against the SGEMM upper bound.
    Flops { bound: f64, paper: Option<f64> },
}

impl RateBasis {
    fn unit(&self) -> &'static str {
        match self {
            RateBasis::ThreadIpc { .. } => "thread-insts/cycle",
            RateBasis::Flops { .. } => "flops/cycle/SM",
        }
    }
}

/// The result of profiling one target.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// The GPU the target ran on (for the document envelope).
    pub gpu: &'static str,
    /// Human-readable report (gap decomposition + profile tables).
    pub text: String,
    /// This target's entry of a `peakperf-profile-v1` document.
    pub json: Json,
    /// Chrome trace-event JSON, when a trace was requested.
    pub chrome: Option<String>,
    /// The profiled run's timing report.
    pub report: TimingReport,
}

/// Run one named target under the profiler.
///
/// `capture_trace` additionally records the raw event stream and renders
/// it as Chrome trace-event JSON (memory-capped; the profile itself
/// streams and is always complete). `cancel` attaches a cooperative
/// [`CancelToken`] to the timing run — the deadline/abort seam the
/// simulation service (`crate::service`) uses to bound hostile or
/// oversized jobs.
///
/// # Errors
///
/// Unknown target names and simulation failures, plus
/// [`SimError::Cancelled`] / [`SimError::DeadlineExceeded`] when the
/// token fires mid-run.
pub fn run_target(
    name: &str,
    capture_trace: bool,
    cancel: Option<&CancelToken>,
) -> Result<ProfileOutcome, SimError> {
    let PreparedTarget {
        gpu,
        kernel,
        sim,
        mut memory,
        basis,
    } = prepare(name)?;
    let mut builder = ProfileBuilder::new();
    let (report, buffer) = if capture_trace {
        let mut buffer = TraceBuffer::new();
        let hooks = Hooks::observe((&mut buffer, &mut builder)).cancel(cancel);
        (sim.run(&mut memory, hooks)?, Some(buffer))
    } else {
        let hooks = Hooks::observe(&mut builder).cancel(cancel);
        (sim.run(&mut memory, hooks)?, None)
    };
    let profile = builder.finish(&kernel, &report);

    let gap = decompose_gap(&basis, &report, &profile);
    let text = render_text(name, gpu.name, &gap, &profile);
    let json = render_json(name, gpu.name, &gap, &profile);
    let chrome = buffer.map(|b| chrome_trace(&b, &kernel, gpu.warp_schedulers_per_sm));
    Ok(ProfileOutcome {
        gpu: gpu.name,
        text,
        json,
        chrome,
        report,
    })
}

/// A target ready to run: its simulator, the memory it runs on, and what
/// its rate is measured against.
pub(crate) struct PreparedTarget {
    pub(crate) gpu: GpuConfig,
    kernel: Kernel,
    pub(crate) sim: TimingSim,
    pub(crate) memory: GlobalMemory,
    basis: RateBasis,
}

/// Build the simulator of the target `name`.
///
/// # Errors
///
/// Unknown target names, and build or launch failures.
pub(crate) fn prepare(name: &str) -> Result<PreparedTarget, SimError> {
    let target = TARGETS
        .iter()
        .find(|t| t.name == name)
        .ok_or_else(|| SimError::Launch {
            message: format!(
                "unknown profile target `{name}`; known: {}",
                TARGETS.map(|t| t.name).join(" ")
            ),
        })?;
    let gpu = GpuConfig::preset(target.generation);
    let mut memory = GlobalMemory::new();
    let (kernel, config, params, basis) = match target.workload {
        Workload::Table2 { row, bound } => {
            let pattern = table2_patterns()[row];
            let (threads, blocks) = saturating_launch(&gpu);
            let basis = RateBasis::ThreadIpc {
                mnemonic: pattern.op.mnemonic(),
                bound,
                // Table 2 is the paper's GTX680 measurement.
                paper: (gpu.generation == Generation::Kepler).then_some(TABLE2_PAPER[row]),
            };
            let kernel = math_kernel(gpu.generation, &pattern)?;
            let config = LaunchConfig::linear(blocks, threads);
            (kernel, config, Vec::new(), basis)
        }
        Workload::Sgemm => {
            let problem = SgemmProblem::square(Variant::NN, SGEMM_PROFILE_SIZE);
            let build = build_preset(gpu.generation, &problem, Preset::AsmOpt)?;
            let params = launch_params(alloc_problem(&mut memory, &problem)?, 1.0, 0.0).to_vec();
            let model = UpperBoundModel::new(&gpu);
            // Per-SM flops per shader cycle at the bound.
            let peak_fpc = gpu.theoretical_peak_gflops() * 1e9
                / (f64::from(gpu.num_sms) * gpu.shader_clock_mhz * 1e6);
            let paper = peakperf_bound::paper_reference(gpu.generation).achieved_fraction;
            let basis = RateBasis::Flops {
                bound: model.best_sgemm_bound().fraction_of_peak * peak_fpc,
                paper: Some(paper * peak_fpc),
            };
            (build.kernel, build.config, params, basis)
        }
    };
    let sim = TimingSim::new(&gpu, &kernel, config, &params)?;
    Ok(PreparedTarget {
        gpu,
        kernel,
        sim,
        memory,
        basis,
    })
}

/// One attributed share of the bound-vs-achieved gap.
#[derive(Debug, Clone)]
pub struct GapShare {
    /// Source label (`loop_control` or a [`StallKind`] name).
    pub label: String,
    /// Lost rate in the target's unit (thread-insts/cycle or flops/cycle).
    pub amount: f64,
}

/// The bound-vs-achieved decomposition of one profiled run.
#[derive(Debug, Clone, Default)]
pub struct GapDecomposition {
    /// Model ceiling, in `unit`.
    pub bound: f64,
    /// Achieved rate, in `unit`.
    pub achieved: f64,
    /// The paper's measured value for the same row, when it has one.
    pub paper: Option<f64>,
    /// Rate unit label.
    pub unit: &'static str,
    /// `bound - achieved` (never negative; a run beating the ceiling
    /// reports a zero gap).
    pub gap: f64,
    /// Attribution of the gap, largest first.
    pub shares: Vec<GapShare>,
}

fn decompose_gap(basis: &RateBasis, report: &TimingReport, profile: &Profile) -> GapDecomposition {
    let cycles = report.cycles.max(1) as f64;
    let (achieved, paper, overhead) = match basis {
        RateBasis::ThreadIpc {
            mnemonic, paper, ..
        } => {
            let measured = throughput_of(report, mnemonic);
            let total = report.thread_instructions as f64 / cycles;
            // Issue slots spent on instructions other than the measured
            // stream (loop control: IADD/ISETP/BRA) are throughput the
            // bound counts but the measurement does not.
            (measured, *paper, (total - measured).max(0.0))
        }
        RateBasis::Flops { paper, .. } => {
            let fpc = report.flops as f64 / cycles;
            (fpc, *paper, 0.0)
        }
    };
    let bound = match basis {
        RateBasis::ThreadIpc { bound, .. } | RateBasis::Flops { bound, .. } => *bound,
    };
    let gap = (bound - achieved).max(0.0);
    let mut shares = Vec::new();
    if overhead > 0.0 {
        shares.push(GapShare {
            label: "loop_control".to_owned(),
            amount: overhead.min(gap),
        });
    }
    // Distribute the residual gap over the observed stall kinds in
    // proportion to the warp-cycles each kind cost.
    let residual = (gap - overhead).max(0.0);
    let stalled = profile.stalled_cycles();
    if stalled > 0 && residual > 0.0 {
        for kind in StallKind::ALL {
            let n = profile.stall_totals[kind.index()];
            if n == 0 {
                continue;
            }
            shares.push(GapShare {
                label: kind.as_str().to_owned(),
                amount: residual * n as f64 / stalled as f64,
            });
        }
    }
    shares.sort_by(|a, b| b.amount.total_cmp(&a.amount));
    GapDecomposition {
        bound,
        achieved,
        paper,
        unit: basis.unit(),
        gap,
        shares,
    }
}

fn render_text(name: &str, gpu: &str, gap: &GapDecomposition, profile: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== profile: {name} ({gpu}) ==");
    let _ = writeln!(
        out,
        "bound    {:>8.1} {}{}",
        gap.bound,
        gap.unit,
        match gap.paper {
            Some(p) => format!("    paper {p:.1}"),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "achieved {:>8.1} {}    ({:.1}% of bound)",
        gap.achieved,
        gap.unit,
        100.0 * gap.achieved / gap.bound.max(1e-9)
    );
    let _ = writeln!(out, "gap      {:>8.1} {}", gap.gap, gap.unit);
    if !gap.shares.is_empty() {
        let _ = writeln!(out, "gap attribution (model):");
        for share in &gap.shares {
            let _ = writeln!(
                out,
                "  {:<14} {:>7.2} {}  ({:.1}% of gap)",
                share.label,
                share.amount,
                gap.unit,
                100.0 * share.amount / gap.gap.max(1e-9)
            );
        }
    }
    out.push_str(&profile.render_text());
    out
}

fn render_json(name: &str, gpu: &str, gap: &GapDecomposition, profile: &Profile) -> Json {
    let shares = gap.shares.iter();
    let attribution = Json::obj(shares.map(|share| (share.label.as_str(), share.amount.into())));
    obj!(gap; target = name, gpu = gpu, unit, bound, achieved, paper, gap,
        gap_attribution = attribution, profile = profile.to_json())
}

/// Wrap per-target entries into the `peakperf-profile-v1` document
/// written by `--json`. `gpus` lists the GPUs the profiled targets
/// ran on, for the shared document envelope.
pub fn profile_document(profiles: Vec<Json>, gpus: &[&str]) -> Json {
    let stall_kinds: Json = StallKind::ALL.map(StallKind::as_str).into_iter().collect();
    let body = obj!((); stall_kinds = stall_kinds, profiles = Json::Arr(profiles));
    envelope("peakperf-profile-v1", gpus, body)
}

/// Check a `peakperf-profile-v1` document: shaped like a sample this
/// module writes; the `stall_kinds` list is [`StallKind::ALL`], in order;
/// every entry's gap sources are stall kinds or `loop_control`; and every
/// nested profile keeps [`Profile::check`]'s invariants.
pub fn check(doc: &Json, errors: &mut Vec<String>) {
    let entry = render_json("", "", &GapDecomposition::default(), &Profile::default());
    let sample = profile_document(vec![entry], &[]);
    doc.conforms(&sample, &"profile document", errors);
    let kinds = doc.get("stall_kinds");
    let drifted = kinds != sample.get("stall_kinds");
    ensure!(
        errors,
        !drifted,
        "profile document: stall_kinds drifted from StallKind::ALL"
    );
    for (i, entry) in doc.items("profiles").iter().enumerate() {
        let at = format!("profiles[{i}]");
        for label in entry["gap_attribution"].keys() {
            let known = label == "loop_control" || StallKind::parse(label).is_some();
            ensure!(
                errors,
                known,
                "{at}.gap_attribution: unknown gap source `{label}`"
            );
        }
        Profile::check(&entry["profile"], &format!("{at}.profile"), errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_target_is_rejected() {
        let err = run_target("nonesuch", false, None).unwrap_err();
        assert!(err.to_string().contains("unknown profile target"));
    }

    #[test]
    fn fermi_ffma_profile_hits_the_issue_ceiling_region() {
        let outcome = run_target("fermi_ffma", true, None).unwrap();
        assert!(outcome.text.contains("== profile: fermi_ffma (GTX580) =="));
        assert!(outcome.text.contains("gap attribution"));
        let chrome = outcome.chrome.expect("trace requested");
        assert!(chrome.contains("\"traceEvents\""));
        // The entry carries the nested profile and checks as a document.
        let doc = profile_document(vec![outcome.json.clone()], &[outcome.gpu]);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
        assert_eq!(doc.get("gpu").unwrap().render(), "[\"GTX580\"]");
        assert_eq!(doc.items("profiles")[0].get("paper"), Some(&Json::Null));
    }
}
