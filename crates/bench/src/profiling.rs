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

use peakperf_arch::GpuConfig;
use peakperf_bound::UpperBoundModel;
use peakperf_kernels::microbench::math::{build_math_kernel, table2_patterns, MathPattern};
use peakperf_kernels::sgemm::{build_preset, upload_problem, Preset, SgemmProblem, Variant};
use peakperf_sass::Kernel;
use peakperf_sim::timing::{
    chrome_trace, Hooks, Profile, ProfileBuilder, StallKind, TimingSim, TraceBuffer,
};
use peakperf_sim::{ensure, obj, CancelToken, GlobalMemory, Json, LaunchConfig, SimError};

use crate::experiments::TABLE2_PAPER;
use crate::report::envelope;

/// A named profiling target.
#[derive(Debug, Clone, Copy)]
pub struct ProfileTarget {
    /// Subcommand-level name (`reproduce profile <name>`).
    pub name: &'static str,
    /// One-line description for `--help` and the report header.
    pub description: &'static str,
}

/// Every target `reproduce profile` accepts.
pub const TARGETS: [ProfileTarget; 7] = [
    ProfileTarget {
        name: "table2_ffma",
        description: "Kepler FFMA R0,R1,R4,R5 (distinct banks; Table 2 row, paper 132.0)",
    },
    ProfileTarget {
        name: "table2_ffma_2way",
        description: "Kepler FFMA R0,R1,R3,R5 (2-way bank conflict; paper 66.2)",
    },
    ProfileTarget {
        name: "table2_ffma_3way",
        description: "Kepler FFMA R0,R1,R3,R9 (3-way bank conflict; paper 44.2)",
    },
    ProfileTarget {
        name: "table2_imad",
        description: "Kepler IMAD R0,R1,R4,R5 (integer pipe ceiling; paper 33.1)",
    },
    ProfileTarget {
        name: "fermi_ffma",
        description: "Fermi FFMA R0,R1,R4,R5 (one warp inst/cycle issue ceiling)",
    },
    ProfileTarget {
        name: "sgemm_fermi",
        description: "GTX580 assembly-optimized SGEMM NN, one resident wave on one SM",
    },
    ProfileTarget {
        name: "sgemm_kepler",
        description: "GTX680 assembly-optimized SGEMM NN, one resident wave on one SM",
    },
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
    let mut prepared = prepare(name)?;
    let sim = TimingSim::new(
        &prepared.gpu,
        &prepared.kernel,
        prepared.config,
        &prepared.params,
        prepared.resident,
    )?;
    let memory = &mut prepared.memory;
    let mut builder = ProfileBuilder::new();
    let (report, buffer) = if capture_trace {
        let mut buffer = TraceBuffer::new();
        let hooks = Hooks::observe((&mut buffer, &mut builder)).cancel(cancel);
        (sim.run(memory, hooks)?, Some(buffer))
    } else {
        let hooks = Hooks::observe(&mut builder).cancel(cancel);
        (sim.run(memory, hooks)?, None)
    };
    let profile = builder.finish(&prepared.kernel, &report);

    let gap = decompose_gap(&prepared.basis, &report, &profile);
    let text = render_text(name, &prepared, &gap, &profile);
    let json = render_json(name, prepared.gpu.name, &gap, &profile);
    let chrome =
        buffer.map(|b| chrome_trace(&b, &prepared.kernel, prepared.gpu.warp_schedulers_per_sm));
    Ok(ProfileOutcome {
        gpu: prepared.gpu.name,
        text,
        json,
        chrome,
    })
}

pub(crate) struct PreparedTarget {
    pub(crate) gpu: GpuConfig,
    pub(crate) kernel: Kernel,
    pub(crate) config: LaunchConfig,
    pub(crate) params: Vec<u32>,
    pub(crate) resident: u32,
    pub(crate) memory: GlobalMemory,
    basis: RateBasis,
}

fn math_target(
    gpu: GpuConfig,
    pattern: &MathPattern,
    basis: RateBasis,
) -> Result<PreparedTarget, SimError> {
    // Mirror `measure_math`'s launch shape so the profiled run is the same
    // run Table 2 reports.
    let kernel = build_math_kernel(gpu.generation, pattern, 256, 12)?;
    let threads = 1024.min(gpu.max_threads_per_block);
    let blocks = (gpu.max_threads_per_sm / threads).clamp(1, 2);
    Ok(PreparedTarget {
        gpu,
        kernel,
        config: LaunchConfig::linear(blocks, threads),
        params: Vec::new(),
        resident: blocks,
        memory: GlobalMemory::new(),
        basis,
    })
}

fn sgemm_target(gpu: GpuConfig) -> Result<PreparedTarget, SimError> {
    let problem = SgemmProblem {
        variant: Variant::NN,
        m: SGEMM_PROFILE_SIZE,
        n: SGEMM_PROFILE_SIZE,
        k: SGEMM_PROFILE_SIZE,
    };
    let build = build_preset(gpu.generation, &problem, Preset::AsmOpt)?;
    let mut memory = GlobalMemory::new();
    let (a, b, c) = upload_problem(&mut memory, &problem, 0xC0FFEE)?;
    let threads = build.config.threads_per_block();
    let occ = gpu
        .occupancy()
        .occupancy(build.kernel.num_regs, build.kernel.shared_bytes, threads)
        .ok_or_else(|| SimError::Launch {
            message: format!("SGEMM kernel does not fit on {}", gpu.name),
        })?;
    let resident = (build
        .config
        .total_blocks()
        .min(u64::from(occ.blocks_per_sm))) as u32;
    let model = UpperBoundModel::new(&gpu);
    let bound_est = model.best_sgemm_bound();
    // Per-SM flops per shader cycle at the bound.
    let peak_fpc =
        gpu.theoretical_peak_gflops() * 1e9 / (f64::from(gpu.num_sms) * gpu.shader_clock_mhz * 1e6);
    let paper_fraction = peakperf_bound::paper_reference(gpu.generation).achieved_fraction;
    Ok(PreparedTarget {
        gpu,
        kernel: build.kernel,
        config: build.config,
        params: vec![a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()],
        resident,
        memory,
        basis: RateBasis::Flops {
            bound: bound_est.fraction_of_peak * peak_fpc,
            paper: Some(paper_fraction * peak_fpc),
        },
    })
}

pub(crate) fn prepare(name: &str) -> Result<PreparedTarget, SimError> {
    let patterns = table2_patterns();
    let ipc = |mnemonic, bound, paper| RateBasis::ThreadIpc {
        mnemonic,
        bound,
        paper,
    };
    let row = |index: usize, mnemonic, bound| {
        math_target(
            GpuConfig::gtx680(),
            &patterns[index],
            ipc(mnemonic, bound, Some(TABLE2_PAPER[index])),
        )
    };
    match name {
        // Row indices follow `table2_patterns()` / Table 2 row order.
        "table2_ffma" => row(7, "FFMA", 132.0),
        "table2_ffma_2way" => row(8, "FFMA", 66.0),
        "table2_ffma_3way" => row(9, "FFMA", 44.0),
        "table2_imad" => row(17, "IMAD", 33.2),
        // Fermi issues one warp instruction per shader cycle per SM.
        "fermi_ffma" => math_target(GpuConfig::gtx580(), &patterns[7], ipc("FFMA", 32.0, None)),
        "sgemm_fermi" => sgemm_target(GpuConfig::gtx580()),
        "sgemm_kepler" => sgemm_target(GpuConfig::gtx680()),
        other => Err(SimError::Launch {
            message: format!(
                "unknown profile target `{other}`; known: {}",
                TARGETS.iter().map(|t| t.name).collect::<Vec<_>>().join(" ")
            ),
        }),
    }
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

fn decompose_gap(
    basis: &RateBasis,
    report: &peakperf_sim::timing::TimingReport,
    profile: &Profile,
) -> GapDecomposition {
    let cycles = report.cycles.max(1) as f64;
    let (achieved, paper, overhead) = match basis {
        RateBasis::ThreadIpc {
            mnemonic, paper, ..
        } => {
            let measured = report.mix.count_prefix(mnemonic) as f64 * 32.0 / cycles;
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

fn render_text(
    name: &str,
    prepared: &PreparedTarget,
    gap: &GapDecomposition,
    profile: &Profile,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== profile: {name} ({}) ==", prepared.gpu.name);
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
/// written by `--profile-out`. `gpus` lists the GPUs the profiled targets
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
