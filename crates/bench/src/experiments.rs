//! One entry point per table/figure of the paper.
//!
//! Every function returns the rendered report text; the numeric series are
//! also exposed for tests and the benches.
//!
//! The inner loops are embarrassingly parallel (one independent simulation
//! per matrix size / instruction pattern / thread count), so each
//! experiment builds its job list in render order, fans it out through
//! [`crate::exec::Executor`], and assembles the table from the in-order
//! results — the rendered text is byte-identical whatever the worker
//! count.

use peakperf_arch::{Generation, GpuConfig, LdsWidth};
use peakperf_bound::{
    ffma_fraction, paper_reference, register_limit_sweep, SgemmConfig, SweepEntry, UpperBoundModel,
};
use peakperf_kernels::microbench::{math, mix, threads};
use peakperf_kernels::sgemm::{alloc_problem, build_preset, Preset, SgemmProblem, Variant};
use peakperf_regalloc::{analyze_ffma_conflicts, optimize_banks, SgemmPlan};
use peakperf_sim::timing::time_kernel;
use peakperf_sim::{GlobalMemory, LaunchConfig, SimError};

use crate::exec::Executor;
use crate::report::{f1, pct, Table};

/// The paper's headline SGEMM size (Section 5, Figure 5): the size of
/// `achieved`, Figure 5's first table and the `reproduce bench` SGEMM rows.
pub const PAPER_SGEMM_SIZE: u32 = 2400;

/// How much simulation to spend.
///
/// Exists only for the API the benchmark package pins
/// (`benchmark/src/api.rs` re-exports [`sgemm_gflops`] with this
/// parameter); every caller in this workspace passes `Speed::Full`.
/// ROADMAP item 8(c) deletes it together with that `api.rs` edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Speed {
    /// Cap the k dimension at 960.
    Quick,
    /// Simulate the full problem sizes.
    Full,
}

impl Speed {
    fn cap_k(self, k: u32) -> u32 {
        match self {
            Speed::Quick => k.min(960),
            Speed::Full => k,
        }
    }
}

/// Simulated GFLOPS of one preset on one GPU at `size` (k possibly capped
/// by `speed`), timed on the zeroed operands of
/// [`alloc_problem`]: simulated time does not depend on their values.
///
/// # Errors
///
/// Propagates build/simulation errors.
pub fn sgemm_gflops(
    gpu: &GpuConfig,
    variant: Variant,
    preset: Preset,
    size: u32,
    speed: Speed,
) -> Result<f64, SimError> {
    let problem = SgemmProblem {
        variant,
        m: size,
        n: size,
        k: speed.cap_k(size),
    };
    let build = build_preset(gpu.generation, &problem, preset)?;
    timed_gflops(gpu, &build.kernel, build.config, &problem)
}

/// Simulated GFLOPS of `kernel` launched under `config` on `problem`,
/// timed on the zeroed operands of [`alloc_problem`].
fn timed_gflops(
    gpu: &GpuConfig,
    kernel: &peakperf_sass::Kernel,
    config: LaunchConfig,
    problem: &SgemmProblem,
) -> Result<f64, SimError> {
    let mut memory = GlobalMemory::new();
    let (a, b, c) = alloc_problem(&mut memory, problem)?;
    let params = [a, b, c, 1.0f32.to_bits(), 0.0f32.to_bits()];
    let timing = time_kernel(
        gpu,
        kernel,
        config,
        &params,
        &mut memory,
        Some(problem.flops()),
    )?;
    Ok(timing.gflops)
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Table 1: architecture evolution.
pub fn table1() -> String {
    let mut t = Table::new(
        "Table 1 — Architecture Evolution (regenerated from the config database)",
        &[
            "metric",
            "GT200 (GTX280)",
            "Fermi (GTX580)",
            "Kepler (GTX680)",
        ],
    );
    for row in peakperf_arch::render_table1() {
        t.row(vec![
            row.label.to_owned(),
            row.values[0].clone(),
            row.values[1].clone(),
            row.values[2].clone(),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Paper reference values for Table 2, in the same order as
/// [`math::table2_patterns`].
pub const TABLE2_PAPER: [f64; 20] = [
    128.7, 132.0, 66.2, // FADD
    129.0, 132.0, 66.2, // FMUL
    129.0, 132.0, 66.2, 44.2, // FFMA
    128.7, 132.4, 66.2, // IADD
    33.2, 33.2, 33.2, // IMUL
    33.2, 33.1, 33.2, 26.5, // IMAD
];

/// Table 2: math-instruction throughput vs operand register indices on the
/// Kepler GPU.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn table2() -> Result<String, SimError> {
    let gpu = GpuConfig::gtx680();
    let mut t = Table::new(
        "Table 2 — Math Instruction Throughput on Kepler (thread insts / cycle / SM)",
        &["instruction", "measured", "paper"],
    );
    let patterns = math::table2_patterns();
    let rows = Executor::auto().try_map(&patterns, |p| math::measure_math(&gpu, p))?;
    for (row, paper) in rows.iter().zip(TABLE2_PAPER) {
        t.row(vec![row.pattern.label(), f1(row.throughput), f1(paper)]);
    }
    Ok(t.render())
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// Figure 2: thread-instruction throughput mixing FFMA and LDS.X.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig2() -> Result<String, SimError> {
    let mut out = String::new();
    let ratios: Vec<u32> = (0..=32).collect();
    let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
    let jobs: Vec<(usize, u32, LdsWidth)> = gpus
        .iter()
        .enumerate()
        .flat_map(|(g, _)| {
            ratios
                .iter()
                .flat_map(move |&r| LdsWidth::ALL.map(|w| (g, r, w)))
        })
        .collect();
    let results = Executor::auto().try_map(&jobs, |&(g, r, w)| mix::measure_mix(&gpus[g], r, w))?;
    let mut results = results.into_iter();
    for gpu in &gpus {
        let mut t = Table::new(
            format!(
                "Figure 2 — {} thread-instruction throughput vs FFMA/LDS.X ratio",
                gpu.name
            ),
            &["ratio", "LDS", "LDS.64", "LDS.128"],
        );
        for &r in &ratios {
            let p32 = results.next().expect("job per (gpu, ratio, width)");
            let p64 = results.next().expect("job per (gpu, ratio, width)");
            let p128 = results.next().expect("job per (gpu, ratio, width)");
            t.row(vec![
                r.to_string(),
                f1(p32.throughput),
                f1(p64.throughput),
                f1(p128.throughput),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

/// Figure 3: FFMA percentage in the SGEMM main loop vs register blocking
/// factor (analytical).
pub fn fig3() -> String {
    let mut t = Table::new(
        "Figure 3 — FFMA percentage vs register blocking factor",
        &["BR", "LDS", "LDS.64", "LDS.128"],
    );
    for br in 1..=14 {
        t.row(vec![
            br.to_string(),
            pct(ffma_fraction(br, LdsWidth::B32)),
            pct(ffma_fraction(br, LdsWidth::B64)),
            pct(ffma_fraction(br, LdsWidth::B128)),
        ]);
    }
    let mut out = t.render();
    out.push_str("\npaper anchors at BR=6: 75% (LDS), 85.7% (LDS.64), 92.3% (LDS.128)\n");
    out
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// Figure 4: 6:1 FFMA/LDS.64 throughput vs active threads, dependent and
/// independent.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig4() -> Result<String, SimError> {
    let mut out = String::new();
    let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
    let jobs: Vec<(usize, threads::Dependence, u32)> = gpus
        .iter()
        .enumerate()
        .flat_map(|(g, gpu)| {
            threads::sweep(gpu).flat_map(move |c| {
                [
                    (g, threads::Dependence::Dependent, c),
                    (g, threads::Dependence::Independent, c),
                ]
            })
        })
        .collect();
    let results = Executor::auto().try_map(&jobs, |&(g, dependence, c)| {
        threads::measure_threads(&gpus[g], dependence, c)
    })?;
    let mut results = results.into_iter();
    for gpu in &gpus {
        let mut t = Table::new(
            format!(
                "Figure 4 — {} 6:1 FFMA/LDS.64 throughput vs active threads",
                gpu.name
            ),
            &["threads", "dependent", "independent"],
        );
        for c in threads::sweep(gpu) {
            let dep = results.next().expect("job per (gpu, dependence, count)");
            let ind = results.next().expect("job per (gpu, dependence, count)");
            t.row(vec![c.to_string(), f1(dep.throughput), f1(ind.throughput)]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Upper bound (Section 4.5)
// ---------------------------------------------------------------------

/// The Section 4.5 headline estimates, plus the top of the design-space
/// sweep (Section 5.5).
pub fn upperbound() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Section 4.5 — Estimated SGEMM performance upper bounds",
        &["GPU", "config", "bound", "paper", "limited by"],
    );
    let cases: [(GpuConfig, SgemmConfig, f64); 3] = [
        (GpuConfig::gtx580(), SgemmConfig::paper_fermi(), 0.825),
        (
            GpuConfig::gtx680(),
            SgemmConfig {
                width: LdsWidth::B64,
                ..SgemmConfig::paper_kepler()
            },
            0.546,
        ),
        (GpuConfig::gtx680(), SgemmConfig::paper_kepler(), 0.576),
    ];
    {
        for (gpu, cfg, paper) in cases {
            let model = UpperBoundModel::new(&gpu);
            if let Some(est) = model.sgemm_bound(&cfg) {
                t.row(vec![
                    gpu.name.to_owned(),
                    format!("BR={} TB={} L={} {:?}", cfg.br, cfg.tb, cfg.l, cfg.width),
                    pct(est.fraction_of_peak),
                    pct(paper),
                    est.limited_by.to_string(),
                ]);
            }
        }
    }
    out.push_str(&t.render());
    out.push('\n');

    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let model = UpperBoundModel::new(&gpu);
        let entries: Vec<SweepEntry> = peakperf_bound::sweep(&model);
        let mut t = Table::new(
            format!("Section 5.5 — {} design-space sweep (top 5)", gpu.name),
            &["rank", "config", "bound GFLOPS", "regs", "blocks x threads"],
        );
        for (i, e) in entries.iter().take(5).enumerate() {
            let c = e.estimate.config;
            t.row(vec![
                (i + 1).to_string(),
                format!("BR={} TB={} L={} {:?}", c.br, c.tb, c.l, c.width),
                f1(e.estimate.gflops),
                e.regs_per_thread.to_string(),
                format!("{} x {}", e.blocks_per_sm, e.estimate.config.tb),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// Figure 5: the four SGEMM variants, CUBLAS-like vs ASM, on both GPUs.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig5() -> Result<String, SimError> {
    let sizes = [PAPER_SGEMM_SIZE, 4800];
    let mut out = String::new();
    let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
    let jobs: Vec<(usize, Variant, Preset, u32)> = gpus
        .iter()
        .enumerate()
        .flat_map(|(g, _)| {
            sizes.iter().flat_map(move |&size| {
                Variant::ALL.into_iter().flat_map(move |variant| {
                    [
                        (g, variant, Preset::CublasLike, size),
                        (g, variant, Preset::AsmOpt, size),
                    ]
                })
            })
        })
        .collect();
    let results = Executor::auto().try_map(&jobs, |&(g, variant, preset, size)| {
        sgemm_gflops(&gpus[g], variant, preset, size, Speed::Full)
    })?;
    let mut results = results.into_iter();
    for gpu in &gpus {
        for size in sizes {
            let mut t = Table::new(
                format!("Figure 5 — {} SGEMM variants at {size} (GFLOPS)", gpu.name),
                &["variant", "cublas-like", "asm"],
            );
            for variant in Variant::ALL {
                let cublas = results
                    .next()
                    .expect("job per (gpu, size, variant, preset)");
                let asm = results
                    .next()
                    .expect("job per (gpu, size, variant, preset)");
                t.row(vec![variant.name().to_owned(), f1(cublas), f1(asm)]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Figures 6 and 7
// ---------------------------------------------------------------------

fn fig67(gpu: &GpuConfig) -> Result<String, SimError> {
    let sizes: Vec<u32> = (1..=10).map(|i| i * 480).collect();
    let fig = if gpu.generation == Generation::Fermi {
        "Figure 6"
    } else {
        "Figure 7"
    };
    let mut t = Table::new(
        format!("{fig} — SGEMM NN on {} vs matrix size (GFLOPS)", gpu.name),
        &["size", "asm", "cublas-like", "magma-like"],
    );
    let jobs: Vec<(u32, Preset)> = sizes
        .iter()
        .flat_map(|&size| {
            [Preset::AsmOpt, Preset::CublasLike, Preset::MagmaLike].map(|p| (size, p))
        })
        .collect();
    let results = Executor::auto().try_map(&jobs, |&(size, preset)| {
        sgemm_gflops(gpu, Variant::NN, preset, size, Speed::Full)
    })?;
    for (size, chunk) in sizes.iter().zip(results.chunks(3)) {
        t.row(vec![
            size.to_string(),
            f1(chunk[0]),
            f1(chunk[1]),
            f1(chunk[2]),
        ]);
    }
    Ok(t.render())
}

/// Figure 6: SGEMM NN performance sweep on GTX580.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig6() -> Result<String, SimError> {
    fig67(&GpuConfig::gtx580())
}

/// Figure 7: SGEMM NN performance sweep on GTX680.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig7() -> Result<String, SimError> {
    fig67(&GpuConfig::gtx680())
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Figure 8: FFMA register-bank conflict census of the kernel binaries.
///
/// # Errors
///
/// Propagates build errors.
pub fn fig8() -> Result<String, SimError> {
    let mut t = Table::new(
        "Figure 8 — FFMA register bank conflicts (static census, Kepler binaries)",
        &["kernel", "no conflict", "2-way", "3-way"],
    );
    let problem = SgemmProblem::square(Variant::NN, 960);
    // MAGMA-like for all four variants (the paper's magma_NN..TT bars).
    for variant in Variant::ALL {
        let p = SgemmProblem { variant, ..problem };
        let build = build_preset(Generation::Kepler, &p, Preset::MagmaLike)?;
        let census = analyze_ffma_conflicts(&build.kernel.code);
        t.row(vec![
            format!("magma_{}", variant.name()),
            pct(census.free_fraction()),
            pct(census.two_way_fraction()),
            pct(census.three_way_fraction()),
        ]);
    }
    for (name, preset) in [
        ("asm_NN (first version)", Preset::AsmNaiveRegs),
        ("mod_asm_NN (optimized)", Preset::AsmOpt),
    ] {
        let build = build_preset(Generation::Kepler, &problem, preset)?;
        let census = analyze_ffma_conflicts(&build.kernel.code);
        t.row(vec![
            name.to_owned(),
            pct(census.free_fraction()),
            pct(census.two_way_fraction()),
            pct(census.three_way_fraction()),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\npaper: magma ~30% 2-way / ~1% 3-way; first asm_NN 68.8% 2-way, 10.6% 3-way;\n\
         optimized 1.2% 2-way, 0% 3-way (the residual epilogue conflicts differ)\n",
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------

/// Figure 9: the bank-optimized register allocation for 6×6 blocking.
///
/// # Errors
///
/// Propagates allocator errors.
pub fn fig9() -> Result<String, SimError> {
    let plan = SgemmPlan::bank_optimized(6).map_err(|e| SimError::Invalid {
        message: e.to_string(),
    })?;
    let mut out = String::new();
    out.push_str("## Figure 9 — Register allocation for the 6x6 sub-matrix (Kepler)\n");
    out.push_str(&format!(
        "col A: {}\n",
        plan.a_col
            .iter()
            .map(|r| format!("{r}({})", r.bank()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.push_str(&format!(
        "row B: {}\n",
        plan.b_row
            .iter()
            .map(|r| format!("{r}({})", r.bank()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.push_str("C sub-matrix (register/bank):\n");
    for i in 0..6 {
        let row: Vec<String> = (0..6)
            .map(|j| format!("{:>3}/{}", plan.c[i][j].to_string(), plan.c[i][j].bank()))
            .collect();
        out.push_str(&format!("  {}\n", row.join("  ")));
    }
    let (free, two, three) = plan.conflict_census();
    out.push_str(&format!(
        "main-loop FFMA conflicts: {free} free, {two} 2-way, {three} 3-way \
         (paper: zero conflicts)\n"
    ));
    // Bank balance, as in the paper's final mapping (9 per bank).
    let mut counts = [0usize; 4];
    for row in &plan.c {
        for r in row {
            counts[r.bank().index()] += 1;
        }
    }
    out.push_str(&format!(
        "C accumulators per bank: even0={} even1={} odd0={} odd1={}\n",
        counts[0], counts[1], counts[2], counts[3]
    ));
    Ok(out)
}

// ---------------------------------------------------------------------
// Achieved vs bound (Section 5 headline)
// ---------------------------------------------------------------------

/// Section 5: achieved performance vs the estimated upper bound and the
/// CUBLAS baseline.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn achieved() -> Result<String, SimError> {
    let size = PAPER_SGEMM_SIZE;
    let mut t = Table::new(
        format!("Section 5 — achieved SGEMM NN at {size} vs bound"),
        &[
            "GPU",
            "asm GFLOPS",
            "% of peak",
            "% of bound",
            "paper % of peak",
            "paper % of bound",
            "asm/cublas",
        ],
    );
    let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
    let jobs: Vec<(usize, Preset)> = gpus
        .iter()
        .enumerate()
        .flat_map(|(g, _)| [(g, Preset::AsmOpt), (g, Preset::CublasLike)])
        .collect();
    let results = Executor::auto().try_map(&jobs, |&(g, preset)| {
        sgemm_gflops(&gpus[g], Variant::NN, preset, size, Speed::Full)
    })?;
    let mut results = results.into_iter();
    for gpu in &gpus {
        let model = UpperBoundModel::new(gpu);
        let bound = model.best_sgemm_bound();
        let peak = gpu.theoretical_peak_gflops();
        let asm = results.next().expect("job per (gpu, preset)");
        let cublas = results.next().expect("job per (gpu, preset)");
        let paper = paper_reference(gpu.generation);
        t.row(vec![
            gpu.name.to_owned(),
            f1(asm),
            pct(asm / peak),
            pct(asm / bound.gflops),
            pct(paper.achieved_fraction),
            pct(paper.achieved_fraction_of_bound()),
            format!("{:.2}x", asm / cublas),
        ]);
    }
    Ok(t.render())
}

// ---------------------------------------------------------------------
// Ablation: the register-encoding limit (Section 2 / the K20X remark)
// ---------------------------------------------------------------------

/// Ablation: how the SGEMM bound moves if the ISA allowed more registers
/// per thread (GK110/K20X allows 255; Fermi/GK104 stop at 63).
pub fn ablation() -> String {
    let mut out = String::new();
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        let mut t = Table::new(
            format!(
                "Ablation — {} SGEMM bound vs per-thread register limit",
                gpu.name
            ),
            &["max regs/thread", "best BR", "bound (% of peak)", "config"],
        );
        for p in register_limit_sweep(&gpu, &[40, 63, 127, 255]) {
            let c = p.config;
            t.row(vec![
                p.max_regs.to_string(),
                p.best_br.to_string(),
                pct(p.fraction_of_peak),
                format!("TB={} L={} {:?}", c.tb, c.l, c.width),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "context: the K20X (GK110) raises the limit to 255 registers and NVIDIA          documents ~73% SGEMM efficiency on it (Section 1)
",
    );
    out
}

// ---------------------------------------------------------------------
// The automatic bank-conflict optimizer (Section 5.5)
// ---------------------------------------------------------------------

/// Run the automatic register-renaming optimizer on the naive-register
/// Kepler kernel and report conflicts and simulated performance before and
/// after — the "simple solution" of Section 5.4 applied by a tool instead
/// of by hand.
///
/// # Errors
///
/// Propagates build/simulation errors.
pub fn optimizer() -> Result<String, SimError> {
    let gpu = GpuConfig::gtx680();
    let problem = SgemmProblem::square(Variant::NN, 960);
    let build = build_preset(gpu.generation, &problem, Preset::AsmNaiveRegs)?;
    let rewritten = optimize_banks(&build.kernel).map_err(|e| SimError::Invalid {
        message: e.to_string(),
    })?;

    let kernels = [&build.kernel, &rewritten.kernel];
    let timed =
        Executor::auto().try_map(&kernels, |k| timed_gflops(&gpu, k, build.config, &problem))?;
    let (before_gf, after_gf) = (timed[0], timed[1]);

    let mut t = Table::new(
        "Section 5.5 — automatic bank-conflict removal on the naive Kepler kernel",
        &["kernel", "2-way", "3-way", "GFLOPS"],
    );
    t.row(vec![
        "naive registers".into(),
        pct(rewritten.before.two_way_fraction()),
        pct(rewritten.before.three_way_fraction()),
        f1(before_gf),
    ]);
    t.row(vec![
        "after optimize_banks".into(),
        pct(rewritten.after.two_way_fraction()),
        pct(rewritten.after.three_way_fraction()),
        f1(after_gf),
    ]);
    let mut out = t.render();
    out.push_str(
        "
paper (hand-applied): 68.8% 2-way / 10.6% 3-way at ~1100 GFLOPS became          1.2% / 0% at ~1300 GFLOPS
",
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// Section 5.5 throughput database
// ---------------------------------------------------------------------

/// The Section 5.5 microbenchmark family: populate the reference database
/// for both GPUs and print it.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn throughput_db() -> Result<String, SimError> {
    use peakperf_kernels::microbench::family::{measure_spec, standard_specs, ThroughputDb};
    let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
    let jobs: Vec<(usize, peakperf_kernels::microbench::family::MixSpec)> = gpus
        .iter()
        .enumerate()
        .flat_map(|(g, _)| standard_specs().into_iter().map(move |s| (g, s)))
        .collect();
    let references = Executor::auto().try_map(&jobs, |(g, spec)| measure_spec(&gpus[*g], spec))?;
    let mut db = ThroughputDb::new();
    for ((g, spec), reference) in jobs.iter().zip(references) {
        db.insert(&gpus[*g], spec, reference);
    }
    let mut t = Table::new(
        "Section 5.5 — microbenchmark reference database (thread insts/cycle/SM)",
        &["mix", "throughput", "threads"],
    );
    for (key, r) in db.iter() {
        t.row(vec![
            key.to_owned(),
            f1(r.throughput),
            r.threads.to_string(),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_generations() {
        let s = table1();
        assert!(s.contains("GTX280"));
        assert!(s.contains("1581"));
        assert!(s.contains("3090"));
    }

    #[test]
    fn fig3_is_instant_and_anchored() {
        let s = fig3();
        assert!(s.contains("85.7%"));
        assert!(s.contains("92.3%"));
    }

    #[test]
    fn fig9_reports_conflict_free_plan() {
        let s = fig9().unwrap();
        assert!(s.contains("36 free, 0 2-way, 0 3-way"));
    }

    #[test]
    fn upperbound_headlines() {
        let s = upperbound();
        assert!(s.contains("82.5%"));
        assert!(s.contains("57.6%"));
    }

    #[test]
    fn fig8_shows_the_contrast() {
        let s = fig8().unwrap();
        assert!(s.contains("magma_NN"));
        assert!(s.contains("mod_asm_NN (optimized)"));
    }
}
