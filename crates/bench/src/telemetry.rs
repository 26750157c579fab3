//! Continuous performance telemetry: the `reproduce bench` suite,
//! baselines, and regression gates.
//!
//! The paper's whole method is holding *measured* numbers against
//! *modeled* bounds; this module does the same to the repository itself.
//! [`run_suite`] executes a fixed benchmark suite — every Table-2
//! microbenchmark row plus the assembly-optimized SGEMM in all four
//! transpose variants on both GPUs, at the paper's headline size
//! ([`PAPER_SGEMM_SIZE`]³) — and records two kinds of telemetry per row:
//!
//! * **harness performance** — wall time, simulated cycles/sec and
//!   warp-instructions/sec, executor utilization, and timing-cache
//!   hit rate, attributed per row by the executor-boundary counter
//!   scopes ([`peakperf_sim::with_counter_scope`]);
//! * **model accuracy** — the simulated throughput against the paper's
//!   measured value, the percent error, and the per-[`StallKind`]
//!   stall-cycle decomposition from the PR-2 profiler's attribution
//!   sites.
//!
//! The whole run renders as a versioned `peakperf-bench-v1` JSON
//! document. Checked-in documents under `bench/baselines/` are the
//! repository's performance memory: [`compare`] diffs a fresh run
//! against one and classifies every metric as improved / unchanged /
//! regressed — **accuracy drift, and any difference in a row's simulated
//! cycle/instruction/stall counters, is always an error** (a drift in
//! either direction means the model changed and the baseline must be
//! consciously re-recorded). Wall time is recorded but never compared:
//! how fast the harness runs is `benchmark/`'s question. The `reproduce
//! bench --compare` exit code reflects the gate, which is what CI runs
//! on every push.
//!
//! Volatile (machine/load-dependent) fields are named `wall_ms` /
//! `*_wall_ms` / `*_per_sec` / `utilization`, so tooling (and the
//! determinism self-test) can mask them by key and compare the rest.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use peakperf_arch::GpuConfig;
use peakperf_bound::paper_reference;
use peakperf_kernels::microbench::math::{table2_patterns, MathPattern};
use peakperf_kernels::sgemm::{Preset, Variant};
use peakperf_sim::timing::profile::{check_stall_kinds, stall_kinds_json};
use peakperf_sim::timing::StallKind;
use peakperf_sim::{ensure, obj, Counters, Json, SimError};

use crate::exec::{Executor, JobStats};
use crate::experiments::{sgemm_gflops, Speed, PAPER_SGEMM_SIZE, TABLE2_PAPER};
use crate::report::{envelope, Table, PAPER_GPUS};

/// The schema identifier of the bench document.
pub const BENCH_SCHEMA: &str = "peakperf-bench-v1";

/// The schema identifier of the comparison document.
pub const COMPARE_SCHEMA: &str = "peakperf-bench-compare-v1";

// ---------------------------------------------------------------------
// Suite definition
// ---------------------------------------------------------------------

/// One row of the fixed suite.
#[derive(Debug, Clone)]
enum RowSpec {
    /// A Table-2 math-throughput pattern on the Kepler GPU.
    Table2 { index: usize, pattern: MathPattern },
    /// The assembly-optimized SGEMM, one transpose variant on one GPU.
    Sgemm { fermi: bool, variant: Variant },
}

impl RowSpec {
    fn id(&self) -> String {
        match self {
            RowSpec::Table2 { pattern, .. } => format!("table2/{}", slug(&pattern.label())),
            RowSpec::Sgemm { fermi, variant } => format!(
                "sgemm/{}/{}",
                if *fermi { "gtx580" } else { "gtx680" },
                variant.name().to_ascii_lowercase()
            ),
        }
    }
}

/// `"FFMA R0, R1, R4, R5"` → `"ffma_r0_r1_r4_r5"`.
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// The full fixed suite, in document order: the 20 Table-2 rows, then
/// SGEMM NN/NT/TN/TT on GTX580 and GTX680.
fn suite() -> Vec<RowSpec> {
    let mut specs: Vec<RowSpec> = table2_patterns()
        .into_iter()
        .enumerate()
        .map(|(index, pattern)| RowSpec::Table2 { index, pattern })
        .collect();
    for fermi in [true, false] {
        for variant in Variant::ALL {
            specs.push(RowSpec::Sgemm { fermi, variant });
        }
    }
    specs
}

// ---------------------------------------------------------------------
// Running the suite
// ---------------------------------------------------------------------

/// One measured suite row.
#[derive(Debug, Clone, Default)]
pub struct BenchRow {
    /// Stable row identifier (`table2/...` or `sgemm/<gpu>/<variant>`).
    pub id: String,
    /// Row family: `table2` or `sgemm`.
    pub kind: &'static str,
    /// GPU the row ran on.
    pub gpu: &'static str,
    /// Human-readable label (the paper's row notation).
    pub label: String,
    /// Unit of `simulated` and `paper`.
    pub unit: &'static str,
    /// Simulated throughput.
    pub simulated: f64,
    /// The paper's measured value for the same row.
    pub paper: f64,
    /// Wall time of the row's simulation (volatile).
    pub wall: Duration,
    /// Simulation-counter growth attributable to this row alone.
    pub counters: Counters,
}

impl BenchRow {
    /// Signed percent error of the simulated value vs the paper.
    pub fn pct_error(&self) -> f64 {
        100.0 * (self.simulated - self.paper) / self.paper
    }

    /// Fraction of this row's stall cycles attributed to `kind`.
    pub fn stall_share(&self, kind: StallKind) -> f64 {
        let total = self.counters.stalled_cycles();
        if total == 0 {
            0.0
        } else {
            self.counters.stall_cycles[kind.index()] as f64 / total as f64
        }
    }
}

/// A whole suite run.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Worker threads used.
    pub workers: usize,
    /// Whether the timing cache was enabled.
    pub cache_enabled: bool,
    /// The row-id prefix the suite was narrowed to (`None` = the whole
    /// suite). Recorded so the document says which rows it must cover.
    pub filter: Option<String>,
    /// Rows, in suite order.
    pub rows: Vec<BenchRow>,
    /// Wall time of the whole suite (volatile).
    pub wall: Duration,
    /// Executor job statistics over the suite.
    pub jobs: JobStats,
}

impl BenchReport {
    /// Summed counters over all rows.
    pub fn totals(&self) -> Counters {
        let mut t = Counters::default();
        for row in &self.rows {
            t.accumulate(&row.counters);
        }
        t
    }

    /// Timing-cache hit rate over the suite (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let t = self.totals();
        let lookups = t.cache_hits + t.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            t.cache_hits as f64 / lookups as f64
        }
    }

    /// Mean absolute percent error across rows.
    pub fn mean_abs_pct_error(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.pct_error().abs()).sum::<f64>() / self.rows.len() as f64
    }

    /// Worst absolute percent error across rows.
    pub fn max_abs_pct_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.pct_error().abs())
            .fold(0.0, f64::max)
    }

    /// Executor thread utilization: summed job busy time over
    /// `workers × wall` (volatile).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.jobs.busy_nanos as f64 / 1e9) / capacity
        }
    }

    fn per_sec(n: u64, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            n as f64 / secs
        }
    }

    /// Render the human-readable scorecard.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(
            format!(
                "Benchmark telemetry — model accuracy ({} rows)",
                self.rows.len()
            ),
            &["row", "unit", "simulated", "paper", "error", "top stall"],
        );
        for row in &self.rows {
            let top = StallKind::ALL
                .into_iter()
                .max_by(|a, b| row.stall_share(*a).total_cmp(&row.stall_share(*b)))
                .filter(|k| row.stall_share(*k) > 0.0);
            t.row(vec![
                row.id.clone(),
                row.unit.to_owned(),
                format!("{:.1}", row.simulated),
                format!("{:.1}", row.paper),
                format!("{:+.1}%", row.pct_error()),
                match top {
                    Some(k) => format!("{} {:.0}%", k.as_str(), 100.0 * row.stall_share(k)),
                    None => "-".to_owned(),
                },
            ]);
        }
        let mut out = t.render();
        let totals = self.totals();
        let _ = writeln!(
            out,
            "\naccuracy: mean |err| {:.2}%, max |err| {:.2}% over {} rows",
            self.mean_abs_pct_error(),
            self.max_abs_pct_error(),
            self.rows.len()
        );
        let _ = writeln!(
            out,
            "harness:  {:.1} ms wall, {} workers at {:.0}% utilization, \
             {:.2} Mcycles/s, {:.2} Minsts/s, cache hit rate {:.1}%",
            self.wall.as_secs_f64() * 1e3,
            self.workers,
            100.0 * self.utilization(),
            Self::per_sec(totals.sim_cycles, self.wall) / 1e6,
            Self::per_sec(totals.warp_instructions, self.wall) / 1e6,
            100.0 * self.cache_hit_rate(),
        );
        out
    }

    /// The `peakperf-bench-v1` document.
    pub fn to_json(&self) -> Json {
        let totals = self.totals();
        let rows = self.rows.iter().map(|row| {
            obj!(row; id, kind, gpu, label, unit, simulated, paper,
                pct_error = row.pct_error(),
                wall_ms = row.wall.as_secs_f64() * 1e3,
                cycles_per_sec = Self::per_sec(row.counters.sim_cycles, row.wall),
                insts_per_sec = Self::per_sec(row.counters.warp_instructions, row.wall),
                counters = row.counters.to_json(),
                stall_share = stall_kinds_json(&StallKind::ALL.map(|k| row.stall_share(k))))
        });
        let mut body = obj!(self; workers, cache_enabled,
            wall_ms = self.wall.as_secs_f64() * 1e3,
            utilization = self.utilization(),
            cycles_per_sec = Self::per_sec(totals.sim_cycles, self.wall),
            insts_per_sec = Self::per_sec(totals.warp_instructions, self.wall),
            cache_hit_rate = self.cache_hit_rate());
        body.push_some("filter", self.filter.as_deref());
        let accuracy = obj!((); rows = self.rows.len(),
            mean_abs_pct_error = self.mean_abs_pct_error(),
            max_abs_pct_error = self.max_abs_pct_error());
        body.push("accuracy", accuracy);
        body.push("totals", totals.to_json());
        body.push("rows", rows.collect::<Json>());
        envelope(BENCH_SCHEMA, &PAPER_GPUS, body)
    }
}

/// A one-row bench document: what [`check_bench`] and [`compare`] hold a
/// document's keys and types against.
fn sample_document() -> Json {
    let row = BenchRow {
        paper: 1.0,
        ..BenchRow::default()
    };
    let sample = BenchReport {
        rows: vec![row],
        ..BenchReport::default()
    };
    sample.to_json()
}

/// Check a `peakperf-bench-v1` document: shaped like the sample
/// [`BenchReport::to_json`] writes for one row; per-row counters and
/// `stall_share` keyed by [`StallKind::ALL`] exactly; `pct_error`
/// consistent with `simulated` vs `paper`; and coverage — the rows are
/// exactly the suite rows under the document's `filter` prefix (the whole
/// 28-row suite when it records none), in suite order, so ids are unique
/// and no row of the selection is missing.
pub fn check_bench(doc: &Json, errors: &mut Vec<String>) {
    doc.conforms(&sample_document(), &"bench document", errors);
    let mut ids = Vec::new();
    for (i, row) in doc.items("rows").iter().enumerate() {
        let id = row.text("id");
        ids.push(id);
        let at = format!("rows[{i}] ({id})");
        check_stall_kinds(
            &row["counters"]["stall_cycles"],
            &format!("{at}.counters"),
            errors,
        );
        check_stall_kinds(&row["stall_share"], &format!("{at}.stall_share"), errors);
        let num = |key| row[key].as_f64().unwrap_or(f64::NAN);
        let (simulated, paper, pct) = (num("simulated"), num("paper"), num("pct_error"));
        let want = 100.0 * (simulated - paper) / paper;
        let consistent = (want - pct).abs() <= 0.01 || !want.is_finite() || pct.is_nan();
        ensure!(
            errors,
            consistent,
            "{at}: pct_error {pct} inconsistent with simulated {simulated} \
             vs paper {paper} (want {want:.3})"
        );
    }
    let filter = doc.text("filter");
    let suite: Vec<String> = suite().iter().map(RowSpec::id).collect();
    let selected: Vec<&str> = suite
        .iter()
        .map(String::as_str)
        .filter(|id| id.starts_with(filter))
        .collect();
    ensure!(
        errors,
        ids == selected,
        "bench document: rows {ids:?} are not the suite rows under `{filter}` \
         {selected:?} (missing, duplicate, unknown or reordered rows)"
    );
}

fn run_row(spec: &RowSpec) -> Result<(BenchRow, Duration), SimError> {
    let t0 = Instant::now();
    let (gpu, kind, label, unit, simulated, paper) = match spec {
        RowSpec::Table2 { index, pattern } => {
            let gpu = GpuConfig::gtx680();
            let measured = peakperf_kernels::microbench::math::measure_math(&gpu, pattern)?;
            (
                gpu.name,
                "table2",
                pattern.label(),
                "thread-insts/cycle/SM",
                measured.throughput,
                TABLE2_PAPER[*index],
            )
        }
        RowSpec::Sgemm { fermi, variant } => {
            let gpu = if *fermi {
                GpuConfig::gtx580()
            } else {
                GpuConfig::gtx680()
            };
            let gflops = sgemm_gflops(
                &gpu,
                *variant,
                Preset::AsmOpt,
                PAPER_SGEMM_SIZE,
                Speed::Full,
            )?;
            // The paper reports per-GPU achieved GFLOPS for the asm
            // kernel (Section 5); Figure 5 shows the four variants within
            // a few percent of each other, so the NN headline is the
            // reference for every variant.
            let paper = paper_reference(gpu.generation).achieved_gflops();
            (
                gpu.name,
                "sgemm",
                format!("asm {} @ {}", variant.name(), PAPER_SGEMM_SIZE),
                "GFLOPS",
                gflops,
                paper,
            )
        }
    };
    Ok((
        BenchRow {
            id: spec.id(),
            kind,
            gpu,
            label,
            unit,
            simulated,
            paper,
            wall: Duration::ZERO,          // patched in below with the job wall
            counters: Counters::default(), // patched with the scoped delta
        },
        t0.elapsed(),
    ))
}

/// Run the suite rows whose id starts with `filter` (all rows when
/// `None`), fanning the rows out over the executor with per-row counter
/// attribution.
///
/// # Errors
///
/// The first failing row, by suite order; an empty selection.
pub fn run_suite_filtered(filter: Option<&str>) -> Result<BenchReport, SimError> {
    let specs: Vec<RowSpec> = suite()
        .into_iter()
        .filter(|s| filter.is_none_or(|f| s.id().starts_with(f)))
        .collect();
    if specs.is_empty() {
        return Err(SimError::Invalid {
            message: format!(
                "bench filter `{}` matches no suite row",
                filter.unwrap_or_default()
            ),
        });
    }
    let executor = Executor::auto();
    let jobs_before = JobStats::snapshot();
    let t0 = Instant::now();
    let results = executor.try_map_scoped(&specs, run_row)?;
    let wall = t0.elapsed();
    let jobs = JobStats::snapshot().delta_since(&jobs_before);
    let rows = results
        .into_iter()
        .map(|((mut row, row_wall), counters)| {
            row.wall = row_wall;
            row.counters = counters;
            row
        })
        .collect();
    Ok(BenchReport {
        workers: executor.workers(),
        cache_enabled: peakperf_sim::timing::cache::global_enabled(),
        filter: filter.map(str::to_owned),
        rows,
        wall,
        jobs,
    })
}

/// Run the full fixed suite.
///
/// # Errors
///
/// The first failing row, by suite order.
pub fn run_suite() -> Result<BenchReport, SimError> {
    run_suite_filtered(None)
}

// ---------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------

/// Accuracy band in percentage points of model error: a row's percent
/// error moving more than this is drift — **always** a gate failure, in
/// either direction.
const ACCURACY_BAND_PP: f64 = 0.5;

/// Classification of one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Better than baseline (beyond the band).
    Improved,
    /// Within the band.
    Unchanged,
    /// Worse than baseline (beyond the band).
    Regressed,
    /// Present now, absent from the baseline.
    New,
    /// Present in the baseline, absent now (coverage loss).
    Removed,
}

impl MetricClass {
    /// Every class, in the order the comparison document counts them.
    pub const ALL: [MetricClass; 5] = [
        MetricClass::Improved,
        MetricClass::Unchanged,
        MetricClass::Regressed,
        MetricClass::New,
        MetricClass::Removed,
    ];

    /// Lower-case label used in both renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Improved => "improved",
            MetricClass::Unchanged => "unchanged",
            MetricClass::Regressed => "regressed",
            MetricClass::New => "new",
            MetricClass::Removed => "removed",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name (`<row-id> <metric>` or `suite <metric>`).
    pub metric: String,
    /// Baseline value (absent for [`MetricClass::New`]).
    pub baseline: Option<f64>,
    /// Current value (absent for [`MetricClass::Removed`]).
    pub current: Option<f64>,
    /// Classification under the accuracy band / exact-counter rule.
    pub class: MetricClass,
    /// Whether this metric counts toward the gate (exit code).
    pub gate: bool,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Every compared metric, suite metrics first, then rows in suite
    /// order.
    pub deltas: Vec<MetricDelta>,
}

impl Comparison {
    /// Metrics that fail the gate.
    pub fn failures(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.gate).collect()
    }

    fn count(&self, class: MetricClass) -> usize {
        self.deltas.iter().filter(|d| d.class == class).count()
    }

    /// Human-readable comparison: all suite metrics plus every non-
    /// unchanged row metric.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(
            "Benchmark comparison vs baseline",
            &["metric", "baseline", "current", "delta", "class"],
        );
        let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.3}"));
        for d in &self.deltas {
            let interesting = d.class != MetricClass::Unchanged || d.metric.starts_with("suite ");
            if !interesting {
                continue;
            }
            let delta = match (d.baseline, d.current) {
                (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", 100.0 * (c - b) / b),
                (Some(b), Some(c)) => format!("{:+.3}", c - b),
                _ => "-".to_owned(),
            };
            let class = if d.gate {
                format!("{} (GATE)", d.class.as_str())
            } else {
                d.class.as_str().to_owned()
            };
            t.row(vec![
                d.metric.clone(),
                fmt(d.baseline),
                fmt(d.current),
                delta,
                class,
            ]);
        }
        let mut out = t.render();
        let failures = self.failures();
        let _ = writeln!(
            out,
            "\n{} metric(s): {} improved, {} unchanged, {} regressed, {} new, {} removed \
             — gate {}",
            self.deltas.len(),
            self.count(MetricClass::Improved),
            self.count(MetricClass::Unchanged),
            self.count(MetricClass::Regressed),
            self.count(MetricClass::New),
            self.count(MetricClass::Removed),
            if failures.is_empty() {
                "PASS".to_owned()
            } else {
                format!("FAIL ({} violation(s))", failures.len())
            }
        );
        if !failures.is_empty() {
            for d in &failures {
                let _ = writeln!(out, "  GATE {} ({})", d.metric, d.class.as_str());
            }
            let _ = writeln!(
                out,
                "accuracy or counter drift means the model changed: re-record the baseline \
                 (`reproduce bench --json <baseline>`) if the change is intended"
            );
        }
        out
    }

    /// The `peakperf-bench-compare-v1` document.
    pub fn to_json(&self) -> Json {
        let metrics = self.deltas.iter();
        let metrics =
            metrics.map(|d| obj!(d; metric, baseline, current, class = d.class.as_str(), gate));
        let counts = MetricClass::ALL.map(|class| (class.as_str(), self.count(class).into()));
        let bands = obj!((); accuracy_pp = ACCURACY_BAND_PP);
        let body = obj!((); bands = bands, counts = Json::obj(counts),
            pass = self.failures().is_empty(), metrics = metrics.collect::<Json>());
        envelope(COMPARE_SCHEMA, &PAPER_GPUS, body)
    }
}

/// Check a `peakperf-bench-compare-v1` document: shaped like the sample
/// [`Comparison::to_json`] writes, every metric classified by a known
/// [`MetricClass`], the per-class counts tallying the metrics, and `pass`
/// true exactly when no metric gates.
pub fn check_compare(doc: &Json, errors: &mut Vec<String>) {
    let delta = MetricDelta {
        metric: String::new(),
        baseline: None,
        current: None,
        class: MetricClass::Unchanged,
        gate: false,
    };
    let sample = Comparison {
        deltas: vec![delta],
    };
    doc.conforms(&sample.to_json(), &"compare document", errors);
    let mut tally = [0u64; MetricClass::ALL.len()];
    let mut gated = false;
    for (i, m) in doc.items("metrics").iter().enumerate() {
        let class = m.text("class");
        match MetricClass::ALL.iter().position(|c| c.as_str() == class) {
            Some(slot) => tally[slot] += 1,
            None => errors.push(format!("metrics[{i}]: unknown class `{class}`")),
        }
        gated |= m.get("gate") == Some(&Json::Bool(true));
    }
    let counts = MetricClass::ALL
        .map(MetricClass::as_str)
        .into_iter()
        .zip(tally);
    let tallied = doc.get("counts") == Some(&Json::obj(counts.map(|(k, n)| (k, n.into()))));
    ensure!(
        errors,
        tallied,
        "compare document: counts do not tally the metrics {tally:?}"
    );
    let agrees = doc.get("pass") == Some(&Json::Bool(!gated));
    ensure!(
        errors,
        agrees,
        "compare document: `pass` disagrees with the gated metrics"
    );
}

/// Percent error and simulated counters of one baseline row.
struct BaselineRow {
    pct_error: f64,
    counters: Counters,
}

/// The counters a run of the same model must reproduce exactly: cycles,
/// warp instructions and every stall kind.
fn exact_counters(c: &Counters) -> Vec<(String, u64)> {
    let mut out = vec![
        ("sim_cycles".to_owned(), c.sim_cycles),
        ("warp_instructions".to_owned(), c.warp_instructions),
    ];
    out.extend(StallKind::ALL.map(|k| {
        let name = format!("stall_cycles.{}", k.as_str());
        (name, c.stall_cycles[k.index()])
    }));
    out
}

fn baseline_rows(baseline: &Json) -> Result<Vec<(String, BaselineRow)>, String> {
    let mut errors = Vec::new();
    baseline.conforms(&sample_document(), &"baseline", &mut errors);
    let rows = baseline.items("rows").iter().map(|row| {
        let counters = Counters::from_json(&row["counters"], "baseline counters", &mut errors);
        let base = BaselineRow {
            pct_error: row["pct_error"].as_f64().unwrap_or(f64::NAN),
            counters,
        };
        (row.text("id").to_owned(), base)
    });
    let rows = rows.collect();
    errors.into_iter().next().map_or(Ok(rows), Err)
}

/// Compare a fresh run against a parsed baseline document.
///
/// Gate rules: any per-row accuracy drift beyond the accuracy band fails
/// (in either direction — a model change must re-record the baseline),
/// and so does any difference at all in a row's simulated counters
/// (cycles, warp instructions, stall cycles by kind) unless the row was
/// answered from the timing cache on either side and so simulated
/// nothing; a row present in the baseline but missing from the run fails
/// (coverage loss). Wall time is not compared.
///
/// # Errors
///
/// A baseline that is not a `peakperf-bench-v1` document or lacks the
/// required row fields.
pub fn compare(current: &BenchReport, baseline: &Json) -> Result<Comparison, String> {
    match baseline.get("schema").and_then(Json::as_str) {
        Some(BENCH_SCHEMA) => {}
        other => {
            return Err(format!(
                "baseline schema is {other:?}, expected {BENCH_SCHEMA:?}"
            ))
        }
    }
    let base_rows = baseline_rows(baseline)?;
    let mut deltas = Vec::new();

    // Suite-level metrics first.
    if let Some(base_rate) = baseline.get("cache_hit_rate").and_then(Json::as_f64) {
        let cur_rate = current.cache_hit_rate();
        let class = if (cur_rate - base_rate).abs() <= 0.01 {
            MetricClass::Unchanged
        } else if cur_rate > base_rate {
            MetricClass::Improved
        } else {
            MetricClass::Regressed
        };
        deltas.push(MetricDelta {
            metric: "suite cache_hit_rate".to_owned(),
            baseline: Some(base_rate),
            current: Some(cur_rate),
            class,
            gate: false, // informational: hit rate shifts with suite shape
        });
    }
    if let Some(base_mean) = baseline
        .get("accuracy")
        .and_then(|a| a.get("mean_abs_pct_error"))
        .and_then(Json::as_f64)
    {
        let cur_mean = current.mean_abs_pct_error();
        let class = if (cur_mean - base_mean).abs() <= ACCURACY_BAND_PP {
            MetricClass::Unchanged
        } else if cur_mean < base_mean {
            MetricClass::Improved
        } else {
            MetricClass::Regressed
        };
        deltas.push(MetricDelta {
            metric: "suite mean_abs_pct_error".to_owned(),
            baseline: Some(base_mean),
            current: Some(cur_mean),
            class,
            gate: false, // per-row accuracy gates below; this is the headline
        });
    }

    // Per-row metrics, in current-suite order.
    for row in &current.rows {
        let base = base_rows.iter().find(|(id, _)| *id == row.id);
        let Some((_, base)) = base else {
            deltas.push(MetricDelta {
                metric: format!("{} pct_error", row.id),
                baseline: None,
                current: Some(row.pct_error()),
                class: MetricClass::New,
                gate: false,
            });
            continue;
        };
        let cur_err = row.pct_error();
        let drift = cur_err - base.pct_error;
        let acc_class = if drift.abs() <= ACCURACY_BAND_PP {
            MetricClass::Unchanged
        } else if cur_err.abs() < base.pct_error.abs() {
            MetricClass::Improved
        } else {
            MetricClass::Regressed
        };
        deltas.push(MetricDelta {
            metric: format!("{} pct_error", row.id),
            baseline: Some(base.pct_error),
            current: Some(cur_err),
            class: acc_class,
            // Accuracy drift is always an error, even when it looks like
            // an improvement: the model changed, so the baseline must be
            // re-recorded deliberately.
            gate: acc_class != MetricClass::Unchanged,
        });
        if base.counters.cache_hits == 0 && row.counters.cache_hits == 0 {
            for ((name, was), (_, now)) in exact_counters(&base.counters)
                .into_iter()
                .zip(exact_counters(&row.counters))
            {
                let class = match now.cmp(&was) {
                    std::cmp::Ordering::Equal => MetricClass::Unchanged,
                    std::cmp::Ordering::Less => MetricClass::Improved,
                    std::cmp::Ordering::Greater => MetricClass::Regressed,
                };
                deltas.push(MetricDelta {
                    metric: format!("{} {name}", row.id),
                    baseline: Some(was as f64),
                    current: Some(now as f64),
                    class,
                    // Same rule as accuracy drift: the model changed.
                    gate: class != MetricClass::Unchanged,
                });
            }
        }
    }

    // Baseline rows the run no longer covers.
    for (id, base) in &base_rows {
        if !current.rows.iter().any(|r| r.id == *id) {
            deltas.push(MetricDelta {
                metric: format!("{id} pct_error"),
                baseline: Some(base.pct_error),
                current: None,
                class: MetricClass::Removed,
                gate: true,
            });
        }
    }

    Ok(Comparison { deltas })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_table2_and_all_sgemm_variants() {
        let specs = suite();
        assert_eq!(specs.len(), 28);
        let ids: Vec<String> = specs.iter().map(RowSpec::id).collect();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "row ids must be unique: {ids:?}");
        assert_eq!(ids.iter().filter(|i| i.starts_with("table2/")).count(), 20);
        for gpu in ["gtx580", "gtx680"] {
            for v in ["nn", "nt", "tn", "tt"] {
                assert!(ids.contains(&format!("sgemm/{gpu}/{v}")), "{gpu}/{v}");
            }
        }
        assert!(ids.contains(&"table2/ffma_r0_r1_r4_r5".to_owned()));
    }

    #[test]
    fn slugs_normalize_labels() {
        assert_eq!(slug("FFMA R0, R1, R4, R5"), "ffma_r0_r1_r4_r5");
        assert_eq!(slug("IADD R0, R1, R0"), "iadd_r0_r1_r0");
        assert_eq!(slug("  odd -- label "), "odd_label");
    }

    fn sample_report() -> BenchReport {
        let mut counters = Counters {
            timing_runs: 1,
            sim_cycles: 1000,
            warp_instructions: 400,
            cache_misses: 1,
            ..Counters::default()
        };
        counters.stall_cycles[0] = 30;
        counters.stall_cycles[1] = 10;
        BenchReport {
            workers: 2,
            cache_enabled: true,
            filter: None,
            rows: vec![
                BenchRow {
                    id: "table2/demo".into(),
                    kind: "table2",
                    gpu: "GTX680",
                    label: "DEMO".into(),
                    unit: "thread-insts/cycle/SM",
                    simulated: 129.4,
                    paper: 132.0,
                    wall: Duration::from_millis(10),
                    counters,
                },
                BenchRow {
                    id: "sgemm/gtx580/nn".into(),
                    kind: "sgemm",
                    gpu: "GTX580",
                    label: "asm NN @ 2400".into(),
                    unit: "GFLOPS",
                    simulated: 1100.0,
                    paper: 1173.0,
                    wall: Duration::from_millis(40),
                    counters: Counters::default(),
                },
            ],
            wall: Duration::from_millis(30),
            jobs: JobStats {
                jobs: 2,
                busy_nanos: 50_000_000,
            },
        }
    }

    #[test]
    fn report_json_round_trips_and_carries_the_envelope() {
        let doc = sample_report().to_json();
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(doc.keys()[..3], ["schema", "generated_by", "gpu"]);
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(
            doc.get("accuracy").unwrap().get("rows"),
            Some(&Json::Int(2))
        );
        // Everything but coverage holds: the two sample rows are not a
        // `--filter` selection of the real suite.
        let mut errors = Vec::new();
        check_bench(&doc, &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("are not the suite rows"), "{errors:?}");
    }

    #[test]
    fn stall_shares_sum_to_one_when_stalled() {
        let report = sample_report();
        let row = &report.rows[0];
        let sum: f64 = StallKind::ALL.into_iter().map(|k| row.stall_share(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(report.rows[1].stall_share(StallKind::Scoreboard), 0.0);
    }

    #[test]
    fn self_comparison_passes() {
        let report = sample_report();
        let baseline = report.to_json();
        let cmp = compare(&report, &baseline).unwrap();
        assert!(cmp.failures().is_empty(), "{}", cmp.render_text());
        assert!(cmp.render_text().contains("PASS"));
        assert_eq!(cmp.to_json().get("pass"), Some(&Json::Bool(true)));
        let doc = cmp.to_json();
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
    }

    #[test]
    fn accuracy_drift_gates_in_both_directions() {
        let report = sample_report();
        let mut baseline = report.to_json();
        // Shift the first row's baseline error by 10 percentage points:
        // the current run now *looks* more accurate, but drift is drift.
        let rows = match baseline.get_mut("rows").unwrap() {
            Json::Arr(rows) => rows,
            _ => unreachable!(),
        };
        *rows[0].get_mut("pct_error").unwrap() = Json::Num(-12.0);
        let cmp = compare(&report, &baseline).unwrap();
        let failing: Vec<String> = cmp.failures().iter().map(|d| d.metric.clone()).collect();
        assert_eq!(failing, vec!["table2/demo pct_error".to_owned()]);
        assert_eq!(
            cmp.deltas
                .iter()
                .find(|d| d.metric == "table2/demo pct_error")
                .unwrap()
                .class,
            MetricClass::Improved,
            "drift toward the paper is still a gated model change"
        );
    }

    #[test]
    fn one_cycle_of_counter_drift_gates() {
        let report = sample_report();
        let mut baseline = report.to_json();
        let rows = match baseline.get_mut("rows").unwrap() {
            Json::Arr(rows) => rows,
            _ => unreachable!(),
        };
        // The baseline row ran one cycle longer: far inside the accuracy
        // band, but the model is no longer cycle-identical.
        let counters = rows[0].get_mut("counters").unwrap();
        *counters.get_mut("sim_cycles").unwrap() = Json::Int(1001);
        let cmp = compare(&report, &baseline).unwrap();
        let failing: Vec<String> = cmp.failures().iter().map(|d| d.metric.clone()).collect();
        assert_eq!(failing, vec!["table2/demo sim_cycles".to_owned()]);
        assert!(cmp.render_text().contains("GATE table2/demo sim_cycles"));

        // A row answered from the cache simulated nothing to compare.
        let mut cached = report.clone();
        cached.rows[0].counters = Counters {
            cache_hits: 1,
            ..Counters::default()
        };
        let cmp = compare(&cached, &baseline).unwrap();
        assert!(cmp.failures().is_empty(), "{}", cmp.render_text());
    }

    #[test]
    fn wall_time_is_recorded_but_never_compared() {
        let report = sample_report();
        let mut baseline = report.to_json();
        let rows = match baseline.get_mut("rows").unwrap() {
            Json::Arr(rows) => rows,
            _ => unreachable!(),
        };
        // Baseline claims the row took 1 ms against the current 10 ms and
        // the suite 1 ms against 30: host speed is `benchmark/`'s question.
        *rows[0].get_mut("wall_ms").unwrap() = Json::Num(1.0);
        *baseline.get_mut("wall_ms").unwrap() = Json::Num(1.0);
        let cmp = compare(&report, &baseline).unwrap();
        assert!(cmp.failures().is_empty(), "{}", cmp.render_text());
        assert!(cmp.deltas.iter().all(|d| !d.metric.contains("wall_ms")));
    }

    #[test]
    fn removed_rows_fail_the_gate_and_new_rows_do_not() {
        let report = sample_report();
        let mut baseline = report.to_json();
        let rows = match baseline.get_mut("rows").unwrap() {
            Json::Arr(rows) => rows,
            _ => unreachable!(),
        };
        // Rename a baseline row: the current run "lost" it (gate) and
        // "gained" an unknown one (no gate).
        *rows[1].get_mut("id").unwrap() = Json::Str("sgemm/gtx580/zz".into());
        let cmp = compare(&report, &baseline).unwrap();
        let classes: Vec<(String, MetricClass)> = cmp
            .deltas
            .iter()
            .map(|d| (d.metric.clone(), d.class))
            .collect();
        assert!(classes.contains(&("sgemm/gtx580/nn pct_error".into(), MetricClass::New)));
        assert!(classes.contains(&("sgemm/gtx580/zz pct_error".into(), MetricClass::Removed)));
        let failures: Vec<&str> = cmp.failures().iter().map(|d| d.metric.as_str()).collect();
        assert_eq!(failures, vec!["sgemm/gtx580/zz pct_error"]);
    }

    #[test]
    fn rejects_foreign_baselines() {
        let report = sample_report();
        let not_bench = Json::parse("{\"schema\": \"peakperf-fuzz-v1\"}").unwrap();
        assert!(compare(&report, &not_bench).is_err());
        let no_rows = Json::parse("{\"schema\": \"peakperf-bench-v1\"}").unwrap();
        assert!(compare(&report, &no_rows).is_err());
    }
}
