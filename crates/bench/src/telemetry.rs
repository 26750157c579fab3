//! The model-accuracy scorecard: the `reproduce bench` suite.
//!
//! The paper's whole method is holding *measured* numbers against
//! *modeled* bounds; this module does the same to the repository itself.
//! [`run_suite`] executes a fixed benchmark suite — every Table-2
//! microbenchmark row plus the assembly-optimized SGEMM in all four
//! transpose variants on both GPUs, at the paper's headline size
//! ([`PAPER_SGEMM_SIZE`]³) — and records per row the simulated
//! throughput against the paper's measured value, the percent error, and
//! the simulated cycles, warp instructions and per-[`StallKind`] stall
//! cycles, attributed per row by the executor-boundary counter scopes
//! ([`peakperf_sim::with_counter_scope`]).
//!
//! The whole run renders as a versioned `peakperf-bench-v1` JSON
//! document, deterministic byte for byte. The suite's exact results are
//! frozen in `tests/bench_golden.txt`, which the `bench_gate` test holds
//! every row to. How fast the harness runs is `benchmark/`'s question.

use std::fmt::Write as _;

use peakperf_arch::GpuConfig;
use peakperf_bound::paper_reference;
use peakperf_kernels::microbench::math::{table2_patterns, MathPattern};
use peakperf_kernels::sgemm::{Preset, Variant};
use peakperf_sim::timing::profile::{check_stall_kinds, stall_kinds_json};
use peakperf_sim::timing::StallKind;
use peakperf_sim::{ensure, obj, Counters, Json, SimError};

use crate::exec::Executor;
use crate::experiments::{sgemm_gflops, Speed, PAPER_SGEMM_SIZE, TABLE2_PAPER};
use crate::report::{envelope, Table, PAPER_GPUS};

/// The schema identifier of the bench document.
pub const BENCH_SCHEMA: &str = "peakperf-bench-v1";

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
    /// The row-id prefix the suite was narrowed to (`None` = the whole
    /// suite). Recorded so the document says which rows it must cover.
    pub filter: Option<String>,
    /// Rows, in suite order.
    pub rows: Vec<BenchRow>,
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
        let _ = writeln!(
            out,
            "\naccuracy: mean |err| {:.2}%, max |err| {:.2}% over {} rows",
            self.mean_abs_pct_error(),
            self.max_abs_pct_error(),
            self.rows.len()
        );
        out
    }

    /// The `peakperf-bench-v1` document.
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|row| {
            obj!(row; id, kind, gpu, label, unit, simulated, paper,
                pct_error = row.pct_error(),
                counters = row.counters.to_json(),
                stall_share = stall_kinds_json(&StallKind::ALL.map(|k| row.stall_share(k))))
        });
        let mut doc = envelope(BENCH_SCHEMA, &PAPER_GPUS, obj!(();));
        doc.push_some("filter", self.filter.as_deref());
        let accuracy = obj!((); rows = self.rows.len(),
            mean_abs_pct_error = self.mean_abs_pct_error(),
            max_abs_pct_error = self.max_abs_pct_error());
        doc.push("accuracy", accuracy);
        doc.push("totals", self.totals().to_json());
        doc.push("rows", rows.collect::<Json>());
        doc
    }
}

/// A one-row bench document: what [`check_bench`] holds a document's
/// keys and types against.
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
/// `stall_share` keyed by [`StallKind::ALL`] exactly; no row answered
/// from the timing cache; `pct_error` consistent with `simulated` vs
/// `paper`; and coverage — the rows are
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
        let hits = row["counters"].count("cache_hits");
        ensure!(
            errors,
            hits == 0,
            "{at}: {hits} timing-cache hit(s); every scorecard row simulates"
        );
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

fn run_row(spec: &RowSpec) -> Result<BenchRow, SimError> {
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
    Ok(BenchRow {
        id: spec.id(),
        kind,
        gpu,
        label,
        unit,
        simulated,
        paper,
        counters: Counters::default(), // patched with the scoped delta
    })
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
    let results = Executor::auto().try_map_scoped(&specs, run_row)?;
    let rows = results
        .into_iter()
        .map(|(row, counters)| BenchRow { counters, ..row })
        .collect();
    Ok(BenchReport {
        filter: filter.map(str::to_owned),
        rows,
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
                    counters: Counters::default(),
                },
            ],
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
}
