//! The accuracy and exact-counter gate of `reproduce bench --compare
//! bench/baselines/ci.json`, in-process: every suite row's simulated
//! value stays inside the accuracy band and its cycles, warp instructions
//! and per-kind stall cycles equal the baseline's. Host time is not
//! compared — `benchmark/` owns that axis.
//!
//! The same 20 simulated Table-2 rows are the calibration gate: each must
//! track the paper's GTX680 measurement within an explicit tolerance. The
//! worst rows today are the conflict-free 2-source streams (FADD/FMUL/
//! IADD `R0, R1, R2`, 4.7% under): the generator only emits the
//! dual-issue control flag on 3-source instructions, so those streams
//! stay at the 4-issue/cycle cap instead of the 33-token/8-cycle ceiling.
//! Everything else is within 4%.
//!
//! The 8 SGEMM rows (assembly kernel, four transpose variants on both
//! GPUs, at the paper's 2400³) are held to the paper's achieved GFLOPS on
//! their GPU. The worst row today is GTX680 NN at −4.3%.

use peakperf::sim::Json;
use peakperf_bench::telemetry;

/// Every Table 2 row must be within this many percent of the paper's
/// measurement.
const TABLE2_TOLERANCE_PCT: f64 = 6.0;

/// Every SGEMM row must be within this many percent of the paper's
/// achieved GFLOPS (Section 5) on its GPU.
const SGEMM_TOLERANCE_PCT: f64 = 6.0;

/// The headline distinct-bank FFMA row gets a tighter gate: the issue
/// ceiling (132.0) is the quantity DESIGN.md section 5 calibrates.
const FFMA_TOLERANCE_PCT: f64 = 3.5;

#[test]
fn suite_matches_the_checked_in_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/baselines/ci.json");
    let baseline = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let report = telemetry::run_suite().unwrap();
    // A row answered from the timing cache simulated nothing and would
    // pass the counter gate vacuously.
    assert_eq!(report.totals().cache_hits, 0);
    let comparison = telemetry::compare(&report, &baseline).unwrap();
    let failures = comparison.failures();
    assert!(
        failures.is_empty(),
        "{} gated metric(s) differ from {path}:\n{failures:#?}",
        failures.len()
    );

    let table2: Vec<_> = report.rows.iter().filter(|r| r.kind == "table2").collect();
    assert_eq!(table2.len(), 20);
    let within = |row: &telemetry::BenchRow, tolerance: f64| {
        assert!(
            row.pct_error().abs() <= tolerance,
            "{}: simulated {:.1} vs paper {:.1} ({:+.1}%, tolerance {tolerance}%)",
            row.id,
            row.simulated,
            row.paper,
            row.pct_error(),
        );
    };
    for row in &table2 {
        within(row, TABLE2_TOLERANCE_PCT);
    }
    let ffma = table2.iter().find(|r| r.id == "table2/ffma_r0_r1_r4_r5");
    within(ffma.expect("the headline FFMA row"), FFMA_TOLERANCE_PCT);

    let sgemm: Vec<_> = report.rows.iter().filter(|r| r.kind == "sgemm").collect();
    assert_eq!(sgemm.len(), 8);
    for row in &sgemm {
        within(row, SGEMM_TOLERANCE_PCT);
    }
}
