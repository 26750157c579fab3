//! The scorecard of `reproduce bench`, in-process: every suite row's
//! simulated value, cycles, warp instructions and per-kind stall cycles
//! equal `tests/bench_golden.txt`, one line per row in suite order. An
//! intended model change re-blesses it with
//! `UPDATE_GOLDEN=1 cargo test --test bench_gate`. Host time is not
//! recorded — `benchmark/` owns that axis.
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

use std::fmt::Write as _;

use peakperf::sim::timing::StallKind;
use peakperf_bench::telemetry;

mod common;

/// Every Table 2 row must be within this many percent of the paper's
/// measurement.
const TABLE2_TOLERANCE_PCT: f64 = 6.0;

/// Every SGEMM row must be within this many percent of the paper's
/// achieved GFLOPS (Section 5) on its GPU.
const SGEMM_TOLERANCE_PCT: f64 = 6.0;

/// The headline distinct-bank FFMA row gets a tighter gate: the issue
/// ceiling (132.0) is the quantity DESIGN.md section 5 calibrates.
const FFMA_TOLERANCE_PCT: f64 = 3.5;

/// One golden line: the row id, `simulated` at full precision, then the
/// row's exact counters.
fn golden_line(lines: &mut String, row: &telemetry::BenchRow) {
    let c = &row.counters;
    write!(
        lines,
        "{} simulated={:?} sim_cycles={} warp_instructions={}",
        row.id, row.simulated, c.sim_cycles, c.warp_instructions
    )
    .unwrap();
    for kind in StallKind::ALL {
        write!(lines, " {}={}", kind.as_str(), c.stall_cycles[kind.index()]).unwrap();
    }
    lines.push('\n');
}

#[test]
fn suite_matches_the_checked_in_baseline() {
    let report = telemetry::run_suite().unwrap();
    // A row answered from the timing cache simulated nothing and would
    // record zero counters.
    assert_eq!(report.totals().cache_hits, 0);
    let mut lines = String::new();
    for row in &report.rows {
        golden_line(&mut lines, row);
    }
    common::assert_matches_golden(&lines, "bench_golden.txt");

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
