//! The accuracy and exact-counter gate of `reproduce bench --compare
//! bench/baselines/ci.json`, in-process: every suite row's simulated
//! value stays inside the accuracy band and its cycles, warp instructions
//! and per-kind stall cycles equal the baseline's. Host time is not
//! gated here — the dev profile is not what the baseline timed, and
//! `benchmark/` owns that axis.

use peakperf::sim::Json;
use peakperf_bench::telemetry::{self, CompareConfig};

#[test]
fn suite_matches_the_checked_in_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/baselines/ci.json");
    let baseline = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let report = telemetry::run_suite().unwrap();
    // A row answered from the timing cache simulated nothing and would
    // pass the counter gate vacuously.
    assert_eq!(report.totals().cache_hits, 0);
    let config = CompareConfig {
        wall_band: f64::INFINITY,
        ..CompareConfig::default()
    };
    let comparison = telemetry::compare(&report, &baseline, config).unwrap();
    let failures = comparison.failures();
    assert!(
        failures.is_empty(),
        "{} gated metric(s) differ from {path}:\n{failures:#?}",
        failures.len()
    );
}
