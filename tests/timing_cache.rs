//! The in-process timing cache never changes what an experiment prints.
//!
//! The cache is process-global, so this test has a binary of its own: a
//! test enabling it beside `bench_gate` or `determinism` would answer their
//! runs from memory.

use peakperf::sim::timing::cache::{disable_global, enable_global};
use peakperf::sim::Counters;
use peakperf_bench::experiments;

/// Run Table 2 and return its text with the counter growth it caused.
fn table2() -> (String, Counters) {
    let before = Counters::snapshot();
    let text = experiments::table2().expect("table2 runs");
    (text, Counters::snapshot().delta_since(&before))
}

#[test]
fn cached_table2_prints_what_an_uncached_one_prints() {
    disable_global();
    let (uncached, cold) = table2();
    enable_global(None);
    let (fill, filled) = table2();
    let (warm, hit) = table2();
    disable_global();

    assert_eq!(cold.cache_hits + cold.cache_misses, 0, "{cold:?}");
    assert_eq!(fill, uncached, "the run that fills the cache");
    assert_eq!(warm, uncached, "the run answered from the cache");
    assert_eq!(filled.cache_misses, 20, "{filled:?}");
    assert_eq!(hit.cache_hits, 20, "{hit:?}");
    assert_eq!(hit.cache_misses, 0, "{hit:?}");
    assert_eq!(hit.timing_runs, 0, "{hit:?}");
}
