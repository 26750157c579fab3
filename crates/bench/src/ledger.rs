//! The benchmark ledger: `BENCH_LEDGER.json` at the repository root, one
//! `peakperf-ledger-v1` document holding what the benchmark measured for
//! each change, per workload, at the parent commit and with the change.
//!
//! An entry is one (change, workload, side): the medians of the five
//! end-to-end metrics over `pairs` alternating parent/change runs, the
//! per-layer metrics the benchmark marks `exact` from one traced run,
//! and optionally the median wall time, system time and peak RSS of
//! `reproduce --workers 2 all` on the same side (`reproduce_all_wall_s`,
//! `reproduce_all_sys_s`, `reproduce_all_max_rss_mb`).
//! `commit` is the commit measured; a change measured before it is
//! committed names its parent followed by `+`. Entries are appended by
//! hand when a change is measured; [`check`], behind `reproduce check`,
//! holds their shape.

use std::collections::BTreeMap;

use peakperf_sim::json::Json;
use peakperf_sim::{ensure, obj};

/// The ledger's schema id.
pub const SCHEMA: &str = "peakperf-ledger-v1";

/// The benchmark's workloads, named as in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["sgemm_sweep", "micro_sweep", "toolchain", "service_mix"];

/// The benchmark's end-to-end metrics, in `BENCHMARK.json` order: the
/// members of an entry's `medians`.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_s",
    "ops_per_s",
    "warp_insts_per_s",
    "peak_rss_mb",
];

/// The two sides of a measured change.
const SIDES: [&str; 2] = ["parent", "change"];

/// Optional numeric members: `reproduce --workers 2 all` medians.
const REPRODUCE_ALL: [&str; 3] = [
    "reproduce_all_wall_s",
    "reproduce_all_sys_s",
    "reproduce_all_max_rss_mb",
];

fn sample_document() -> Json {
    let medians = Json::obj(END_TO_END.map(|name| (name, Json::Num(0.0))));
    let exact = Json::obj(Vec::<(String, Json)>::new());
    let entry = obj!((); pr = 0u64, commit = "", workload = "", side = "",
        medians = medians, pairs = 0u64, exact = exact);
    obj!((); schema = SCHEMA, entries = Json::Arr(vec![entry]))
}

/// Check a `peakperf-ledger-v1` document: shaped like the sample (every
/// member present and of its type, named when it is not); `exact` maps
/// metric names to numbers and each `reproduce_all_*` member present is a
/// number; every `workload` is one of [`WORKLOADS`] and every `side` is
/// `parent` or `change`; no (pr, workload, side) appears twice; and every
/// (pr, workload) has both sides.
pub fn check(doc: &Json, errors: &mut Vec<String>) {
    doc.conforms(&sample_document(), &"ledger", errors);
    let mut sides: BTreeMap<(u64, &str), Vec<&str>> = BTreeMap::new();
    for (i, entry) in doc.items("entries").iter().enumerate() {
        let at = format!("entries[{i}]");
        let exact = entry["exact"].as_obj().unwrap_or(&[]);
        for (name, value) in exact {
            let number = value.as_f64().is_some();
            ensure!(errors, number, "{at}.exact.{name}: expected a number");
        }
        for name in REPRODUCE_ALL {
            let number = entry.get(name).is_none_or(|v| v.as_f64().is_some());
            ensure!(errors, number, "{at}.{name}: expected a number");
        }
        let (pr, workload, side) = (
            entry.count("pr"),
            entry.text("workload"),
            entry.text("side"),
        );
        let known = WORKLOADS.contains(&workload);
        ensure!(
            errors,
            known,
            "{at}: unknown workload `{workload}`, not one of {WORKLOADS:?}"
        );
        let known = SIDES.contains(&side);
        ensure!(errors, known, "{at}: side `{side}` is not one of {SIDES:?}");
        let seen = sides.entry((pr, workload)).or_default();
        let repeated = seen.contains(&side);
        ensure!(
            errors,
            !repeated,
            "{at}: duplicate entry for PR {pr} {workload} {side}"
        );
        seen.push(side);
    }
    for ((pr, workload), seen) in sides {
        let paired = SIDES.iter().all(|side| seen.contains(side));
        ensure!(
            errors,
            paired,
            "PR {pr} {workload}: entries without both sides {SIDES:?}"
        );
    }
}
