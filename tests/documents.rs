//! Every JSON document family the workspace writes, produced small and
//! in-process: each instance must pass `check_document` and survive both
//! renderers (`parse(render(x)) == x`), and each family's check must name
//! every single thing a table of edits breaks in a sound document.

use std::sync::Arc;

use peakperf_bench::report::check_document;
use peakperf_bench::service::journal::Journal;
use peakperf_bench::service::{self, JobSpec, Service, ServiceConfig};
use peakperf_bench::{fault, ledger, profiling, telemetry};
use peakperf_sim::{obj, Json};

/// One way to break a value.
enum Edit {
    Set(Json),
    Bump,
    Remove(&'static str),
    Push(&'static str, Json),
    RemoveAt(usize),
    /// Remove the first element whose `type` member is the given tag.
    RemoveType(&'static str),
    SwapFirstTwo,
    RepeatLast,
}
use Edit::*;

/// Apply `.1` to the value at `.0` — a dotted path of object keys and
/// array indices, `""` being the document — and the check must report `.2`.
type Case<'a> = (&'a str, Edit, &'a str);

impl Edit {
    fn apply(&self, v: &mut Json) {
        match (self, v) {
            (Set(value), v) => *v = value.clone(),
            (Bump, v) => *v = Json::from(v.as_u64().unwrap() + 1),
            (Remove(key), Json::Obj(members)) => members.retain(|(k, _)| k != key),
            (Push(key, value), v) => v.push(key, value.clone()),
            (RemoveAt(index), Json::Arr(items)) => drop(items.remove(*index)),
            (RemoveType(tag), Json::Arr(items)) => drop(items.remove(index_of(items, "type", tag))),
            (SwapFirstTwo, Json::Obj(members)) => members.swap(0, 1),
            (SwapFirstTwo, Json::Arr(items)) => items.swap(0, 1),
            (RepeatLast, Json::Arr(items)) => items.extend(items.last().cloned()),
            (_, v) => panic!("edit does not apply to {v}"),
        }
    }
}

fn index_of(items: &[Json], key: &str, value: &str) -> usize {
    let found = items.iter().position(|item| item.text(key) == value);
    found.unwrap_or_else(|| panic!("nothing with {key} = {value}"))
}

fn assert_sound(doc: &Json) {
    assert_eq!(check_document(doc), Vec::<String>::new());
    assert_eq!(&Json::parse(&doc.render()).unwrap(), doc);
    assert_eq!(&Json::parse(&doc.pretty()).unwrap(), doc);
}

fn assert_checked(doc: &Json, cases: &[Case]) {
    assert_sound(doc);
    let mut missed = Vec::new();
    for (path, edit, want) in cases {
        let mut broken = doc.clone();
        let steps = path.split('.').filter(|step| !step.is_empty());
        let target = steps.fold(&mut broken, |v, step| match v {
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            other => other.get_mut(step).unwrap_or_else(|| panic!("no `{path}`")),
        });
        edit.apply(target);
        let errors = check_document(&broken).join("\n");
        if !errors.contains(want) {
            missed.push(format!("`{path}` should report `{want}`, got: {errors}"));
        }
    }
    assert_eq!(missed, Vec::<String>::new());
}

fn checked_in(path: &str) -> Json {
    let text = std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))).unwrap();
    Json::parse(&text).unwrap()
}

#[test]
fn bench_documents() {
    let report = telemetry::run_suite_filtered(Some("table2/ffma_r0_r1_r4")).unwrap();
    let doc = report.to_json();
    assert_eq!(doc.items("rows").len(), 2);
    let unordered = "duplicate, unknown or reordered rows";
    let cases = [
        (
            "rows.0.counters.stall_cycles",
            Remove("pipe"),
            "are not the stall kinds",
        ),
        (
            "rows.1.stall_share",
            SwapFirstTwo,
            "are not the stall kinds",
        ),
        (
            "rows.0.pct_error",
            Set(50.0.into()),
            "inconsistent with simulated",
        ),
        (
            "rows.1.counters.cache_hits",
            Bump,
            "timing-cache hit(s); every scorecard row simulates",
        ),
        ("rows.0", Remove("paper"), "missing key `paper`"),
        ("rows", RepeatLast, unordered),
        ("rows", SwapFirstTwo, unordered),
        (
            "accuracy.rows",
            Set("two".into()),
            "rows: expected an integer, got",
        ),
        (
            "totals",
            Remove("sim_cycles"),
            "bench document.totals: missing key `sim_cycles`",
        ),
        ("", Remove("generated_by"), "missing key `generated_by`"),
        // Without its recorded filter this is a suite that lost 26 rows.
        ("", Remove("filter"), "are not the suite rows under ``"),
    ];
    assert_checked(&doc, &cases);
}

#[test]
fn profile_documents() {
    let profiled = profiling::run_target("fermi_ffma", false, None).unwrap();
    let doc = profiling::profile_document(vec![profiled.json], &[profiled.gpu]);
    let cases = [
        ("stall_kinds", RemoveAt(2), "drifted from StallKind::ALL"),
        (
            "profiles.0.profile.stall_totals",
            SwapFirstTwo,
            "are not the stall kinds",
        ),
        (
            "profiles.0.profile.stalled_cycles",
            Bump,
            "!= stalled_cycles",
        ),
        (
            "profiles.0.profile",
            Remove("cycles"),
            "missing key `cycles`",
        ),
        (
            "profiles.0.profile.idle_cycles",
            Set(u64::MAX.into()),
            "idle_cycles 18446744073709551615 exceed cycles",
        ),
        (
            "profiles.0.gap_attribution",
            Push("gremlins", 1.0.into()),
            "unknown gap source",
        ),
        (
            "profiles.0.bound",
            Set("high".into()),
            "bound: expected a number, got",
        ),
    ];
    assert_checked(&doc, &cases);

    // The retired families are no longer documents this workspace knows.
    for schema in [
        "peakperf-perf-v1",
        "peakperf-metrics-v1",
        "peakperf-bench-compare-v1",
        "peakperf-job-result-v1",
        "peakperf-servicetrace-v1",
    ] {
        assert_eq!(
            check_document(&obj!((); schema = schema)),
            [format!("unknown schema `{schema}`")]
        );
    }
}

#[test]
fn fuzz_document() {
    let cfg = fault::CampaignConfig {
        seed: 3,
        iters: 12,
        ..fault::CampaignConfig::default()
    };
    // The campaign finds no violation, so one is added by hand: each
    // entry must read back the way a corpus replay reads it.
    let mut result = fault::run_campaign(&cfg);
    result.violations.push(fault::ViolationCase {
        case: fault::campaign_cases(&cfg)[0],
        violation: fault::Violation {
            kind: fault::ViolationKind::RoundTrip,
            detail: "synthetic".to_owned(),
        },
        removed: vec![4, 0],
    });
    let doc = fault::campaign_json(&cfg, &result, 1.5);
    let alien = Json::Arr(vec![obj!((); gpu = "hopper")]);
    let cases = [
        ("mutations", SwapFirstTwo, "drifted from MutationKind::ALL"),
        (
            "outcomes.ok",
            Set(9_999.into()),
            "do not account for 12 iterations",
        ),
        ("outcomes", Remove("panic"), "missing key `panic`"),
        ("iters", Set("12".into()), "iters: expected an integer, got"),
        ("violations", Set(alien), "does not name a replayable case"),
        (
            "violations.0.removed",
            Set(Json::Arr(vec!["x".into()])),
            "does not name a replayable case",
        ),
        ("violations.0.detail", Set(7.into()), "`detail` must be"),
        (
            "violations.0",
            Remove("mutation_seed"),
            "`mutation_seed` must be",
        ),
    ];
    assert_checked(&doc, &cases);
}

#[test]
fn chrome_traces() {
    let cases = [
        (
            "traceEvents.6.name",
            Set("stall:gremlins".into()),
            "unknown stall kind",
        ),
        ("traceEvents.2", Remove("ts"), "missing key `ts`"),
        (
            "traceEvents.2.tid",
            Set("zero".into()),
            "tid: expected an integer, got",
        ),
        (
            "traceEvents",
            Set(Json::Arr(vec![])),
            "traceEvents is empty",
        ),
        ("", Remove("otherData"), "missing key `otherData`"),
    ];
    assert_checked(&checked_in("tests/golden_trace_2warp.json"), &cases);
    assert_sound(&checked_in("crates/bench/tests/golden_servicetrace.json"));
}

/// The checked-in benchmark ledger passes, names each defect, and speaks
/// of the workloads and end-to-end metrics `BENCHMARK.json` declares.
#[test]
fn benchmark_ledger() {
    let spec = checked_in("BENCHMARK.json");
    let names = |key| {
        spec.items(key)
            .iter()
            .map(|m| m.text("name"))
            .collect::<Vec<_>>()
    };
    assert_eq!(names("workloads"), ledger::WORKLOADS);
    assert_eq!(names("end_to_end"), ledger::END_TO_END);
    let cases = [
        (
            "entries.0",
            Remove("pairs"),
            "entries[0]: missing key `pairs`",
        ),
        (
            "entries.1.medians",
            Remove("peak_rss_mb"),
            "entries[1].medians: missing key `peak_rss_mb`",
        ),
        (
            "entries.0.pr",
            Set("x".into()),
            "entries[0].pr: expected an integer, got a string",
        ),
        (
            "entries.1.exact",
            Push("sim.timing.cycles", "many".into()),
            "entries[1].exact.sim.timing.cycles: expected a number",
        ),
        (
            "entries.0.reproduce_all_wall_s",
            Set("fast".into()),
            "entries[0].reproduce_all_wall_s: expected a number",
        ),
        // The last entries below `REPRODUCE_ALL_FROM` have no
        // `reproduce_all_*` members, which entries from it on must carry.
        (
            "entries.79.pr",
            Set(ledger::REPRODUCE_ALL_FROM.into()),
            "entries[79]: missing key `reproduce_all_wall_s`",
        ),
        (
            "entries.80",
            Remove("reproduce_all_sys_s"),
            "entries[80]: missing key `reproduce_all_sys_s`",
        ),
        (
            "entries.2.workload",
            Set("gemm_sweep".into()),
            "entries[2]: unknown workload `gemm_sweep`",
        ),
        (
            "entries.0.side",
            Set("before".into()),
            "entries[0]: side `before` is not one of",
        ),
        ("entries", RepeatLast, "duplicate entry for PR"),
        ("entries", RemoveAt(0), "entries without both sides"),
        ("", Remove("entries"), "ledger: missing key `entries`"),
    ];
    assert_checked(&checked_in("BENCH_LEDGER.json"), &cases);
}

#[test]
fn service_documents_from_a_seeded_soak() {
    let journal = Arc::new(Journal::full(None));
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 8,
    };
    let (svc, rx) = Service::start_with_journal(config, Some(Arc::clone(&journal)));
    let jobs = service::soak_jobs(20, 7);
    for job in &jobs {
        let mut line = job.to_json();
        Remove("deadline_ms").apply(&mut line);
        let mut cases = vec![
            (
                "kind",
                Set("teleport".into()),
                "unknown job kind `teleport`",
            ),
            ("id", Set("".into()), "non-empty string `id`"),
            (
                "",
                Push("deadline_ms", 1.5.into()),
                "`deadline_ms` must be a non-negative",
            ),
            (
                "",
                Push("deadline_msec", 5.into()),
                "unknown member `deadline_msec`",
            ),
        ];
        if line.text("kind") == "fault" {
            // A fault line names its GPU: no member falls back to Kepler.
            cases.push(("gpu", Set(580.into()), "`gpu` must be a string"));
            cases.push(("", Remove("gpu"), "`gpu` must be a string"));
        }
        assert_checked(&line, &cases);
        assert_eq!(JobSpec::from_json(&job.to_json()).as_ref(), Ok(job));
        svc.submit(job.clone());
    }
    let health = svc.drain();
    let results: Vec<service::JobResult> = rx.try_iter().collect();
    assert_eq!(results.len(), jobs.len());
    let doc = service::service_document(2, 8, &health, &results, 12.5, &journal);
    let ran = index_of(doc.items("results"), "status", "completed");
    let attempts = format!("results.{ran}.attempts");
    let events = doc.items("events");
    let terminal = format!("events.{}", index_of(events, "type", "terminal"));
    let terminal_status = format!("{terminal}.status");
    let last_ts = format!("events.{}.ts_us", events.len() - 1);
    let cases = [
        ("health.completed", Bump, "accounting identity violated"),
        ("health.completed", Bump, "result(s) but health counts"),
        ("health.in_flight", Bump, "drain left work behind"),
        (
            "health.queue_depth_max",
            Set(9.into()),
            "queue depth peaked at 9 with capacity 8",
        ),
        ("results", RepeatLast, "duplicate result id"),
        ("results.0.status", Set("running".into()), "is not terminal"),
        (
            "results.0.kind",
            Set("teleport".into()),
            "unknown job kind `teleport`",
        ),
        ("results.0", Remove("detail"), "missing key `detail`"),
        (
            attempts.as_str(),
            Set(0.into()),
            "completed job reports 0 attempt",
        ),
        (
            "queue_capacity",
            Set("wide".into()),
            "queue_capacity: expected an integer, got",
        ),
        (
            "events",
            RemoveType("terminal"),
            "0 terminal events, expected exactly 1",
        ),
        (
            "events",
            RemoveType("terminal"),
            "accounting identity violated from events alone",
        ),
        ("events.3.seq", Set(0.into()), "seq not strictly increasing"),
        (last_ts.as_str(), Set(0.into()), "timestamp went backwards"),
        (
            terminal_status.as_str(),
            Set("pending".into()),
            "is not one of",
        ),
        (
            terminal.as_str(),
            Remove("total_wall_us"),
            "`total_wall_us` must be",
        ),
        (
            "events.0.type",
            Set("teleported".into()),
            "unknown event type",
        ),
        ("derived.completed", Bump, "`derived` is"),
        ("health.failed", Bump, "disagree with health counters"),
        (
            "events.0.queue_depth",
            Set(9.into()),
            "queue_depth 9 exceeds queue_capacity 8",
        ),
        ("", Remove("dropped"), "missing key `dropped`"),
    ];
    assert_checked(&doc, &cases);
    assert_sound(&Json::parse(&journal.chrome_trace(2)).unwrap());
}
