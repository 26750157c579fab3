//! End-to-end tests of `reproduce bench`: document determinism, the
//! self-comparison gate, and the injected-regression gate.
//!
//! The tests run a filtered slice of the suite (the three IMUL Table-2
//! rows) so each binary invocation stays in test-friendly territory; the
//! full 28-row suite runs in CI against the checked-in baseline.

use std::process::{Command, Output};

use peakperf_bench::report::check_document;
use peakperf_bench::telemetry;
use peakperf_sim::Json;

mod common;

const FILTER: &str = "table2/imul";

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("failed to launch reproduce")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("peakperf-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bench_documents_are_deterministic_modulo_wall_time() {
    let dir = temp_dir("determinism");
    let a_path = dir.join("a.json");
    let b_path = dir.join("b.json");
    for path in [&a_path, &b_path] {
        let out = reproduce(&[
            "bench",
            "--filter",
            FILTER,
            "--json",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "bench run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let masked = |path: &std::path::Path| {
        common::mask_volatile(Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap())
    };
    assert_eq!(
        masked(&a_path),
        masked(&b_path),
        "two bench runs must agree outside wall-time fields"
    );
    let a = std::fs::read_to_string(&a_path).unwrap();
    let parsed = Json::parse(&a).expect("bench document must parse");
    assert_eq!(check_document(&parsed), Vec::<String>::new());
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("peakperf-bench-v1")
    );
    assert_eq!(
        parsed.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
        Some(3)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_passes_against_its_own_fresh_baseline() {
    // A fresh run against the document it wrote itself.
    let report = telemetry::run_suite_filtered(Some(FILTER)).unwrap();
    let baseline = Json::parse(&report.to_json().pretty()).unwrap();
    let cmp = telemetry::compare(&report, &baseline).unwrap();
    assert!(cmp.failures().is_empty(), "{}", cmp.render_text());
    assert!(cmp.render_text().contains("gate PASS"));
    let doc = cmp.to_json();
    assert_eq!(check_document(&doc), Vec::<String>::new());
    assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
}

fn rows_mut(doc: &mut Json) -> &mut Vec<Json> {
    match doc.get_mut("rows") {
        Some(Json::Arr(rows)) => rows,
        other => panic!("rows is not an array: {other:?}"),
    }
}

#[test]
fn compare_gates_injected_drift_but_not_wall_time() {
    let dir = temp_dir("drift");
    let baseline_path = dir.join("baseline.json");
    let out = reproduce(&[
        "bench",
        "--filter",
        FILTER,
        "--json",
        baseline_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let compare = |extra: &[&str]| {
        let mut args = vec!["bench", "--filter", FILTER, "--compare"];
        args.push(baseline_path.to_str().unwrap());
        args.extend(extra);
        reproduce(&args)
    };

    // Fabricate a 1 ms wall time for one baseline row: the fresh run looks
    // like a massive slowdown, and the gate does not care — host speed is
    // `benchmark/`'s question.
    let text = std::fs::read_to_string(&baseline_path).unwrap();
    let mut doc = Json::parse(&text).unwrap();
    let rows = rows_mut(&mut doc);
    let drifted_id = rows[0].get("id").unwrap().as_str().unwrap().to_owned();
    let old_err = rows[0].get("pct_error").unwrap().as_f64().unwrap();
    *rows[1].get_mut("wall_ms").unwrap() = Json::Num(1.0);
    std::fs::write(&baseline_path, doc.pretty()).unwrap();
    let out = compare(&[]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "wall time must not gate: {text}");
    assert!(text.contains("gate PASS"), "stdout: {text}");
    assert!(!text.contains("wall_ms"), "stdout: {text}");

    // Shift one row's recorded model error by 10 percentage points, either
    // way: the fresh run now *drifts* by 10 pp relative to it, and drift
    // toward the paper is as much a model change as drift away from it.
    let cmp_out = dir.join("cmp.json");
    for shift in [-10.0, 10.0] {
        *rows_mut(&mut doc)[0].get_mut("pct_error").unwrap() = Json::Num(old_err + shift);
        std::fs::write(&baseline_path, doc.pretty()).unwrap();
        let out = compare(&["--compare-out", cmp_out.to_str().unwrap()]);
        assert!(!out.status.success(), "injected drift must fail the gate");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("gate FAIL (1 violation(s))"),
            "stdout: {text}"
        );
        assert!(
            text.contains(&format!("GATE {drifted_id} pct_error")),
            "accuracy drift must be named: {text}"
        );
        let doc = Json::parse(&std::fs::read_to_string(&cmp_out).unwrap()).unwrap();
        assert_eq!(check_document(&doc), Vec::<String>::new());
        assert_eq!(doc.text("schema"), "peakperf-bench-compare-v1");
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_rejects_bad_usage() {
    // Positional arguments are not part of the bench grammar.
    let out = reproduce(&["bench", "table1"]);
    assert!(!out.status.success());

    // Bench flags outside the subcommand are rejected.
    for args in [
        &["table1", "--compare", "x.json"][..],
        &["table1", "--compare-out", "x.json"],
        &["table1", "--filter", "table2/"],
    ] {
        let out = reproduce(args);
        assert!(!out.status.success(), "accepted {args:?}");
    }

    // A filter matching nothing is an error, not an empty success.
    let out = reproduce(&["bench", "--filter", "nonexistent/"]);
    assert!(!out.status.success());

    // A missing or non-bench baseline is a comparison error.
    let out = reproduce(&[
        "bench",
        "--filter",
        FILTER,
        "--compare",
        "/nonexistent/baseline.json",
    ]);
    assert!(!out.status.success());
}
