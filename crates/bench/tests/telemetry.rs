//! End-to-end tests of `reproduce bench`: document determinism and
//! usage errors.
//!
//! The tests run a filtered slice of the suite (the three IMUL Table-2
//! rows) so each binary invocation stays in test-friendly territory; the
//! full 28-row suite runs in the root `bench_gate` test against
//! `tests/bench_golden.txt`.

use std::process::{Command, Output};

use peakperf_bench::report::check_document;
use peakperf_sim::Json;

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
fn bench_documents_are_byte_identical_across_runs() {
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
    let a = std::fs::read_to_string(&a_path).unwrap();
    assert_eq!(
        a,
        std::fs::read_to_string(&b_path).unwrap(),
        "two bench runs must write the same document"
    );
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
fn bench_never_reads_the_timing_cache() {
    // A warm cache would answer every row without simulating it, and the
    // scorecard would show zero cycles and zero stalls: bench takes no
    // cache option at all.
    let dir = temp_dir("cache");
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    for args in [
        &[
            "bench",
            "--filter",
            FILTER,
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ][..],
        &["bench", "--filter", FILTER, "--no-cache"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--no-cache/--cache-dir apply only"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    assert_eq!(std::fs::read_dir(&cache_dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_rejects_bad_usage() {
    // Positional arguments are not part of the bench grammar.
    let out = reproduce(&["bench", "table1"]);
    assert!(!out.status.success());

    // Bench flags outside the subcommand are rejected.
    let out = reproduce(&["table1", "--filter", "table2/"]);
    assert!(!out.status.success());

    // A filter matching nothing is an error, not an empty success.
    let out = reproduce(&["bench", "--filter", "nonexistent/"]);
    assert!(!out.status.success());

    // There is no baseline comparison.
    for option in ["--compare", "--compare-out"] {
        let out = reproduce(&["bench", "--filter", FILTER, option, "x.json"]);
        assert_eq!(out.status.code(), Some(1), "{option}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{option}`")), "{err}");
    }
}
