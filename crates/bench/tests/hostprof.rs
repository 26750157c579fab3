//! End-to-end tests of `reproduce hostprof`: document determinism modulo
//! wall-time fields and schema coherence of the emitted
//! `peakperf-hostprof-v1` document.
//!
//! The tests use the cheapest profiling target (`fermi_ffma`) so each
//! binary invocation stays quick; the SGEMM hostprof targets feed
//! EXPERIMENTS.md.

use std::process::{Command, Output};

use peakperf_bench::report::check_document;
use peakperf_sim::Json;

mod common;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("failed to launch reproduce")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("peakperf-hostprof-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hostprof_document_is_deterministic_modulo_wall_time() {
    let dir = temp_dir("determinism");
    let a_path = dir.join("a.json");
    let b_path = dir.join("b.json");
    for path in [&a_path, &b_path] {
        let out = reproduce(&["hostprof", "fermi_ffma", "--json", path.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "hostprof run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("== hostprof: fermi_ffma (GTX580) =="));
        assert!(stdout.contains("idle cycles: "));
    }
    let masked = |path: &std::path::Path| {
        common::mask_volatile(Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap())
    };
    assert_eq!(
        masked(&a_path),
        masked(&b_path),
        "two hostprof runs must agree outside wall-time fields"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostprof_document_is_schema_coherent() {
    let dir = temp_dir("schema");
    let path = dir.join("hostprof.json");
    let out = reproduce(&["hostprof", "fermi_ffma", "--json", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "hostprof run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).unwrap();
    let parsed = Json::parse(&doc).expect("hostprof document must parse");
    assert_eq!(check_document(&parsed), Vec::<String>::new());
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("peakperf-hostprof-v1")
    );
    let phases = parsed.get("phases").and_then(Json::as_arr).unwrap();
    assert_eq!(phases.len(), 7);

    let targets = parsed.get("targets").and_then(Json::as_arr).unwrap();
    assert_eq!(targets.len(), 1);
    let target = &targets[0];
    assert_eq!(
        target.get("target").and_then(Json::as_str),
        Some("fermi_ffma")
    );
    assert_eq!(target.get("gpu").and_then(Json::as_str), Some("GTX580"));
    assert!(target.get("cycles").and_then(Json::as_f64).unwrap() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostprof_rejects_missing_and_unknown_targets() {
    let out = reproduce(&["hostprof"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("hostprof needs at least one target"),
        "unexpected stderr: {stderr}"
    );

    let out = reproduce(&["hostprof", "nonesuch"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown hostprof target"),
        "unexpected stderr: {stderr}"
    );
}
