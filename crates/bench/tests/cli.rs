//! End-to-end tests of the `reproduce` binary — determinism across
//! worker counts, up-front validation of experiment names, subcommands
//! and options, the profile and fuzz smoke runs — and of `sassc`.

use std::path::PathBuf;
use std::process::{Command, Output};

use peakperf_arch::Generation;
use peakperf_kernels::sgemm::{build_preset, Preset, SgemmProblem, Variant};
use peakperf_sass::Module;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("failed to launch reproduce")
}

#[test]
fn output_is_identical_across_worker_counts() {
    // table1 and fig3 are analytical (no simulation), upperbound is the
    // bound model: the full pipeline, cheap enough for a test.
    let one = reproduce(&["--workers", "1", "table1", "fig3", "upperbound"]);
    let four = reproduce(&["--workers", "4", "table1", "fig3", "upperbound"]);
    assert!(one.status.success(), "workers=1 run failed");
    assert!(four.status.success(), "workers=4 run failed");
    assert_eq!(
        one.stdout, four.stdout,
        "stdout must be byte-identical regardless of worker count"
    );
}

#[test]
fn the_worker_count_has_a_ceiling() {
    // `serve` starts every worker thread up front: a count past the
    // ceiling is a usage error before anything runs.
    let out = reproduce(&["--workers", "257", "table1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid worker count"), "{err}");
    assert!(out.stdout.is_empty(), "a rejected invocation ran something");
    let out = reproduce(&["--workers", "256", "table1"]);
    assert!(out.status.success(), "--workers 256 must be accepted");
}

#[test]
fn unknown_names_are_rejected_before_any_work() {
    let out = reproduce(&["table1", "nope", "fig3", "also-nope"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("nope"),
        "stderr should name the bad experiment: {err}"
    );
    assert!(
        err.contains("also-nope"),
        "stderr should list every bad name: {err}"
    );
    // Nothing ran: no experiment output on stdout.
    assert!(
        out.stdout.is_empty(),
        "no experiment may run on a bad invocation"
    );
}

#[test]
fn the_subcommand_is_read_once() {
    // A second subcommand word, or one after the first positional word, is
    // a usage error — not a panic, and not a silently ignored word.
    for args in [
        &["bench", "fuzz", "--iters", "3"][..],
        &["fuzz", "bench"],
        &["serve", "profile"],
        &["hostprof", "bench", "x"],
        &["table1", "fuzz"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("is a subcommand"), "{args:?}: {err}");
        assert!(err.contains("usage: reproduce"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    // Options may still precede the subcommand.
    let out = reproduce(&["--workers", "1", "profile"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("profile needs at least one target"), "{err}");
}

#[test]
fn options_of_another_mode_are_rejected() {
    for args in [
        // The experiments write no `--json` document.
        &["--json", "x.json", "table1"][..],
        &["bench", "--soak", "3"],
        &["serve", "--soak", "3", "--corpus-dir", "x"],
        &["hostprof", "fermi_ffma", "--trace-out", "x.json"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: reproduce"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn there_is_no_grid_option_and_no_second_document_flag() {
    // Every experiment and the bench suite run at the paper's sizes: no
    // option picks another grid. Every document is written by `--json`,
    // and a serve run writes one. The fault corpus is replayed by
    // `cargo test`, not by a flag. The timing cache lives in memory only
    // and no option turns it on or off.
    for args in [
        &["--quick", "table1"][..],
        &["--full", "table1"],
        &["bench", "--quick"],
        &["bench", "--full"],
        &["profile", "fermi_ffma", "--profile-out", "x.json"],
        &["serve", "--soak", "3", "--results", "x.jsonl"],
        &["serve", "--soak", "3", "--journal-out", "x.json"],
        &["serve", "--soak", "3", "--snapshot-ms", "10"],
        &["fuzz", "--replay", "tests/fault_corpus"],
        &["--cache-dir", "x", "table1"],
        &["--no-cache", "table1"],
        &["profile", "fermi_ffma", "--cache-dir", "x"],
        &["profile", "fermi_ffma", "--no-cache"],
        &["fuzz", "--iters", "3", "--cache-dir", "x"],
        &["fuzz", "--iters", "3", "--no-cache"],
        &["bench", "--cache-dir", "x"],
        &["bench", "--no-cache"],
        &["hostprof", "fermi_ffma", "--cache-dir", "x"],
        &["hostprof", "fermi_ffma", "--no-cache"],
        &["serve", "--soak", "3", "--cache-dir", "x"],
        &["serve", "--soak", "3", "--no-cache"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn profile_subcommand_emits_trace_and_profile_documents() {
    let dir = std::env::temp_dir().join(format!("peakperf-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let profile = dir.join("profile.json");
    // fermi_ffma is the cheapest target (2 resident blocks, short loop).
    let out = reproduce(&[
        "profile",
        "fermi_ffma",
        "--trace-out",
        trace.to_str().unwrap(),
        "--json",
        profile.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "profile run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== profile: fermi_ffma"));
    assert!(text.contains("stall breakdown"));
    let trace_json = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_json.contains("\"traceEvents\""));
    let profile_json = std::fs::read_to_string(&profile).unwrap();
    assert!(profile_json.contains("\"peakperf-profile-v1\""));
    assert!(profile_json.contains("\"stall_totals\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rejects_unknown_targets_and_misplaced_flags() {
    let out = reproduce(&["profile", "not-a-target"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not-a-target"), "stderr: {err}");

    // No target at all: error out, listing the known targets.
    let out = reproduce(&["profile"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("table2_ffma"),
        "stderr should list targets: {err}"
    );

    // --trace-out with several targets is ambiguous.
    let out = reproduce(&[
        "profile",
        "fermi_ffma",
        "table2_ffma",
        "--trace-out",
        "x.json",
    ]);
    assert!(!out.status.success());

    // Profile flags outside the subcommand are rejected.
    let out = reproduce(&["table1", "--trace-out", "x.json"]);
    assert!(!out.status.success());
}

#[test]
fn fuzz_smoke_runs_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("peakperf-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("fuzz.json");
    let out = reproduce(&[
        "fuzz",
        "--seed",
        "3",
        "--iters",
        "12",
        "--json",
        json.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fuzz smoke failed: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Fuzz campaign"), "stdout: {text}");
    assert!(text.contains("panic"), "stdout: {text}");
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"peakperf-fuzz-v1\""));
    assert!(doc.contains("\"panic\": 0"), "json: {doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_rejects_bad_usage() {
    // Positional arguments are not part of the fuzz grammar.
    let out = reproduce(&["fuzz", "table1"]);
    assert!(!out.status.success());

    // The corpus flag outside the subcommand is rejected.
    let out = reproduce(&["table1", "--corpus-dir", "x"]);
    assert!(!out.status.success());

    // Unknown GPU names are rejected, and so is GT200: the timing model
    // simulates only the paper's two GPUs.
    for gpu in ["hopper", "gt200"] {
        let out = reproduce(&["fuzz", "--gpu", gpu]);
        assert_eq!(out.status.code(), Some(1), "{gpu}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown gpu `{gpu}`")), "{err}");
    }
}

fn sassc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sassc"))
        .args(args)
        .output()
        .expect("failed to launch sassc")
}

/// A fresh directory for one test's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peakperf-sassc-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &std::path::Path, file: &str) -> String {
    dir.join(file).to_str().unwrap().to_owned()
}

#[test]
fn sassc_rejects_an_unknown_modifier_with_its_line() {
    let dir = scratch_dir("modifier");
    let (src, bin) = (path(&dir, "bad.sass"), path(&dir, "bad.bin"));
    std::fs::write(&src, ".kernel k\nNOP;\nIADD.X R1, R2, R3;\nEXIT;\n").unwrap();
    let out = sassc(&["as", &src, &bin]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "IADD.X assembled: {err}");
    assert!(err.contains("line 3:"), "{err}");
    assert!(!dir.join("bad.bin").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sassc_as_dis_as_is_byte_identical_on_sgemm() {
    let dir = scratch_dir("roundtrip");
    for (generation, gen) in [(Generation::Fermi, "fermi"), (Generation::Kepler, "kepler")] {
        let problem = SgemmProblem::square(Variant::NT, 192);
        let build = build_preset(generation, &problem, Preset::AsmOpt).unwrap();
        let module = Module {
            generation,
            kernels: vec![build.kernel],
        };
        let (text, first, second) = (
            path(&dir, "sgemm.sass"),
            path(&dir, "sgemm.bin"),
            path(&dir, "again.bin"),
        );
        std::fs::write(&text, module.to_string()).unwrap();
        assert!(sassc(&["as", &text, &first, "--gen", gen]).status.success());
        let dis = sassc(&["dis", &first]);
        assert!(dis.status.success());
        std::fs::write(&text, &dis.stdout).unwrap();
        assert!(sassc(&["as", &text, &second, "--gen", gen])
            .status
            .success());
        let bytes = std::fs::read(&first).unwrap();
        assert_eq!(bytes, module.to_bytes().unwrap(), "{gen}");
        assert_eq!(bytes, std::fs::read(&second).unwrap(), "{gen}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sassc_run_prints_the_instruction_mix() {
    let dir = scratch_dir("run");
    let src = path(&dir, "square.sass");
    let kernel = "\
.kernel square
.param out
S2R R0, SR_TID.X;
SHL R1, R0, 0x2;
LDC R2, c[0x0][0x20];
IADD R2, R2, R1;
MOV32I R3, 0x40000000;
FMUL R4, R3, R3;
ST [R2], R4;
EXIT;
";
    std::fs::write(&src, kernel).unwrap();
    let out = sassc(&["run", &src, "square", "--param", "buf:32"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("instruction mix:"), "{err}");
    for mnemonic in ["S2R", "SHL", "LDC", "FMUL", "ST "] {
        assert!(err.contains(mnemonic), "{mnemonic} missing from {err}");
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[4.0, 4.0"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
