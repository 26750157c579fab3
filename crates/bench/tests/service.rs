//! Integration tests of the resilient service core and the `reproduce
//! serve` subcommand: the chaos soak (hundreds of hostile jobs, every
//! one reaching a terminal state with the queue bound respected), the
//! accounting identity end to end, the JSONL job-file path, and the
//! flight-recorder journal (gap-free span chains, identity re-derived
//! from events alone, the Chrome-trace export, and the
//! journal-off/journal-on equivalence lock).

use std::process::{Command, Output};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use peakperf_bench::report::check_document;
use peakperf_bench::service::journal::{self, Event, EventKind, Journal};
use peakperf_bench::service::{
    self, JobKind, JobResult, JobSpec, JobStatus, Service, ServiceConfig,
};
use peakperf_sim::{CancelSource, Json};

mod common;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("failed to launch reproduce")
}

/// Collect results with an overall watchdog: the soak's core claim is
/// *zero hangs*, so a stuck worker must fail the test instead of letting
/// the harness time out with no diagnostics.
fn collect(rx: &mpsc::Receiver<JobResult>, want: usize, budget: Duration) -> Vec<JobResult> {
    let mut results = Vec::with_capacity(want);
    while results.len() < want {
        match rx.recv_timeout(budget) {
            Ok(r) => results.push(r),
            Err(e) => panic!(
                "hang: only {}/{want} results after {budget:?} ({e})",
                results.len()
            ),
        }
    }
    results
}

#[test]
fn chaos_soak_reaches_terminal_state_for_every_job() {
    // 220 hostile-heavy jobs through a deliberately tight queue so the
    // backpressure path is exercised alongside panics, deadline-doomed
    // spins, cycle-triggered cancels and mutants.
    let jobs = service::soak_jobs(220, 2026);
    let total = jobs.len();
    let capacity = 32;
    let config = ServiceConfig {
        workers: 4,
        queue_capacity: capacity,
    };
    let (svc, rx) = Service::start_with_journal(config, None);
    for job in jobs {
        svc.submit(job);
    }
    // Rejections land on the channel immediately; accepted jobs finish
    // as the workers drain the queue. Per-job deadlines (<= 60 s in the
    // soak mix) and the fault mutants' own step and cycle budgets bound
    // the whole thing; the watchdog is generous.
    let results = collect(&rx, total, Duration::from_secs(300));
    let health = svc.drain();

    assert_eq!(results.len(), total, "every job must produce one result");
    assert_eq!(health.submitted, total as u64);
    assert_eq!(
        health.terminal(),
        health.submitted,
        "accounting identity: {}",
        health.render_line()
    );
    assert!(health.accounted(), "{}", health.render_line());
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.in_flight, 0);
    assert!(
        health.queue_depth_max <= capacity as u64,
        "queue bound violated: {}",
        health.render_line()
    );

    // The hostile mix must actually exercise every terminal state, or
    // the soak proves nothing; and no job runs twice.
    assert!(health.completed > 0, "{}", health.render_line());
    assert!(health.failed > 0, "{}", health.render_line());
    assert!(health.deadline > 0, "{}", health.render_line());
    assert!(health.cancelled > 0, "{}", health.render_line());
    assert!(results.iter().all(|r| r.attempts <= 1));

    // Spot-check semantics: panics are failures with a backtrace, and
    // cycle-triggered spins were cancelled mid-simulation.
    let panic = results
        .iter()
        .find(|r| r.kind == "panic" && r.status == JobStatus::Failed)
        .expect("a panic job should fail terminally");
    assert!(panic.detail.contains("backtrace:"), "{}", panic.detail);
    assert!(results.iter().any(|r| r.kind == "spin"
        && r.status == JobStatus::Cancelled
        && r.detail.contains("cancelled at cycle")));
}

#[test]
fn soak_results_are_deterministic_for_simulator_jobs() {
    // Same seed, same cycle-triggered spin: the simulator must abort at
    // the same cycle both times (cancellation is on the deterministic
    // 1024-cycle grid, not a wall-clock race).
    let spin = service::soak_jobs(200, 9)
        .into_iter()
        .find(|j| j.kind == JobKind::Spin && j.cancel_at_cycle.is_some())
        .expect("the soak mix includes cycle-triggered spins");
    let run = |spec: JobSpec| {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let (svc, rx) = Service::start_with_journal(config, None);
        svc.submit(spec);
        let results = collect(&rx, 1, Duration::from_secs(60));
        svc.drain();
        results.into_iter().next().unwrap()
    };
    let a = run(spin.clone());
    let b = run(spin);
    assert_eq!(a.status, JobStatus::Cancelled);
    assert_eq!(a.detail, b.detail, "abort cycle must be deterministic");
}

#[test]
fn serve_cli_runs_a_jobs_file_and_emits_one_valid_document() {
    let dir = std::env::temp_dir().join(format!("peakperf-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs_path = dir.join("jobs.jsonl");
    let json_path = dir.join("service.json");
    // Well-behaved production jobs only: a mutant evaluation, a profile,
    // and a deadline-doomed spin (deadline is requested semantics, not a
    // failure).
    let jobs = [
        JobSpec::new(
            "mutant-1",
            JobKind::Fault {
                case: peakperf_bench::fault::FuzzCase {
                    generation: peakperf_arch::Generation::Kepler,
                    seed: peakperf_bench::fault::SeedSpec::parse("table2:03").unwrap(),
                    mutation_seed: 11,
                },
            },
        ),
        JobSpec::new(
            "profile-1",
            JobKind::Profile {
                target: "fermi_ffma".to_owned(),
            },
        ),
        JobSpec {
            deadline_ms: Some(40),
            ..JobSpec::new("doomed-1", JobKind::Spin)
        },
    ];
    let text = jobs
        .iter()
        .map(|job| job.to_json().render())
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&jobs_path, text).unwrap();

    let out = reproduce(&[
        "serve",
        "--jobs",
        jobs_path.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed:\n{err}");

    // The document carries the envelope, balanced health counters, one
    // result per job, and the journal's events.
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    assert_eq!(check_document(&doc), Vec::<String>::new());
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("peakperf-service-v1")
    );
    let health = doc.get("health").unwrap();
    let n = |k: &str| health.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("submitted"), 3);
    assert_eq!(n("completed"), 2);
    assert_eq!(n("deadline"), 1);
    assert_eq!(n("failed") + n("cancelled") + n("rejected"), 0);
    assert_eq!(health.get("retried"), None, "no job is ever retried");

    let results = doc.items("results");
    assert_eq!(results.len(), 3);
    for r in results {
        assert!(["completed", "deadline"].contains(&r.text("status")), "{r}");
        assert_eq!(r.count("attempts"), 1, "{r}");
    }
    assert_eq!(doc.get("complete"), Some(&Json::Bool(true)));
    assert!(doc.items("events").len() >= 3 * 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_cli_fails_when_a_file_job_fails_and_dumps_the_flight_recorder() {
    let dir = std::env::temp_dir().join(format!("peakperf-serve-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs_path = dir.join("jobs.jsonl");
    std::fs::write(
        &jobs_path,
        JobSpec::new("boom", JobKind::Panic).to_json().render(),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["serve", "--jobs", jobs_path.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .expect("failed to launch reproduce");
    assert!(
        !out.status.success(),
        "a panicking job from --jobs must fail the exit code"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("boom"), "stderr should name the job: {err}");
    // A failing run ships with its history: the service document with the
    // always-armed flight recorder is dumped and the error message points
    // at it.
    assert!(
        err.contains("serve-flightrec.json"),
        "stderr should point at the flight-recorder dump: {err}"
    );
    let dump = std::fs::read_to_string(dir.join("serve-flightrec.json"))
        .expect("flight-recorder dump should exist next to the run");
    let doc = Json::parse(&dump).unwrap();
    assert_eq!(check_document(&doc), Vec::<String>::new());
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("peakperf-service-v1")
    );
    assert_eq!(doc.items("results")[0].text("status"), "failed");
    assert!(
        !doc.items("events").is_empty(),
        "the dump must carry the event history"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_rederives_identity_on_a_200_job_seeded_soak() {
    // The tentpole property, end to end: attach a full journal to a
    // 200-job seeded chaos soak and require (a) no invariant violation —
    // seq strictly increasing, per-job timestamps monotone, every span
    // chain gap-free from Submitted to Terminal — and (b) the accounting
    // identity re-derived from the event stream alone, agreeing with the
    // atomic health counters status by status.
    let journal = Arc::new(Journal::full(None));
    let (svc, rx) = Service::start_with_journal(
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
        },
        Some(Arc::clone(&journal)),
    );
    let jobs = service::soak_jobs(200, 77);
    let total = jobs.len();
    for job in jobs {
        svc.submit(job);
    }
    let results = collect(&rx, total, Duration::from_secs(300));
    let health = svc.drain();

    let violations = journal.check_invariants(Some(&health));
    assert_eq!(violations, Vec::<String>::new());
    let derived = journal.derived();
    assert!(derived.accounted());
    assert_eq!(derived.submitted, total as u64);
    assert!(journal.is_complete(), "full journals never drop events");

    // Every result's terminal status is readable from its span chain.
    let events = journal.events();
    for r in &results {
        let last = events.iter().rfind(|e| e.job == r.id);
        let Some(last) = last else {
            panic!("job {} has no journal chain", r.id)
        };
        match last.kind {
            EventKind::Terminal { status, .. } => {
                assert_eq!(status, r.status, "journal disagrees on {}", r.id)
            }
            ref other => panic!("job {} chain ends with {}", r.id, other.type_name()),
        }
    }
    // The job events are the record of the queue: replaying their
    // depths never exceeds the bound, and pickups drain it.
    let depths: Vec<u64> = events.iter().filter_map(|e| e.kind.queue_depth()).collect();
    assert!(depths.iter().all(|&d| d <= 32), "{depths:?}");
    assert!(depths.windows(2).any(|w| w[1] < w[0]), "{depths:?}");
}

#[test]
fn journal_attachment_leaves_results_identical() {
    // The zero-overhead-when-off lock: the same deterministic job list,
    // run with no journal and with a full journal, must produce the same
    // results and health counters up to volatile wall-time fields —
    // attaching the flight recorder changes what is *recorded*, never
    // what the service *does*. The one health member the job list does
    // not determine is the deepest queue: the worker may or may not take
    // the first job before the other two are submitted.
    let jobs = || {
        vec![
            JobSpec::new(
                "completes",
                JobKind::Fault {
                    case: peakperf_bench::fault::FuzzCase {
                        generation: peakperf_arch::Generation::Fermi,
                        seed: peakperf_bench::fault::SeedSpec::parse("table2:07").unwrap(),
                        mutation_seed: 5,
                    },
                },
            ),
            // An untriggered spin fails on the cycle watchdog.
            JobSpec::new("fails", JobKind::Spin),
            JobSpec {
                cancel_at_cycle: Some(4096),
                deadline_ms: Some(30_000),
                ..JobSpec::new("aborts", JobKind::Spin)
            },
        ]
    };
    let run = |journal: Option<Arc<Journal>>| {
        let (svc, rx) = Service::start_with_journal(
            ServiceConfig {
                workers: 1,
                queue_capacity: 8,
            },
            journal,
        );
        for job in jobs() {
            svc.submit(job);
        }
        let results: Json = collect(&rx, 3, Duration::from_secs(60))
            .iter()
            .map(JobResult::to_json)
            .collect();
        let mut health = svc.drain().to_json();
        let deepest = health.count("queue_depth_max");
        assert!((2..=3).contains(&deepest), "queue_depth_max {deepest}");
        *health.get_mut("queue_depth_max").unwrap() = Json::Null;
        (health, common::mask_volatile(results))
    };
    let off = run(None);
    let on = run(Some(Arc::new(Journal::full(None))));
    assert_eq!(off, on);
}

/// A fixed, clock-free event sequence locking the Chrome-trace export
/// format: a completed job, a shed job, and a cycle-cancelled job across
/// two workers; the queue-depth counter rises at each submission and
/// falls at each pickup.
fn synthetic_events() -> Vec<Event> {
    let ev = |seq: u64, ts_us: u64, job: &str, worker: Option<u32>, kind: EventKind| Event {
        seq,
        ts_us,
        job: job.to_owned(),
        worker,
        kind,
    };
    let dequeued = |queue_wait_us, queue_depth| EventKind::Dequeued {
        queue_wait_us,
        queue_depth,
    };
    vec![
        ev(0, 0, "alpha", None, EventKind::Submitted { queue_depth: 1 }),
        ev(1, 3, "gamma", None, EventKind::Submitted { queue_depth: 2 }),
        ev(2, 5, "beta", None, EventKind::Submitted { queue_depth: 2 }),
        ev(
            3,
            6,
            "beta",
            None,
            EventKind::Rejected {
                reason: "overloaded",
            },
        ),
        ev(
            4,
            7,
            "beta",
            None,
            EventKind::Terminal {
                status: JobStatus::Rejected,
                total_wall_us: 0,
            },
        ),
        ev(5, 10, "alpha", Some(0), dequeued(10, 1)),
        ev(6, 12, "alpha", Some(0), EventKind::AttemptStarted),
        ev(7, 15, "gamma", Some(1), dequeued(12, 0)),
        ev(8, 16, "gamma", Some(1), EventKind::AttemptStarted),
        ev(
            9,
            60,
            "gamma",
            Some(1),
            EventKind::CancelRequested {
                source: CancelSource::Cycle,
            },
        ),
        ev(
            10,
            62,
            "gamma",
            Some(1),
            EventKind::Terminal {
                status: JobStatus::Cancelled,
                total_wall_us: 47,
            },
        ),
        ev(
            11,
            1100,
            "alpha",
            Some(0),
            EventKind::Terminal {
                status: JobStatus::Completed,
                total_wall_us: 1090,
            },
        ),
    ]
}

#[test]
fn servicetrace_chrome_export_matches_golden_file() {
    let events = synthetic_events();
    let json = journal::chrome_trace_from_events(&events, 2);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_servicetrace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "servicetrace Chrome export drifted from tests/golden_servicetrace.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1 cargo test"
    );
}

#[test]
fn serve_cli_writes_document_and_trace_artifacts() {
    let dir = std::env::temp_dir().join(format!("peakperf-serve-jrn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("service.json");
    let trace_path = dir.join("trace.json");
    let out = reproduce(&[
        "serve",
        "--soak",
        "25",
        "--seed",
        "3",
        "--queue-cap",
        "8",
        "--json",
        doc_path.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed:\n{err}");

    // `reproduce check` accepts both artifacts (and the checked-in golden
    // trace) — so the identity is re-derivable from the service document
    // alone and agrees with `derived` and `health` — and names what is
    // wrong with a document that lost an event.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_servicetrace.json"
    );
    let out = reproduce(&[
        "check",
        doc_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
        golden,
    ]);
    assert!(
        out.status.success(),
        "check failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout)
            .matches("check OK")
            .count(),
        3
    );
    let mut doc = Json::parse(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
    let Some(Json::Arr(events)) = doc.get_mut("events") else {
        panic!("events is not an array")
    };
    let terminal = events.iter().position(|e| e.text("type") == "terminal");
    events.remove(terminal.unwrap());
    let broken_path = dir.join("broken.json");
    std::fs::write(&broken_path, doc.pretty()).unwrap();
    let out = reproduce(&["check", broken_path.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "a lost terminal event must fail check"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("0 terminal events, expected exactly 1"),
        "{err}"
    );

    let doc = Json::parse(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
    assert_eq!(doc.get("complete"), Some(&Json::Bool(true)));
    assert!(
        doc.items("events").len() >= 25 * 2,
        "at least submitted+terminal per job"
    );

    let trace = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = trace.items("traceEvents");
    assert!(
        events.iter().any(|e| e.text("ph") == "C"),
        "queue-depth counter track"
    );
    assert!(trace.render().contains("worker 0"), "named worker tracks");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_cli_validates_its_arguments() {
    // No job source.
    let out = reproduce(&["serve"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
    // Serve flags outside serve mode.
    let out = reproduce(&["--soak", "5", "table1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve"));
    // Positional arguments are rejected.
    let out = reproduce(&["serve", "--soak", "5", "table1"]);
    assert!(!out.status.success());
    // Malformed job lines are named with their line number.
    let dir = std::env::temp_dir().join(format!("peakperf-serve-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs_path = dir.join("jobs.jsonl");
    std::fs::write(&jobs_path, "{\"schema\":\"peakperf-job-v1\"}").unwrap();
    let out = reproduce(&["serve", "--jobs", jobs_path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("jobs line 1"));
    // A hostile line nested two million deep is a typed, line-numbered
    // error too — not a stack overflow that aborts the process.
    std::fs::write(&jobs_path, format!("\n{}", "[".repeat(2_000_000))).unwrap();
    let out = reproduce(&["serve", "--jobs", jobs_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("jobs line 2: nesting deeper than"), "{err}");
    // `check` takes file paths only.
    assert!(!reproduce(&["check"]).status.success());
    assert!(!reproduce(&["check", "--bench", "x.json"]).status.success());
    std::fs::remove_dir_all(&dir).ok();
}
