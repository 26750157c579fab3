//! Regenerate the paper's tables and figures on the simulator.
//!
//! ```text
//! reproduce [options] <experiment>...
//! reproduce all            # everything, at the paper's sizes
//! reproduce profile <target>... [--trace-out <path>] [--json <path>]
//! reproduce fuzz [--seed <n>] [--iters <n>] [--gpu <gen>]...
//!                [--corpus-dir <path>] [--json <path>]
//! reproduce bench [--json <path>] [--filter <prefix>]
//! reproduce hostprof <target>... [--json <path>]
//! reproduce serve [--jobs <file.jsonl>] [--soak <n>] [--seed <n>]
//!                 [--queue-cap <n>] [--json <path>] [--trace-out <path>]
//! reproduce check <file>...
//!
//! The subcommand is the first positional word (options may precede
//! it); without one the positional words are experiment names.
//!
//! options:
//!   --workers <n>        worker threads, 1 to 256 (default: autodetect)
//!
//! profile options:
//!   --trace-out <path>   write a Chrome trace-event JSON (Perfetto /
//!                        chrome://tracing) for the single profiled target
//!   --json <path>        write the peakperf-profile-v1 document
//!
//! fuzz options:
//!   --json <path>        write the peakperf-fuzz-v1 campaign summary
//!   --seed <n>           campaign master seed (default 1)
//!   --iters <n>          number of mutants (default 500)
//!   --gpu <gen>          fermi|kepler, repeatable (default both paper
//!                        GPUs)
//!   --corpus-dir <path>  write minimized violations as .case files (one
//!                        JSON record each; `cargo test` replays the
//!                        checked-in corpus under tests/fault_corpus)
//!
//! bench options:
//!   --json <path>        write the peakperf-bench-v1 scorecard document
//!                        (every row simulated: bench never reads the
//!                        timing cache)
//!   --filter <prefix>    run only suite rows whose id starts with
//!                        <prefix> (e.g. `table2/` or `sgemm/gtx680`)
//!
//! hostprof options:
//!   --json <path>        write the peakperf-hostprof-v1 document (host
//!                        wall-time attribution and idle-cycle count per
//!                        target)
//!
//! serve options:
//!   --jobs <file.jsonl>  submit one peakperf-job-v1 object per line; any
//!                        failed or rejected job from the file fails the
//!                        exit code
//!   --soak <n>           append n chaos-soak jobs (hostile mutants,
//!                        panics, deadline-doomed spins, ...); their
//!                        individual failures are expected and do not
//!                        fail the run — only a broken resilience
//!                        invariant does
//!   --seed <n>           soak mix seed (default 1)
//!   --queue-cap <n>      bounded queue capacity; submissions beyond it
//!                        are shed as `rejected` (default 256)
//!   --json <path>        write the peakperf-service-v1 document: health
//!                        counters, every job's result, and every
//!                        job-lifecycle event of the run
//!   --trace-out <path>   write the journal as Chrome trace-event JSON
//!                        (Perfetto): one track per worker, queue depth
//!                        as a counter track
//! ```
//!
//! `check` validates documents this binary wrote, and the checked-in
//! benchmark ledger `BENCH_LEDGER.json`: each file says what it
//! is (its `schema` id, or `traceEvents` for a Chrome trace) and is
//! checked against that family's required keys, types and invariants; a
//! `.jsonl` file is checked line by line. Any violation is listed and
//! fails the exit code.
//!
//! `serve` journals every event when it writes the document or the trace,
//! and otherwise arms a bounded flight-recorder ring: when a resilience
//! invariant fails without `--json`, the service document with the last
//! events is dumped to `serve-flightrec.json` and the error message
//! points at the dump.
//!
//! Experiments memoize their timing runs in memory for the length of the
//! process (`peakperf_sim::timing::cache`); every subcommand always
//! simulates.
//!
//! Experiment names are validated up front; a failing (or panicking)
//! experiment is reported and the remaining ones still run, with the exit
//! code reflecting whether any failed.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use peakperf_arch::Generation;
use peakperf_bench::exec;
use peakperf_bench::experiments;
use peakperf_bench::fault;
use peakperf_bench::hostprof;
use peakperf_bench::profiling;
use peakperf_bench::report::check_document;
use peakperf_bench::service::{self, journal, journal::Journal};
use peakperf_bench::telemetry;
use peakperf_sim::timing::cache;
use peakperf_sim::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: reproduce [--workers <n>] <experiment>...\n\
         \x20      reproduce profile [--trace-out <path>] [--json <path>] <target>...\n\
         \x20      reproduce fuzz [--seed <n>] [--iters <n>] [--gpu <gen>]... \
         [--corpus-dir <path>] [--json <path>]\n\
         \x20      reproduce bench [--json <path>] [--filter <prefix>]\n\
         \x20      reproduce hostprof [--json <path>] <target>...\n\
         \x20      reproduce serve [--jobs <file.jsonl>] [--soak <n>] [--seed <n>] \
         [--queue-cap <n>] [--json <path>] [--trace-out <path>]\n\
         \x20      reproduce check <file>...\n\
         --workers <n>: worker threads, 1 to {MAX_WORKERS} (default: autodetect)\n\
         experiments: {} all\n\
         profile targets: {}",
        ALL.join(" "),
        profiling::TARGETS
            .iter()
            .map(|t| t.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::FAILURE
}

fn run_one(name: &str) -> Result<String, String> {
    let out = match name {
        "table1" => experiments::table1(),
        "table2" => experiments::table2().map_err(|e| e.to_string())?,
        "fig2" => experiments::fig2().map_err(|e| e.to_string())?,
        "fig3" => experiments::fig3(),
        "fig4" => experiments::fig4().map_err(|e| e.to_string())?,
        "fig5" => experiments::fig5().map_err(|e| e.to_string())?,
        "fig6" => experiments::fig6().map_err(|e| e.to_string())?,
        "fig7" => experiments::fig7().map_err(|e| e.to_string())?,
        "fig8" => experiments::fig8().map_err(|e| e.to_string())?,
        "fig9" => experiments::fig9().map_err(|e| e.to_string())?,
        "upperbound" => experiments::upperbound(),
        "ablation" => experiments::ablation(),
        "optimizer" => experiments::optimizer().map_err(|e| e.to_string())?,
        "throughputdb" => experiments::throughput_db().map_err(|e| e.to_string())?,
        "achieved" => experiments::achieved().map_err(|e| e.to_string())?,
        other => return Err(format!("unknown experiment `{other}`")),
    };
    Ok(out)
}

const ALL: [&str; 15] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "upperbound",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "achieved",
    "ablation",
    "optimizer",
    "throughputdb",
];

/// The most worker threads `--workers` accepts. `serve` starts that many
/// threads up front, so a larger count is a usage error rather than a
/// failed thread spawn.
const MAX_WORKERS: usize = 256;

/// What one invocation does: a subcommand, or — without one — the
/// listed experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Experiments,
    Profile,
    Fuzz,
    Bench,
    Hostprof,
    Serve,
}

/// The subcommand words (`check` is dispatched before option parsing).
const SUBCOMMANDS: [(&str, Mode); 5] = [
    ("profile", Mode::Profile),
    ("fuzz", Mode::Fuzz),
    ("bench", Mode::Bench),
    ("hostprof", Mode::Hostprof),
    ("serve", Mode::Serve),
];

struct Options {
    mode: Mode,
    names: Vec<String>,
    json_path: Option<String>,
    trace_out: Option<String>,
    fuzz_seed: u64,
    fuzz_iters: u64,
    fuzz_gpus: Vec<Generation>,
    corpus_dir: Option<String>,
    bench_filter: Option<String>,
    jobs_path: Option<String>,
    soak: Option<u64>,
    queue_cap: Option<usize>,
}

/// `what` takes options only: `names` must be empty.
fn no_positionals(what: &str, names: &[String], hint: &str) -> Result<(), String> {
    if names.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{what} takes no positional arguments (got {}){hint}",
        names.join(", ")
    ))
}

/// `names` must be a non-empty list of known profile targets.
fn check_targets(what: &str, names: &[String]) -> Result<(), String> {
    let known: Vec<&str> = profiling::TARGETS.iter().map(|t| t.name).collect();
    if names.is_empty() {
        return Err(format!(
            "{what} needs at least one target; known: {}",
            known.join(" ")
        ));
    }
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| !known.contains(n))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown {what} target{} {}; known: {}",
            if unknown.len() > 1 { "s" } else { "" },
            unknown.join(", "),
            known.join(" ")
        ));
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::Experiments,
        names: Vec::new(),
        json_path: None,
        trace_out: None,
        fuzz_seed: 1,
        fuzz_iters: 500,
        fuzz_gpus: Vec::new(),
        corpus_dir: None,
        bench_filter: None,
        jobs_path: None,
        soak: None,
        queue_cap: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=MAX_WORKERS).contains(n))
                    .ok_or_else(|| format!("invalid worker count `{v}`"))?;
                exec::set_default_workers(n);
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a value")?;
                opts.json_path = Some(v.clone());
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a value")?;
                opts.trace_out = Some(v.clone());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.fuzz_seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                opts.fuzz_iters = v
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .ok_or_else(|| format!("invalid iteration count `{v}`"))?;
            }
            "--gpu" => {
                let v = it.next().ok_or("--gpu needs a value")?;
                let gen = fault::parse_generation(v).ok_or_else(|| format!("unknown gpu `{v}`"))?;
                if !opts.fuzz_gpus.contains(&gen) {
                    opts.fuzz_gpus.push(gen);
                }
            }
            "--corpus-dir" => {
                let v = it.next().ok_or("--corpus-dir needs a value")?;
                opts.corpus_dir = Some(v.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs_path = Some(v.clone());
            }
            "--soak" => {
                let v = it.next().ok_or("--soak needs a value")?;
                opts.soak = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| format!("invalid soak count `{v}`"))?,
                );
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                opts.queue_cap = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| format!("invalid queue capacity `{v}`"))?,
                );
            }
            "--filter" => {
                let v = it.next().ok_or("--filter needs a value")?;
                opts.bench_filter = Some(v.clone());
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            word => match SUBCOMMANDS.iter().find(|(name, _)| *name == word) {
                // The subcommand is read once: the first positional word.
                Some(&(_, mode)) if opts.mode == Mode::Experiments && opts.names.is_empty() => {
                    opts.mode = mode;
                }
                Some(_) => {
                    return Err(format!(
                        "`{word}` is a subcommand: it must be the first word, and there \
                         can be only one"
                    ));
                }
                None => opts.names.push(word.to_owned()),
            },
        }
    }

    // Options that belong to some subcommands are an error in the others.
    let owned: [(&str, bool, &[Mode]); 5] = [
        (
            "--json requires a subcommand: profile, fuzz, bench, hostprof or serve",
            opts.json_path.is_some(),
            &[
                Mode::Profile,
                Mode::Fuzz,
                Mode::Bench,
                Mode::Hostprof,
                Mode::Serve,
            ],
        ),
        (
            "--filter requires the `bench` subcommand",
            opts.bench_filter.is_some(),
            &[Mode::Bench],
        ),
        (
            "--jobs/--soak/--queue-cap require the `serve` subcommand",
            opts.jobs_path.is_some() || opts.soak.is_some() || opts.queue_cap.is_some(),
            &[Mode::Serve],
        ),
        (
            "--corpus-dir requires the `fuzz` subcommand",
            opts.corpus_dir.is_some(),
            &[Mode::Fuzz],
        ),
        (
            "--trace-out requires the `profile` or `serve` subcommand",
            opts.trace_out.is_some(),
            &[Mode::Profile, Mode::Serve],
        ),
    ];
    if let Some((message, ..)) = owned
        .iter()
        .find(|(_, given, modes)| *given && !modes.contains(&opts.mode))
    {
        return Err((*message).to_owned());
    }

    match opts.mode {
        Mode::Bench => no_positionals(
            "bench",
            &opts.names,
            "; use --filter <prefix> to select rows",
        )?,
        Mode::Serve => {
            no_positionals("serve", &opts.names, "")?;
            if opts.jobs_path.is_none() && opts.soak.is_none() {
                return Err("serve needs --jobs <file.jsonl> and/or --soak <n>".to_owned());
            }
        }
        Mode::Fuzz => {
            no_positionals("fuzz", &opts.names, "")?;
            if opts.fuzz_gpus.is_empty() {
                opts.fuzz_gpus = vec![Generation::Fermi, Generation::Kepler];
            }
        }
        Mode::Hostprof => check_targets("hostprof", &opts.names)?,
        Mode::Profile => {
            check_targets("profile", &opts.names)?;
            if opts.trace_out.is_some() && opts.names.len() != 1 {
                return Err("--trace-out profiles exactly one target".to_owned());
            }
        }
        Mode::Experiments => {
            if opts.names.is_empty() {
                return Err(String::new()); // nothing asked for: usage alone
            }
            if opts.names.iter().any(|n| n == "all") {
                opts.names = ALL.iter().map(|s| (*s).to_owned()).collect();
            }
            // Validate every experiment name up front, so a typo at position 5
            // does not cost four experiments of simulation first.
            let unknown: Vec<&str> = opts
                .names
                .iter()
                .map(String::as_str)
                .filter(|n| !ALL.contains(n))
                .collect();
            if !unknown.is_empty() {
                return Err(format!(
                    "unknown experiment{} {}; known: {} all",
                    if unknown.len() > 1 { "s" } else { "" },
                    unknown.join(", "),
                    ALL.join(" ")
                ));
            }
        }
    }
    Ok(opts)
}

/// `FAILURE` when anything failed, else `SUCCESS`.
fn exit_code(failures: u32) -> ExitCode {
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the `profile` subcommand: each target simulates under the tracer,
/// prints its gap decomposition + profile, and contributes a
/// `peakperf-profile-v1` object to `--json`.
fn run_profiles(opts: &Options) -> ExitCode {
    let mut failures = 0u32;
    let mut profile_jsons: Vec<Json> = Vec::new();
    let mut profile_gpus: Vec<&'static str> = Vec::new();
    for name in &opts.names {
        let t0 = Instant::now();
        let want_trace = opts.trace_out.is_some();
        // Panic boundary: a crashing profile target is reported and
        // flips the exit code instead of tearing down the whole run.
        let outcome = exec::run_isolated(|| {
            profiling::run_target(name, want_trace, None).map_err(|e| e.to_string())
        });
        let status = match outcome {
            Ok(out) => {
                println!("{}", out.text);
                profile_jsons.push(out.json);
                if !profile_gpus.contains(&out.gpu) {
                    profile_gpus.push(out.gpu);
                }
                if let (Some(path), Some(chrome)) = (&opts.trace_out, &out.chrome) {
                    failures += write_out("trace", path, chrome);
                }
                "done"
            }
            Err(e) => {
                eprintln!("error in profile {name}: {e}");
                failures += 1;
                "FAILED"
            }
        };
        eprintln!("[profile:{name} {status} in {:.1?}]", t0.elapsed());
    }
    if let Some(path) = &opts.json_path {
        let doc = profiling::profile_document(profile_jsons, &profile_gpus);
        failures += write_out("profile document", path, &doc.pretty());
    }
    exit_code(failures)
}

/// Run the listed experiments, printing each table to stdout and a
/// `[<name> done in <wall>]` line to stderr.
fn run_experiments(opts: &Options) -> ExitCode {
    let mut failures = 0u32;
    for name in &opts.names {
        let t0 = Instant::now();
        // Panic boundary: a crashing experiment is reported as FAILED and
        // flips the exit code, but the remaining ones still run — one
        // broken experiment should not cost the results of the others.
        let status = match exec::run_isolated(|| run_one(name)) {
            Ok(out) => {
                println!("{out}");
                "done"
            }
            Err(e) => {
                eprintln!("error in {name}: {e}");
                failures += 1;
                "FAILED"
            }
        };
        eprintln!("[{name} {status} in {:.1?}]", t0.elapsed());
    }
    exit_code(failures)
}

/// Run the `fuzz` subcommand: a differential fuzz campaign, with
/// minimized violations optionally written to `--corpus-dir` and a
/// `peakperf-fuzz-v1` summary to `--json`.
fn run_fuzz(opts: &Options) -> ExitCode {
    let cfg = fault::CampaignConfig {
        seed: opts.fuzz_seed,
        iters: opts.fuzz_iters,
        generations: opts.fuzz_gpus.clone(),
    };
    let t0 = Instant::now();
    let result = fault::run_campaign(&cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("{}", fault::render_campaign(&cfg, &result));
    eprintln!(
        "[fuzz {} mutants in {:.1} ms, {} workers]",
        result.cases,
        wall_ms,
        exec::default_workers()
    );

    let mut failures = u32::try_from(result.violations.len()).unwrap_or(u32::MAX);
    if let Some(dir) = &opts.corpus_dir {
        let dir = std::path::Path::new(dir);
        for vc in &result.violations {
            match fault::write_corpus_case(dir, vc) {
                Ok(path) => eprintln!("[minimized case written to {}]", path.display()),
                Err(e) => {
                    eprintln!("error: could not write corpus case: {e}");
                    failures += 1;
                }
            }
        }
    } else if !result.violations.is_empty() {
        eprintln!("[re-run with --corpus-dir <path> to save minimized cases]");
    }
    if let Some(path) = &opts.json_path {
        if let Err(e) = std::fs::write(path, fault::campaign_json(&cfg, &result, wall_ms).pretty())
        {
            eprintln!("error: could not write JSON report to {path}: {e}");
            failures += 1;
        }
    }
    if result.tally.harness_errors > 0 {
        eprintln!(
            "error: {} harness-level failure(s) during the campaign",
            result.tally.harness_errors
        );
        failures += 1;
    }
    exit_code(failures)
}

/// Run the `hostprof` subcommand: each target simulates under a
/// [`peakperf_sim::perfmon::HostProf`] observer, prints its wall-time
/// attribution, and contributes a `peakperf-hostprof-v1` object to
/// `--json`.
fn run_hostprof(opts: &Options) -> ExitCode {
    let mut failures = 0u32;
    let mut jsons: Vec<Json> = Vec::new();
    let mut gpus: Vec<&'static str> = Vec::new();
    for name in &opts.names {
        let t0 = Instant::now();
        // Panic boundary: a crashing target becomes a failure, not a
        // torn-down run.
        let outcome = exec::run_isolated(|| hostprof::run_target(name).map_err(|e| e.to_string()));
        match outcome {
            Ok(out) => {
                println!("{}", out.text);
                jsons.push(out.json);
                if !gpus.contains(&out.gpu) {
                    gpus.push(out.gpu);
                }
                eprintln!("[hostprof:{name} done in {:.1?}]", t0.elapsed());
            }
            Err(e) => {
                eprintln!("error in hostprof {name}: {e}");
                failures += 1;
            }
        }
    }
    if let Some(path) = &opts.json_path {
        let doc = hostprof::hostprof_document(jsons, &gpus);
        failures += write_out("hostprof document", path, &doc.pretty());
    }
    exit_code(failures)
}

/// Run the `serve` subcommand: feed a job file and/or a generated
/// chaos-soak mix through the resilient service core, then check the
/// resilience invariants on the way out. Soak jobs are *meant* to fail,
/// panic and blow deadlines — the run fails only when an accepted job
/// never reaches a terminal state, the accounting identity breaks, the
/// queue bound is exceeded, or a job from `--jobs` fails/is rejected.
fn run_serve(opts: &Options) -> ExitCode {
    let mut jobs: Vec<service::JobSpec> = Vec::new();
    let mut file_ids: std::collections::HashSet<String> = std::collections::HashSet::new();
    if let Some(path) = &opts.jobs_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match service::parse_jobs_jsonl(&text) {
            Ok(parsed) => {
                file_ids.extend(parsed.iter().map(|j| j.id.clone()));
                jobs.extend(parsed);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(n) = opts.soak {
        jobs.extend(service::soak_jobs(n, opts.fuzz_seed));
    }
    {
        let mut seen = std::collections::HashSet::new();
        if let Some(dup) = jobs.iter().find(|j| !seen.insert(j.id.as_str())) {
            eprintln!("error: duplicate job id `{}`", dup.id);
            return ExitCode::FAILURE;
        }
    }

    let queue_capacity = opts.queue_cap.unwrap_or(256);
    let config = service::ServiceConfig {
        workers: 0,
        queue_capacity,
    };
    // The flight recorder is always armed: a full journal when the run
    // writes the document or the trace (`--json`/`--trace-out`), else a
    // bounded ring whose tail is dumped if a resilience invariant fails.
    let journal = Arc::new(if opts.json_path.is_some() || opts.trace_out.is_some() {
        Journal::full(None)
    } else {
        Journal::flight_recorder(journal::DEFAULT_RING_CAPACITY)
    });
    let (svc, rx) = service::Service::start_with_journal(config, Some(Arc::clone(&journal)));
    let workers = exec::default_workers();
    let submitted = jobs.len();
    let t0 = Instant::now();
    for job in jobs {
        svc.submit(job);
    }
    let health = svc.drain();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let results: Vec<service::JobResult> = rx.try_iter().collect();
    println!("{}", service::render_summary(&health, &results, wall_ms));
    eprintln!("[serve: {submitted} job(s) in {wall_ms:.1} ms, {workers} workers]");

    let document = || {
        let doc = service::service_document(
            workers,
            queue_capacity,
            &health,
            &results,
            wall_ms,
            &journal,
        );
        doc.pretty()
    };
    let mut failures = 0u32;
    if let Some(path) = &opts.json_path {
        failures += write_out("service document", path, &document());
    }
    if let Some(path) = &opts.trace_out {
        let trace = journal.chrome_trace(workers);
        failures += write_out("chrome trace", path, &trace);
    }

    // The resilience invariants: every job terminal, nothing lost,
    // nothing left queued or running, the queue bound respected.
    if results.len() != submitted {
        eprintln!(
            "error: {} result(s) for {submitted} submission(s) — a job was lost",
            results.len()
        );
        failures += 1;
    }
    for violation in health.check_drained(queue_capacity as u64) {
        eprintln!("error: {violation}");
        failures += 1;
    }
    // The journal's own invariants: gap-free span chains and the
    // accounting identity re-derived from events alone.
    for violation in journal.check_invariants(Some(&health)) {
        eprintln!("error: journal invariant violated: {violation}");
        failures += 1;
    }
    // Jobs from an explicit --jobs file are production work: failing or
    // being shed is an error (cancel/deadline are requested semantics).
    for r in results.iter().filter(|r| file_ids.contains(&r.id)) {
        if matches!(
            r.status,
            service::JobStatus::Failed | service::JobStatus::Rejected
        ) {
            eprintln!("error: job {} {}: {}", r.id, r.status.as_str(), r.detail);
            failures += 1;
        }
    }
    if failures > 0 {
        // Any failure ships with its history: dump the service document
        // with the flight-recorder ring (unless the document was already
        // written above) and point at it from the error message.
        if let Some(path) = &opts.json_path {
            eprintln!("error: serve run failed; see the service document at {path}");
        } else {
            let dump_path = "serve-flightrec.json";
            match std::fs::write(dump_path, document()) {
                Ok(()) => eprintln!(
                    "error: serve run failed; flight recorder ({} event(s)) dumped to \
                     {dump_path}",
                    journal.len()
                ),
                Err(e) => eprintln!("error: could not dump flight recorder to {dump_path}: {e}"),
            }
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the `check` subcommand: validate each file as the document it
/// says it is (`.jsonl` files line by line), listing every violation.
fn run_check(paths: &[String]) -> ExitCode {
    let mut failures = 0usize;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: could not read {path}: {e}");
                failures += 1;
                continue;
            }
        };
        let documents: Vec<(String, &str)> = if path.ends_with(".jsonl") {
            let lines = text.lines().enumerate();
            lines
                .filter(|(_, line)| !line.trim().is_empty())
                .map(|(i, line)| (format!("{path} line {}", i + 1), line))
                .collect()
        } else {
            vec![(path.clone(), text.as_str())]
        };
        let mut violations = Vec::new();
        for (at, document) in &documents {
            let found = Json::parse(document).map_or_else(|e| vec![e], |doc| check_document(&doc));
            violations.extend(found.into_iter().map(|v| format!("{at}: {v}")));
        }
        if violations.is_empty() {
            println!("check OK: {path} ({} document(s))", documents.len());
        } else {
            eprintln!("check FAILED: {path} ({} violation(s))", violations.len());
            for v in &violations {
                eprintln!("  - {v}");
            }
            failures += violations.len();
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Write `text` — a rendered document, trace or JSONL file called `what`
/// — to `path` and say so on stderr; returns the number of failures (0 or
/// 1).
fn write_out(what: &str, path: &str, text: &str) -> u32 {
    match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("[{what} written to {path}]");
            0
        }
        Err(e) => {
            eprintln!("error: could not write {what} to {path}: {e}");
            1
        }
    }
}

/// Run the `bench` subcommand: the fixed scorecard suite, optionally
/// written as a `peakperf-bench-v1` document.
fn run_bench(opts: &Options) -> ExitCode {
    let report = match telemetry::run_suite_filtered(opts.bench_filter.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: bench suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.render_text());
    let mut failures = 0u32;
    if let Some(path) = &opts.json_path {
        failures += write_out("bench document", path, &report.to_json().pretty());
    }
    exit_code(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(("check", paths)) = args.split_first().map(|(mode, rest)| (mode.as_str(), rest)) {
        if paths.is_empty() || paths.iter().any(|p| p.starts_with('-')) {
            eprintln!("error: check takes one or more file paths and no options");
            return usage();
        }
        return run_check(paths);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            return usage();
        }
    };
    if opts.mode == Mode::Experiments {
        cache::enable_global(None);
    }
    match opts.mode {
        Mode::Experiments => run_experiments(&opts),
        Mode::Profile => run_profiles(&opts),
        Mode::Fuzz => run_fuzz(&opts),
        Mode::Bench => run_bench(&opts),
        Mode::Hostprof => run_hostprof(&opts),
        Mode::Serve => run_serve(&opts),
    }
}
