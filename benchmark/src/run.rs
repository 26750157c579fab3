//! One run of one workload: set-up probes, timed rounds with tracing
//! off, traced rounds if asked for, output checks, and the metrics.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER, STALLS};
use crate::stats::{highest_supported_percentile, median, percentile, summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Extras, Round, Setup, Workload};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Time budget for the rounds. A round that has started finishes.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: every 4th item, one round of each kind.
    pub check: bool,
    pub out_dir: PathBuf,
}

/// Share of a traced run's budget spent on rounds with tracing off,
/// which give `trace.overhead_pct` its base.
const UNTRACED_SHARE_OF_TRACED_RUN: f64 = 0.4;

/// Fresh processes that perform the set-up before the first round. One
/// more follows every round with tracing off, so that the probes sample
/// the machine over the whole run and not one instant of it; `setup_s` is
/// the median of them all.
const SETUP_PROBES_UP_FRONT: usize = 3;

/// Threads allowed to work at once: one core is left to the harness
/// thread and the rest of the machine, which on a small shared box is
/// the difference between steady and unusable timings.
pub fn workers() -> usize {
    nproc().saturating_sub(1).clamp(1, 4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl RunArgs {
    pub fn setup(&self) -> Setup {
        Setup {
            seed: self.seed,
            workers: workers(),
            check: self.check,
            out_dir: self.out_dir.clone(),
        }
    }

    pub fn result_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "result-{}-trace{}.json",
            self.workload,
            u8::from(self.trace)
        ))
    }
}

/// A fixed integer-and-table loop, timed before and after the rounds. It
/// is a canary for a slow phase of the machine, recorded with the
/// result and never used to rescale anything.
fn cal_loop_ms() -> f64 {
    let mut table = vec![0u32; 1 << 14];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let t0 = Instant::now();
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(x as u32);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Time `probes` fresh processes doing exactly the set-up of this run
/// (input generation and warm-up), from spawn to exit.
fn probe_setup(args: &RunArgs, probes: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..probes)
        .map(|_| {
            let mut cmd = Command::new(&exe);
            cmd.arg("setup")
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .arg("--out-dir")
                .arg(&args.out_dir)
                .stdout(Stdio::null());
            if args.check {
                cmd.arg("--check");
            }
            let t0 = Instant::now();
            let status = cmd
                .status()
                .map_err(|e| format!("spawn set-up probe: {e}"))?;
            let elapsed = t0.elapsed().as_secs_f64();
            if status.success() {
                Ok(elapsed)
            } else {
                Err(format!("set-up probe exited with {status}"))
            }
        })
        .collect()
}

/// The `setup` subcommand: what a probe process runs.
pub fn setup_only(args: &RunArgs) -> Result<(), String> {
    workloads::build(&args.workload, &args.setup()).map(|_| ())
}

/// Run rounds until the next one would no longer fit the budget, calling
/// `between` after each.
fn run_rounds(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    started: Instant,
    budget_s: f64,
    min_rounds: usize,
    max_rounds: usize,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Round>, String> {
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(workload.round(tracer));
        between()?;
        let typical = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let fits = started.elapsed().as_secs_f64() + typical <= budget_s;
        if rounds.len() >= max_rounds || (rounds.len() >= min_rounds && !fits) {
            return Ok(rounds);
        }
    }
}

/// Everything measured in one run.
struct Measured {
    setup_s: Vec<f64>,
    setup_inproc_s: f64,
    cal_ms: [f64; 2],
    untraced: Vec<Round>,
    traced: Vec<Round>,
    tracer: Tracer,
    after: Extras,
    peak_rss_mb: f64,
    mean_abs_pct_error: Option<f64>,
    workers: usize,
    ops: usize,
}

/// Outcome of the output checks.
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the document.
    pub messages: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }
}

/// Check every operation of every round, and that simulated results
/// repeat: each item's value and counters must be identical in every
/// round of the run, traced (staged) or not (fused).
pub fn check_rounds(rounds: &[&Round]) -> Verdict {
    let mut verdict = Verdict::default();
    let reference = rounds.first().map(|r| &r.outcomes);
    for (r, round) in rounds.iter().enumerate() {
        for (id, outcome) in round.outcomes.iter().enumerate() {
            verdict.attempted += 1;
            match (outcome, reference.and_then(|first| first.get(id))) {
                (Err(why), _) => verdict.fail(format!("round {r} item {id}: {why}")),
                (Ok(now), Some(Ok(first))) if now != first => verdict.fail(format!(
                    "round {r} item {id}: {now:?} differs from round 0's {first:?}"
                )),
                _ => {}
            }
        }
        // The round's own invariants count as one more operation.
        verdict.attempted += 1;
        if let Some(first) = round.round_failures.first() {
            verdict.fail(format!(
                "round {r}: {first} ({} check(s) failed)",
                round.round_failures.len()
            ));
        }
    }
    verdict
}

fn measure(args: &RunArgs) -> Result<(Measured, Verdict), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let setup = args.setup();
    let mut setup_s = probe_setup(args, SETUP_PROBES_UP_FRONT)?;

    let t_setup = Instant::now();
    let mut workload = workloads::build(&args.workload, &setup)?;
    let setup_inproc_s = t_setup.elapsed().as_secs_f64();
    let cal_before = cal_loop_ms();

    let started = Instant::now();
    let (min_rounds, max_rounds) = if args.check { (1, 1) } else { (2, usize::MAX) };
    let untraced_budget = if args.trace {
        args.seconds * UNTRACED_SHARE_OF_TRACED_RUN
    } else {
        args.seconds
    };
    let untraced = run_rounds(
        workload.as_mut(),
        &mut Tracer::new(false),
        started,
        untraced_budget,
        min_rounds,
        max_rounds,
        || {
            setup_s.extend(probe_setup(args, 1)?);
            Ok(())
        },
    )?;
    let mut tracer = Tracer::new(args.trace);
    let mut traced = Vec::new();
    let (mut after, mut after_failures) = (Extras::default(), Vec::new());
    if args.trace {
        traced = run_rounds(
            workload.as_mut(),
            &mut tracer,
            started,
            args.seconds,
            1,
            max_rounds,
            || Ok(()),
        )?;
        let uncached_wall_s = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        (after, after_failures) = workload.after_traced(&untraced[0], uncached_wall_s);
    }
    let cal_after = cal_loop_ms();

    let all_rounds: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let mut verdict = check_rounds(&all_rounds);
    if args.trace {
        verdict.attempted += 1;
        if let Some(first) = after_failures.first() {
            verdict.fail(format!(
                "{first} ({} check(s) failed)",
                after_failures.len()
            ));
        }
    }
    let mean_abs_pct_error = workload.mean_abs_pct_error(&untraced[0].outcomes);
    let measured = Measured {
        setup_s,
        setup_inproc_s,
        cal_ms: [cal_before, cal_after],
        untraced,
        traced,
        tracer,
        after,
        peak_rss_mb: peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        mean_abs_pct_error,
        workers: setup.workers,
        ops: workload.ops(),
    };
    Ok((measured, verdict))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    exact: bool,
    summary: Summary,
    /// Per-round (or per-probe) raw samples, kept for end-to-end metrics.
    samples: Vec<f64>,
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| m.untraced.iter().map(f).collect::<Vec<f64>>();
    let ops = m.ops as f64;
    END_TO_END
        .iter()
        .map(|spec| {
            let samples = match spec.name {
                "setup_s" => m.setup_s.clone(),
                "wall_s" => per_round(&|r| r.wall_s),
                "ops_per_s" => per_round(&|r| ops / r.wall_s),
                "warp_insts_per_s" => per_round(&|r| r.warp_insts as f64 / r.wall_s),
                "peak_rss_mb" => vec![m.peak_rss_mb],
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            Metric {
                name: spec.name,
                unit: spec.unit,
                exact: false,
                summary: summarize(&samples),
                samples,
            }
        })
        .collect()
}

/// `numerator / denominator`, reading 0 where a layer did no work (and
/// never the `-0` an empty float sum gives).
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if numerator == 0.0 || denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn per_layer(m: &Measured) -> Vec<Metric> {
    let tracer = &m.tracer;
    let shares = tracer.shares();
    let dur_sum_ns = |prefix: &str| -> f64 {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    // Median duration of the spans with one of these names.
    let med_ns = |names: &[&str]| -> f64 {
        let all: Vec<f64> = names.iter().flat_map(|n| tracer.durations_ns(n)).collect();
        median(&all)
    };

    let first = &m.untraced[0];
    let sim = first.sim;
    let traced_rounds = m.traced.len() as f64;
    let timing_ns = dur_sum_ns("sim.timing.");
    let ns_per_cycle = ratio(timing_ns, sim.cycles as f64 * traced_rounds);

    // Workload-specific streams: pooled over the rounds run with tracing
    // off, so that a job latency is not a traced latency.
    let mut pooled = Extras::default();
    for round in &m.untraced {
        pooled.merge(&round.extras);
    }
    for round in &m.traced {
        pooled.counts.extend(&round.extras.counts);
    }
    pooled.counts.extend(&m.after.counts);
    let count = |name: &str| pooled.counts.get(name).copied().unwrap_or(0.0);
    let stream = |name: &str| pooled.samples.get(name).map_or(&[][..], Vec::as_slice);
    let pct = |name: &str, p: f64| percentile(stream(name), p);

    let busy = |rounds: &[Round]| {
        median(
            &rounds
                .iter()
                .map(|r| r.item_wall_s.iter().sum())
                .collect::<Vec<f64>>(),
        )
    };
    let workers = m.workers as f64;
    let utilization: Vec<f64> = m
        .untraced
        .iter()
        .map(|r| ratio(r.item_wall_s.iter().sum(), workers * r.wall_s))
        .collect();
    let imbalance: Vec<f64> = m
        .untraced
        .iter()
        .map(|r| r.wall_s - r.item_wall_s.iter().sum::<f64>() / workers)
        .collect();

    PER_LAYER
        .iter()
        .map(|spec| {
            let name = spec.name;
            let value = if let Some(layer) = name.strip_suffix(".share") {
                shares.get(layer).copied().unwrap_or(0.0)
            } else if let Some(stall) = name
                .strip_prefix("sim.timing.stall.")
                .and_then(|s| s.strip_suffix("_share"))
            {
                let index = STALLS
                    .iter()
                    .position(|s| *s == stall)
                    .expect("known stall");
                ratio(sim.stalls[index] as f64, sim.stalled() as f64)
            } else {
                match name {
                    "sim.timing.run_ms" => {
                        med_ns(&["sim.timing.time_kernel", "sim.timing.run_on_sm"]) / 1e6
                    }
                    "sim.timing.ns_per_cycle" => ns_per_cycle,
                    "sim.timing.ns_per_warp_inst" => {
                        ratio(timing_ns, sim.warp_insts as f64 * traced_rounds)
                    }
                    "sim.timing.cycles_per_s" => ratio(1e9, ns_per_cycle),
                    "sim.timing.cycles" => sim.cycles as f64,
                    "sim.timing.warp_insts" => sim.warp_insts as f64,
                    "sim.timing.ipc" => ratio(sim.warp_insts as f64, sim.cycles as f64),
                    "sim.timing.mean_abs_pct_error" => m.mean_abs_pct_error.unwrap_or(0.0),
                    "kernels.sgemm.build_us" => med_ns(&["kernels.sgemm.build"]) / 1e3,
                    "kernels.microbench.build_us" => med_ns(&["kernels.microbench.build"]) / 1e3,
                    "kernels.cpu.sgemm_us" => med_ns(&["kernels.cpu.sgemm"]) / 1e3,
                    "sass.print_us" => med_ns(&["sass.print"]) / 1e3,
                    "sass.assemble_us" => med_ns(&["sass.assemble"]) / 1e3,
                    "sass.validate_us" => med_ns(&["sass.validate"]) / 1e3,
                    "sass.encode_us" => med_ns(&["sass.encode"]) / 1e3,
                    "sass.decode_us" => med_ns(&["sass.decode"]) / 1e3,
                    "sass.module_roundtrip_us" => med_ns(&["sass.module_roundtrip"]) / 1e3,
                    "sass.insts_per_s" => ratio(
                        count("sass.insts") * traced_rounds * 1e9,
                        dur_sum_ns("sass."),
                    ),
                    "sass.insts" | "sass.text_bytes" => count(name),
                    "regalloc.optimize_banks_us" => med_ns(&["regalloc.optimize_banks"]) / 1e3,
                    "regalloc.plan_us" => med_ns(&["regalloc.plan"]) / 1e3,
                    "bound.sweep_us" => med_ns(&["bound.sweep"]) / 1e3,
                    "sim.func.launch_us" => med_ns(&["sim.func.launch"]) / 1e3,
                    "sim.func.warp_insts_per_s" => ratio(
                        first.warp_insts as f64 * traced_rounds * 1e9,
                        dur_sum_ns("sim.func."),
                    ),
                    "sim.mem.upload_ms" => med_ns(&["sim.mem.upload"]) / 1e6,
                    "exec.utilization" => median(&utilization),
                    "exec.imbalance_s" => median(&imbalance),
                    "cache.fill_overhead_pct"
                    | "cache.warm_pass_ms"
                    | "cache.warm_hit_rate"
                    | "cache.disk_entries"
                    | "cache.disk_bytes" => count(name),
                    "service.job_latency_p50_ms" => pct("service.job_latency_ms", 0.50),
                    "service.job_latency_p95_ms" => pct("service.job_latency_ms", 0.95),
                    "service.queue_wait_ms_p50" => pct("service.queue_wait_ms", 0.50),
                    "service.queue_wait_ms_p95" => pct("service.queue_wait_ms", 0.95),
                    "service.attempt_ms_p50" => pct("service.attempt_ms", 0.50),
                    "service.attempt_ms_p95" => pct("service.attempt_ms", 0.95),
                    "service.overhead_us_p50" => pct("service.overhead_us", 0.50),
                    "service.overhead_us_p95" => pct("service.overhead_us", 0.95),
                    "service.submit_us_p50" => pct("service.submit_us", 0.50),
                    "service.fast_job_share" => {
                        let fast = stream("service.fast_job");
                        ratio(fast.iter().sum(), fast.len() as f64)
                    }
                    "service.retried"
                    | "service.rejected"
                    | "service.peak_queue_depth"
                    | "service.journal_events" => count(name),
                    "trace.overhead_pct" => {
                        let base = busy(&m.untraced);
                        ratio((busy(&m.traced) - base) * 100.0, base)
                    }
                    "host.cal_loop_ms" => median(&m.cal_ms),
                    other => unreachable!("per-layer metric `{other}` has no definition"),
                }
            };
            Metric {
                name,
                unit: spec.unit,
                exact: spec.exact,
                summary: Summary {
                    median: value,
                    q1: value,
                    q3: value,
                    n: 1,
                },
                samples: Vec::new(),
            }
        })
        .collect()
}

fn metrics_json(metrics: &[Metric], level: &str, full: bool) -> Vec<(String, Json)> {
    metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.summary.median)),
                ("unit", Json::Str(m.unit.to_owned())),
            ];
            if full {
                fields.push(("level", Json::Str(level.to_owned())));
                fields.push(("exact", Json::Bool(m.exact)));
                fields.push(("q1", Json::Num(m.summary.q1)));
                fields.push(("q3", Json::Num(m.summary.q3)));
                fields.push(("n", Json::Num(m.summary.n as f64)));
                if !m.samples.is_empty() {
                    fields.push(("samples", Json::nums(&m.samples)));
                }
            }
            (m.name.to_owned(), Json::obj(fields))
        })
        .collect()
}

fn provenance(args: &RunArgs, m: &Measured) -> Json {
    let latency_samples = m
        .untraced
        .iter()
        .map(|r| {
            r.extras
                .samples
                .get("service.job_latency_ms")
                .map_or(0, Vec::len)
        })
        .sum::<usize>();
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("check", Json::Bool(args.check)),
        ("nproc", Json::Num(nproc() as f64)),
        ("workers", Json::Num(m.workers as f64)),
        ("ops_per_round", Json::Num(m.ops as f64)),
        ("rounds_untraced", Json::Num(m.untraced.len() as f64)),
        ("rounds_traced", Json::Num(m.traced.len() as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("host.cal_loop_ms", Json::nums(&m.cal_ms)),
        ("setup_inproc_s", Json::Num(m.setup_inproc_s)),
        (
            "round_wall_s_traced",
            Json::nums(&m.traced.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        ),
        // The p95 job latency is a percentile only with ten samples
        // beyond it; this says which percentile the run could support.
        ("job_latency_samples", Json::Num(latency_samples as f64)),
        (
            "job_latency_highest_percentile",
            Json::Num(highest_supported_percentile(latency_samples)),
        ),
    ])
}

/// Run one workload; print every metric by name and unit, then the
/// one-line result object the driver reads. Returns whether the outputs
/// were correct.
pub fn run_workload(args: &RunArgs) -> Result<bool, String> {
    if !spec::workload_known(&args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    let (measured, mut verdict) = measure(args)?;
    let e2e = end_to_end(&measured);
    let layers = if args.trace {
        per_layer(&measured)
    } else {
        Vec::new()
    };
    let reported = if args.trace { &layers } else { &e2e };
    for metric in reported {
        verdict.attempted += 1;
        if !metric.summary.median.is_finite() {
            verdict.fail(format!("metric {} is not finite", metric.name));
        }
    }
    if args.trace {
        let share_sum: f64 = layers
            .iter()
            .filter(|m| m.name.ends_with(".share"))
            .map(|m| m.summary.median)
            .sum();
        verdict.attempted += 1;
        if (share_sum - 1.0).abs() > 1e-6 {
            verdict.fail(format!("layer shares sum to {share_sum}, not 1"));
        }
    }
    let correct = verdict.failed == 0;

    println!(
        "{} seed {} trace {}: {} untraced + {} traced round(s) of {} operation(s), {} worker(s)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        measured.untraced.len(),
        measured.traced.len(),
        measured.ops,
        measured.workers
    );
    for metric in e2e.iter().chain(&layers) {
        let s = &metric.summary;
        let spread = if s.n > 1 {
            format!("  [q1 {:.6}, q3 {:.6}, n {}]", s.q1, s.q3, s.n)
        } else {
            String::new()
        };
        let kind = if metric.exact { "  (exact)" } else { "" };
        println!(
            "  {:<40} {:>16.6} {}{kind}{spread}",
            metric.name, s.median, metric.unit
        );
    }
    for message in &verdict.messages {
        println!("  FAILED: {message}");
    }

    let mut all_metrics = metrics_json(&e2e, "end_to_end", true);
    all_metrics.extend(metrics_json(&layers, "per_layer", true));
    let document = Json::obj([
        ("schema", Json::Str("peakperf-benchmark-v1".to_owned())),
        (
            "workloads",
            Json::obj([(
                args.workload.clone(),
                Json::obj([
                    ("correct", Json::Bool(correct)),
                    ("attempted", Json::Num(verdict.attempted as f64)),
                    ("failed", Json::Num(verdict.failed as f64)),
                    (
                        "failures",
                        Json::Arr(verdict.messages.iter().cloned().map(Json::Str).collect()),
                    ),
                    ("provenance", provenance(args, &measured)),
                    ("metrics", Json::Obj(all_metrics)),
                ]),
            )]),
        ),
    ]);
    write_file(&args.result_path(), &document.render())?;
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        write_file(&path, &measured.tracer.chrome_trace().render())?;
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("metrics", Json::Obj(metrics_json(reported, "", false))),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `run` without `--workload`: every workload in a process of its own
/// (fresh global counters and caches, its own peak RSS), then one merged
/// document, `<out-dir>/results-trace<0|1>.json`.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let merged_path = args
        .out_dir
        .join(format!("results-trace{}.json", u8::from(args.trace)));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for (workload, _) in spec::WORKLOADS {
        let one = RunArgs {
            workload: workload.to_owned(),
            ..args.clone()
        };
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir);
        if args.check {
            cmd.arg("--check");
        }
        let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(one.result_path())
            .map_err(|e| format!("{workload} left no result document: {e}"))?;
        let document = Json::parse(&text)?;
        let workloads = document
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: malformed result document"))?;
        merged.extend(workloads.iter().cloned());
    }
    let document = Json::obj([
        ("schema", Json::Str("peakperf-benchmark-v1".to_owned())),
        ("workloads", Json::Obj(merged)),
    ]);
    write_file(&merged_path, &document.render())?;
    println!("result document: {}", merged_path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Outcome;

    fn round(values: &[f64]) -> Round {
        Round {
            outcomes: values
                .iter()
                .map(|&value| {
                    Ok(Outcome {
                        value,
                        cycles: 10,
                        warp_insts: 20,
                    })
                })
                .collect(),
            ..Round::default()
        }
    }

    #[test]
    fn identical_rounds_pass_and_count_every_operation_and_round() {
        let (a, b) = (round(&[1.0, 2.0]), round(&[1.0, 2.0]));
        let verdict = check_rounds(&[&a, &b]);
        assert_eq!((verdict.attempted, verdict.failed), (6, 0));
    }

    #[test]
    fn a_changed_simulated_value_fails_the_later_round_only() {
        let (a, b) = (round(&[1.0, 2.0]), round(&[1.0, 2.5]));
        let verdict = check_rounds(&[&a, &b]);
        assert_eq!(verdict.failed, 1);
        assert!(verdict.messages[0].starts_with("round 1 item 1"));
    }

    #[test]
    fn errors_and_round_level_failures_are_counted() {
        let mut a = round(&[1.0]);
        a.outcomes.push(Err("boom".to_owned()));
        a.round_failures = vec!["identity".to_owned(), "second".to_owned()];
        let verdict = check_rounds(&[&a]);
        assert_eq!((verdict.attempted, verdict.failed), (3, 2));
    }
}
